//! Canned simulation scenarios for the CI invariant gate.
//!
//! Each scenario builds a PAST deployment, drives a workload to
//! quiescence, snapshots the whole system, and returns every I1–I5
//! violation found (an empty vector means the gate passes). The same
//! scenarios back the `invariants` binary run by `scripts/ci.sh`.

use crate::{check_all, Violation};
use past_core::{BuildMode, ContentRef, PastApp, PastConfig, PastNetwork, PastOut};
use past_crypto::rng::Rng;
use past_netsim::{FaultConfig, SeriesConfig, ShardConfig, SimTime, Sphere, TraceConfig, Tracer};
use past_pastry::{random_ids, Config as PastryConfig, Id, RecoveryConfig};
use std::collections::BTreeSet;

const MB: u64 = 1 << 20;

/// Delay floor of every scenario topology, and the shard window: a
/// window may not exceed the minimum inter-node delay, and a 2 ms floor
/// on a [`Sphere`] leaves the proximity structure intact (points don't
/// move, short links clamp).
const FLOOR_US: u64 = 2_000;

fn pastry_cfg() -> PastryConfig {
    // l = 16 keeps k ≤ l/2 for k = 5 (the paper's configuration): a k-set
    // member must be able to see the whole k-set inside its own leaf set,
    // or it cannot tell whether it still belongs to it.
    PastryConfig {
        leaf_len: 16,
        neighborhood_len: 8,
        ..PastryConfig::default()
    }
}

/// Builds an `n`-node network over a delay-floored sphere with
/// `slots ≥ n` seats (spare seats allow later joins), on `shards`
/// engine shards.
fn build_net(
    slots: usize,
    n: usize,
    seed: u64,
    capacity: u64,
    quota: u64,
    past_cfg: PastConfig,
    shards: usize,
) -> (PastNetwork<Sphere>, Vec<Id>) {
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(slots, &mut rng);
    let net = PastNetwork::build_sharded(
        Sphere::with_delay_floor(slots, seed, FLOOR_US),
        pastry_cfg(),
        past_cfg,
        seed,
        &ids[..n],
        &vec![capacity; n],
        &vec![quota; n],
        BuildMode::ProtocolJoins,
        ShardConfig {
            shards,
            window_us: FLOOR_US,
        },
    )
    .expect("window equals the delay floor, so the build is sound");
    (net, ids)
}

fn check_at(context: &str, net: &PastNetwork<Sphere>, out: &mut Vec<Violation>) {
    for mut v in check_all(&net.snapshot()) {
        v.detail = format!("[{context}] {}", v.detail);
        out.push(v);
    }
}

/// Scenario 1 — bulk join: 40 protocol joins, an insert/lookup workload,
/// and a duplicate insert (which must conserve quota via zero-`stored`
/// receipts).
pub fn bulk_join(seed: u64) -> Vec<Violation> {
    let mut violations = Vec::new();
    let (mut net, _) = build_net(40, 40, seed, 200 * MB, 2_000 * MB, PastConfig::default(), 1);
    net.run();
    check_at("after bulk join", &net, &mut violations);

    let mut fids = Vec::new();
    for i in 0..8u64 {
        let name = format!("bulk-{i}");
        let content = ContentRef::synthetic(seed as usize, &name, (1 + i % 3) * MB);
        let client = (i as usize * 5) % 40;
        if net.insert(client, &name, content, 5).is_ok() {
            let events = net.run();
            for (_, _, e) in events {
                if let past_core::PastOut::InsertOk { file_id, .. } = e {
                    fids.push((client, name.clone(), content, file_id));
                }
            }
        }
    }
    for (_, fid) in fids.iter().map(|(c, _, _, f)| (c, f)) {
        net.lookup(7, *fid);
    }
    net.run();
    check_at("after insert/lookup workload", &net, &mut violations);

    // Re-insert an existing file: holders answer with zero-`stored`
    // receipts and the duplicate debit must be returned in full.
    if let Some((client, name, content, _)) = fids.first() {
        // The duplicate submission itself must be accepted (holders
        // reject it later with zero-`stored` receipts); a checker must
        // fail loudly if it cannot even be issued (rule E1).
        net.insert(*client, name, *content, 5)
            .expect("duplicate insert submission accepted");
        net.run();
        check_at("after duplicate insert", &net, &mut violations);
    }
    violations
}

/// Scenario 2 — churn: an insert workload, then node failures, repair,
/// recoveries and fresh joins, checking at every quiesce point.
pub fn churn(seed: u64) -> Vec<Violation> {
    let mut violations = Vec::new();
    let (mut net, ids) = build_net(48, 40, seed, 200 * MB, 2_000 * MB, PastConfig::default(), 1);

    for i in 0..6u64 {
        let name = format!("churn-{i}");
        let content = ContentRef::synthetic((seed ^ 1) as usize, &name, MB);
        net.insert((i as usize) % 6, &name, content, 5)
            .expect("churn insert submission accepted");
    }
    net.run();
    check_at("after insert workload", &net, &mut violations);

    // Fail 5 nodes (disjoint from the client set 0..6).
    for a in 20..25 {
        net.sim.engine.kill(a);
    }
    net.sim.stabilize();
    net.sim.stabilize();
    net.run();
    check_at("after failing 5 nodes", &net, &mut violations);

    // Two failed nodes come back with their old state...
    for a in 20..22 {
        net.sim.recover_node(a);
    }
    net.sim.stabilize();
    net.run();
    check_at("after recovering 2 nodes", &net, &mut violations);

    // ...and 3 brand-new nodes join.
    for (j, id) in ids[40..43].iter().enumerate() {
        let card = net
            .broker
            .issue_card(format!("late-{j}").as_bytes(), 2_000 * MB, 200 * MB);
        let app = PastApp::new(net.past_cfg(), card, 200 * MB, &net.broker);
        net.sim.join_node_nearby(*id, app, 4);
        net.run();
    }
    net.sim.stabilize();
    net.run();
    check_at("after 3 fresh joins", &net, &mut violations);
    violations
}

/// Scenario 3 — quota/reclaim under storage pressure: tiny disks force
/// replica diversion (pointers), then reclaims must settle every card's
/// quota exactly.
pub fn quota_reclaim(seed: u64) -> Vec<Violation> {
    let mut violations = Vec::new();
    let cfg = PastConfig {
        t_pri: 0.6,
        t_div: 0.55,
        ..PastConfig::default()
    };
    let (mut net, _) = build_net(30, 30, seed, 12 * MB, 10_000 * MB, cfg, 1);

    let mut rng = Rng::seed_from_u64(seed ^ 2);
    let mut inserted = Vec::new();
    for i in 0..20u64 {
        let name = format!("press-{i}");
        let content = ContentRef::synthetic((seed ^ 3) as usize, &name, 4 * MB);
        let client = rng.random_range(0..30);
        if net.insert(client, &name, content, 3).is_err() {
            continue;
        }
        let events = net.run();
        for (_, _, e) in events {
            if let past_core::PastOut::InsertOk { file_id, .. } = e {
                inserted.push((client, file_id));
            }
        }
    }
    check_at("after pressure workload", &net, &mut violations);

    // Reclaim every other successful insert.
    for (client, fid) in inserted.iter().step_by(2) {
        net.reclaim(*client, *fid);
        net.run();
    }
    check_at("after reclaims", &net, &mut violations);
    violations
}

/// Scenario 4 — lossy churn: the churn scenario's shape re-run over a
/// faulty network (5% loss, 1% duplication, 20 ms jitter) with the
/// recovery machinery on, on `shards` engine shards. Beyond I1–I5 at
/// every quiesce point, it asserts liveness: every client operation
/// issued under loss must terminate in an explicit success or failure
/// event (reported as a synthetic "OP" violation otherwise — a hung
/// request). The run is the same under any shard count.
pub fn lossy_churn(seed: u64, shards: usize) -> Vec<Violation> {
    // Tracing never perturbs the simulation, so delegating with tracing
    // off yields exactly the violations a dedicated untraced run would.
    lossy_churn_traced(seed, shards, TraceConfig::off()).0
}

/// [`lossy_churn`] with a trace sink attached: returns the violations
/// plus the tracer holding the run's records (fed to `tracecheck` by
/// the CI gate).
pub fn lossy_churn_traced(
    seed: u64,
    shards: usize,
    trace: TraceConfig,
) -> (Vec<Violation>, Tracer) {
    let (mut net, ids) = build_net(48, 40, seed, 400 * MB, 4_000 * MB, lossy_cfg(), shards);
    drive_lossy_churn(&mut net, &ids, seed, trace)
}

fn lossy_cfg() -> PastConfig {
    PastConfig {
        request_timeout_us: Some(800_000),
        request_attempts: 5,
        ..PastConfig::default()
    }
}

/// The lossy-churn workload: inserts under loss, node failures,
/// recoveries, fresh joins, lookups and reclaims, with I1–I5 checked at
/// every quiesce point and explicit termination demanded for every
/// issued operation.
fn drive_lossy_churn(
    net: &mut PastNetwork<Sphere>,
    ids: &[Id],
    seed: u64,
    trace: TraceConfig,
) -> (Vec<Violation>, Tracer) {
    let mut violations = Vec::new();
    // Ample disks and quotas (set by the builders): this scenario
    // stresses message loss, not storage pressure.
    net.sim.engine.set_tracing(trace);
    if trace.any() {
        // Traced runs also carry the flight recorder so `obsreport` can
        // gate the scenario's health series in CI.
        net.sim.engine.set_series(SeriesConfig::new(1_000_000));
    }
    net.run();

    // Switch the overlay into loss-recovery mode, then turn the faults on.
    net.sim.set_recovery(RecoveryConfig::default());
    net.sim.engine.set_faults(
        FaultConfig {
            loss: 0.05,
            duplicate: 0.01,
            jitter_us: 20_000,
        },
        seed ^ 0xfa17,
    );

    let mut events: Vec<past_core::PastEvent> = Vec::new();
    let mut insert_reqs = BTreeSet::new();
    for i in 0..8u64 {
        let name = format!("lossy-{i}");
        let content = ContentRef::synthetic((seed ^ 4) as usize, &name, (1 + i % 3) * MB);
        if let Ok(req) = net.insert((i as usize) % 8, &name, content, 5) {
            insert_reqs.insert(req);
        }
        events.extend(net.run());
    }
    net.sim.stabilize();
    events.extend(net.run());
    check_at("lossy: after insert workload", net, &mut violations);

    // Fail 5 nodes; failure detection now needs missed-ack rounds, so run
    // enough heartbeat rounds for every neighbor to pass the limit and
    // for the anti-entropy traffic to heal the holes.
    for a in 20..25 {
        net.sim.engine.kill(a);
    }
    for _ in 0..5 {
        net.sim.stabilize();
    }
    events.extend(net.run());
    check_at("lossy: after failing 5 nodes", net, &mut violations);

    // Two failed nodes recover with their old state and three brand-new
    // nodes join through the retried join protocol.
    for a in 20..22 {
        net.sim.recover_node(a);
    }
    for _ in 0..3 {
        net.sim.stabilize();
    }
    events.extend(net.run());
    for (j, id) in ids[40..43].iter().enumerate() {
        let card =
            net.broker
                .issue_card(format!("lossy-late-{j}").as_bytes(), 4_000 * MB, 400 * MB);
        let app = PastApp::new(net.past_cfg(), card, 400 * MB, &net.broker);
        net.sim.join_node_nearby(*id, app, 4);
        events.extend(net.run());
    }
    net.sim.stabilize();
    events.extend(net.run());
    check_at(
        "lossy: after recoveries and fresh joins",
        net,
        &mut violations,
    );

    // Look up everything inserted, reclaim every other file, and demand
    // explicit termination for each operation.
    let inserted: Vec<_> = events
        .iter()
        .filter_map(|(_, _, e)| match e {
            PastOut::InsertOk { file_id, .. } => Some(*file_id),
            _ => None,
        })
        .collect();
    for fid in &inserted {
        net.lookup(7, *fid);
        events.extend(net.run());
    }
    let reclaimed: Vec<_> = inserted.iter().copied().step_by(2).collect();
    for fid in &reclaimed {
        net.reclaim(1, *fid);
        events.extend(net.run());
    }
    net.sim.stabilize();
    net.sim.stabilize();
    events.extend(net.run());
    check_at("lossy: final", net, &mut violations);

    // Liveness: every issued operation produced a terminal event.
    let mut insert_done = BTreeSet::new();
    let mut lookup_done = BTreeSet::new();
    let mut reclaim_done = BTreeSet::new();
    for (_, _, e) in &events {
        match e {
            PastOut::InsertOk { request_id, .. } | PastOut::InsertFailed { request_id, .. } => {
                insert_done.insert(*request_id);
            }
            PastOut::LookupOk { file_id, .. } | PastOut::LookupFailed { file_id } => {
                lookup_done.insert(*file_id);
            }
            PastOut::ReclaimCredited { file_id, .. }
            | PastOut::ReclaimDenied { file_id }
            | PastOut::ReclaimFailed { file_id } => {
                reclaim_done.insert(*file_id);
            }
            _ => {}
        }
    }
    for req in &insert_reqs {
        if !insert_done.contains(req) {
            violations.push(Violation {
                invariant: "OP",
                addr: None,
                detail: format!("[lossy] insert request {req} never terminated"),
            });
        }
    }
    for fid in &inserted {
        if !lookup_done.contains(fid) {
            violations.push(Violation {
                invariant: "OP",
                addr: None,
                detail: format!("[lossy] lookup of {fid:?} never terminated"),
            });
        }
    }
    for fid in &reclaimed {
        if !reclaim_done.contains(fid) {
            violations.push(Violation {
                invariant: "OP",
                addr: None,
                detail: format!("[lossy] reclaim of {fid:?} never terminated"),
            });
        }
    }
    (violations, net.sim.engine.take_tracer())
}

/// Scenario 5 — wheel horizon: rides the deployment across timer-wheel
/// cascade boundaries. The hierarchical wheel re-files pending events
/// whenever the clock crosses a `64^k` µs slot edge, so those ticks are
/// where a filing bug would reorder or drop timers; it would surface
/// here as stuck heartbeats, failed repair (I1–I5 violations) or a
/// lookup that never completes.
pub fn wheel_horizon(seed: u64) -> Vec<Violation> {
    let mut violations = Vec::new();
    let (mut net, _) = build_net(40, 40, seed, 200 * MB, 2_000 * MB, PastConfig::default(), 1);
    net.run();
    check_at("wheel: after build", &net, &mut violations);

    // Cross a level-1 (64² µs), level-2 (64³ µs) and level-3
    // (64⁴ µs ≈ 17 s of simulated time) slot edge in turn, each with a
    // fresh insert in flight and a lookup issued on the far side.
    for (round, span) in [4_096u64, 262_144, 16_777_216].into_iter().enumerate() {
        let name = format!("horizon-{round}");
        let content = ContentRef::synthetic(seed as usize, &name, MB);
        let mut fid = None;
        if net.insert((round * 11) % 40, &name, content, 5).is_ok() {
            for (_, _, e) in net.run() {
                if let PastOut::InsertOk { file_id, .. } = e {
                    fid = Some(file_id);
                }
            }
        }
        // Park the clock exactly on the next slot edge of this level,
        // then keep going: everything pending must survive the cascade.
        let edge = (net.sim.engine.now().as_micros() / span + 1) * span;
        net.sim.engine.run_until(SimTime::from_micros(edge));
        net.sim.stabilize();
        let mut found = fid.is_none();
        if let Some(fid) = fid {
            net.lookup((round * 7 + 1) % 40, fid);
        }
        for (_, _, e) in net.run() {
            if matches!(e, PastOut::LookupOk { .. }) {
                found = true;
            }
        }
        if !found {
            violations.push(Violation {
                invariant: "OP",
                addr: None,
                detail: format!("[wheel] lookup issued after the {span} µs edge never succeeded"),
            });
        }
        check_at(
            &format!("wheel: after the {span} µs edge"),
            &net,
            &mut violations,
        );
    }
    violations
}

/// Runs every scenario with its default seed; `(name, violations)` pairs.
pub fn run_all() -> Vec<(&'static str, Vec<Violation>)> {
    vec![
        ("bulk-join", bulk_join(1)),
        ("churn", churn(2)),
        ("quota-reclaim", quota_reclaim(3)),
        ("lossy-churn", lossy_churn(4, 1)),
        ("wheel-horizon", wheel_horizon(5)),
        ("lossy-churn-sharded", lossy_churn(4, 4)),
    ]
}
