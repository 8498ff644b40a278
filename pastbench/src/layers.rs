//! Per-layer probes, timed from outside each crate's public API on the
//! deployment a traced pass leaves behind.

use crate::clock::Clock;
use crate::drive::{pastry_cfg, Kept, Workload, PROBE_JOINS};
use crate::stats::median;
use past_core::{Broker, FileCertificate, PastApp};
use past_crypto::rng::Rng;
use past_crypto::KeyPair;
use past_netsim::{Sphere, TraceConfig};
use past_pastry::{next_hop, static_build, NullApp, PastrySim};
use std::hint::black_box;

/// Timed batches per probe; each probe reports the median batch.
const BATCHES: usize = 9;

/// Certificates harvested from the stores for the crypto probes.
const CERTS: usize = 24;

/// Median over `BATCHES` of the wall time per call of `f`, in µs, where
/// one batch calls `f` `calls` times.
fn per_call_us(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Clock::start();
        for i in 0..calls {
            f(i);
        }
        samples.push(t.secs() * 1e6 / calls as f64);
    }
    median(&samples).expect("BATCHES > 0")
}

/// Runs every probe; returns `(metric, value)` pairs plus the wall
/// times of the probe joins in ms (empty on `churn_lossy`, whose waves
/// record their own joins).
pub fn probe(w: Workload, kept: &mut Kept, seed: u64) -> (Vec<(&'static str, f64)>, Vec<f64>) {
    kept.net.sim.engine.set_tracing(TraceConfig::off());
    let broker_key = kept.net.broker.public();
    let mut certs: Vec<FileCertificate> = Vec::new();
    for a in kept.net.sim.engine.live_addrs() {
        for (_, f) in kept.net.sim.engine.node(a).app.store.files() {
            if certs.len() < CERTS && !certs.iter().any(|c| c.file_id == f.cert.file_id) {
                certs.push(f.cert);
            }
        }
    }
    assert!(!certs.is_empty(), "the pass left no stored certificates");
    let mut out = Vec::new();
    out.push((
        "crypto.verify_us",
        per_call_us(certs.len(), |i| {
            assert!(black_box(&certs[i]).verify(&broker_key));
        }),
    ));
    out.push((
        "crypto.card_verify_us",
        per_call_us(certs.len(), |i| {
            assert!(black_box(&certs[i].owner).verify(&broker_key));
        }),
    ));
    let keys = KeyPair::from_seed(&seed.to_be_bytes());
    let messages: Vec<Vec<u8>> = certs
        .iter()
        .map(|c| {
            FileCertificate::message(
                &c.file_id,
                &c.content_hash,
                c.size,
                c.replication,
                c.salt,
                c.inserted_at,
            )
        })
        .collect();
    out.push((
        "crypto.sign_us",
        per_call_us(messages.len(), |i| {
            black_box(keys.sign(black_box(&messages[i])));
        }),
    ));
    let mut broker = Broker::new(&seed.to_be_bytes());
    out.push((
        "crypto.keygen_us",
        per_call_us(4, |i| {
            black_box(broker.issue_card(&i.to_be_bytes(), 1, 1));
        }),
    ));

    let live = kept.net.sim.engine.live_addrs();
    let nodes: Vec<usize> = live
        .iter()
        .copied()
        .step_by(live.len().div_ceil(64))
        .collect();
    let mut rng = Rng::seed_from_u64(seed);
    let keys = &kept.keys;
    out.push((
        "pastry.next_hop_ns",
        1e3 * per_call_us(nodes.len() * keys.len().min(64), |i| {
            let state = &kept.net.sim.engine.node(nodes[i % nodes.len()]).state;
            black_box(next_hop(state, &keys[i / nodes.len()], &mut rng));
        }),
    ));
    out.push(("netsim.route_us", route_us(kept, seed)));

    let mut joins = Vec::new();
    if w != Workload::ChurnLossy {
        let cfg = kept.net.past_cfg();
        for _ in 0..PROBE_JOINS {
            let card = kept.net.broker.issue_card(
                format!("probe-{}", kept.next_id).as_bytes(),
                1,
                1 << 30,
            );
            let app = PastApp::new(cfg, card, 1 << 30, &kept.net.broker);
            let t = Clock::start();
            kept.net
                .sim
                .join_node_nearby(kept.ids[kept.next_id], app, 8);
            kept.net.run();
            joins.push(t.secs() * 1e3);
            kept.next_id += 1;
        }
    }
    (out, joins)
}

/// Wall time per route on a `NullApp` overlay built from the pass's ids
/// and topology: the routing floor under every PAST operation.
fn route_us(kept: &Kept, seed: u64) -> f64 {
    let n = kept.initial_nodes;
    let mut sim: PastrySim<NullApp, Sphere> = static_build(
        Sphere::new(kept.slots, seed),
        pastry_cfg(),
        seed,
        &kept.ids[..n],
        |_| NullApp,
        4,
    );
    let mut rng = Rng::seed_from_u64(seed ^ 0x707e);
    let keys = &kept.keys;
    let per_batch = 256;
    per_call_us(1, |_| {
        for i in 0..per_batch {
            sim.route(rng.random_range(0..n), keys[i % keys.len()], ());
        }
        black_box(sim.drain_deliveries());
    }) / per_batch as f64
}
