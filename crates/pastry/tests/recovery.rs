//! Loss-recovery tests: heartbeat ack tracking, missed-ack suspicion,
//! and bounded join retry on lossy links.

use past_crypto::rng::Rng;
use past_netsim::{FaultConfig, Sphere};
use past_pastry::{
    random_ids, Config, Id, NullApp, PastryMsg, PastryOut, PastrySim, RecoveryConfig,
};

fn small_cfg() -> Config {
    Config {
        leaf_len: 8,
        neighborhood_len: 8,
        ..Config::default()
    }
}

fn build_recovering_network(n: usize, seed: u64) -> PastrySim<NullApp, Sphere> {
    build_with_slots(n, n, seed)
}

/// Builds an `n`-node network with room in the topology for
/// `slots - n` later joiners.
fn build_with_slots(n: usize, slots: usize, seed: u64) -> PastrySim<NullApp, Sphere> {
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let topo = Sphere::new(slots, seed);
    let mut sim = PastrySim::new(topo, small_cfg(), seed);
    sim.set_recovery(RecoveryConfig::default());
    sim.build_by_joins(&ids, |_| NullApp, 8);
    sim
}

#[test]
fn heartbeat_acks_keep_live_peers_unsuspected() {
    let n = 20;
    let mut sim = build_recovering_network(n, 31);
    // Lossless: every round's acks arrive, nobody accumulates misses.
    for _ in 0..5 {
        sim.stabilize();
    }
    for a in 0..n {
        for b in 0..n {
            assert!(
                !sim.engine.node(a).suspects(b),
                "node {a} wrongly suspects live node {b}"
            );
        }
    }
}

#[test]
fn silent_peers_are_suspected_after_missed_ack_limit() {
    let mut sim = build_recovering_network(2, 33);
    // Total loss: heartbeats (and everything else) vanish silently, so
    // the only failure signal is the ack deadline.
    sim.engine.set_faults(
        FaultConfig {
            loss: 1.0,
            ..FaultConfig::default()
        },
        7,
    );
    let limit = RecoveryConfig::default().missed_ack_limit;
    for round in 0..limit {
        assert!(
            !sim.engine.node(0).suspects(1),
            "suspected too early, round {round}"
        );
        sim.stabilize();
    }
    assert!(sim.engine.node(0).suspects(1), "0 never suspected silent 1");
    assert!(sim.engine.node(1).suspects(0), "1 never suspected silent 0");
}

#[test]
fn proof_of_life_clears_suspicion() {
    let mut sim = build_recovering_network(2, 33);
    sim.engine.set_faults(
        FaultConfig {
            loss: 1.0,
            ..FaultConfig::default()
        },
        7,
    );
    for _ in 0..RecoveryConfig::default().missed_ack_limit {
        sim.stabilize();
    }
    assert!(sim.engine.node(0).suspects(1));
    // Link heals; any message from the suspect is proof of life (in a
    // larger ring, repair gossip supplies this traffic — with only two
    // nodes both purged their leaf sets, so inject it directly).
    sim.engine.set_faults(FaultConfig::default(), 7);
    sim.engine.inject(
        1,
        0,
        PastryMsg::<()>::Announce {
            from: sim.engine.node(1).state.me,
        },
        0,
    );
    sim.engine.run_until_quiet(1_000_000);
    assert!(!sim.engine.node(0).suspects(1), "suspicion not cleared");
}

#[test]
fn joins_retry_through_loss_and_complete() {
    let n = 24;
    let mut sim = build_with_slots(n, n + 4, 41);
    sim.engine.set_faults(
        FaultConfig {
            loss: 0.10,
            duplicate: 0.02,
            jitter_us: 10_000,
        },
        91,
    );
    let mut rng = Rng::seed_from_u64(77);
    for i in 0..4 {
        let id = Id(rng.random());
        let contact = rng.random_range(0..n);
        let addr = sim.join_node_via(id, NullApp, contact);
        assert!(
            sim.engine.node(addr).joined,
            "join {i} did not survive 10% loss"
        );
    }
}

#[test]
fn join_gives_up_with_explicit_failure_when_all_requests_vanish() {
    let n = 8;
    let mut sim = build_with_slots(n, n + 1, 47);
    sim.engine.drain_outputs();
    sim.engine.set_faults(
        FaultConfig {
            loss: 1.0,
            ..FaultConfig::default()
        },
        5,
    );
    let addr = sim.join_node_via(Id(0x00aa_bbcc_dd11_2233), NullApp, 0);
    assert!(!sim.engine.node(addr).joined);
    let attempts = RecoveryConfig::default().join_attempts;
    let failed: Vec<u32> = sim
        .engine
        .drain_outputs()
        .into_iter()
        .filter_map(|(_, at, out)| match out {
            PastryOut::JoinFailed { attempts } if at == addr => Some(attempts),
            _ => None,
        })
        .collect();
    assert_eq!(failed, vec![attempts], "expected one explicit JoinFailed");
}

#[test]
fn lossy_runs_replay_bit_identically() {
    let fingerprint = |seed: u64| {
        let n = 16;
        let mut sim = build_recovering_network(n, 53);
        sim.engine.set_faults(
            FaultConfig {
                loss: 0.05,
                duplicate: 0.01,
                jitter_us: 20_000,
            },
            seed,
        );
        for _ in 0..3 {
            sim.stabilize();
        }
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..50 {
            let key = Id(rng.random());
            let from = rng.random_range(0..n);
            sim.route(from, key, ());
        }
        let recs = sim.drain_deliveries();
        let now = sim.engine.now().as_micros();
        let stats = sim.engine.stats();
        format!(
            "delivered={} dropped={} duplicated={} total={} now={}",
            recs.len(),
            stats.dropped,
            stats.duplicated,
            stats.total_msgs,
            now
        )
    };
    let a = fingerprint(100);
    let b = fingerprint(100);
    let c = fingerprint(101);
    assert_eq!(a, b, "same seed must replay identically");
    assert_ne!(a, c, "different fault seed should perturb the run");
}
