//! Workspace-level integration tests exercising the full stack through
//! the `past` facade: overlay + storage + crypto + baselines together.

use past::core::{BuildMode, ContentRef, PastConfig, PastNetwork, PastOut};
use past::crypto::rng::Rng;
use past::netsim::{Sphere, Topology, TransitStub, UniformRandom};
use past::pastry::{random_ids, Config, Id, NullApp, PastrySim};

fn small_pastry_cfg() -> Config {
    Config {
        leaf_len: 8,
        neighborhood_len: 8,
        ..Config::default()
    }
}

fn run_workload_on<T: Topology>(name: &str, net: &mut PastNetwork<T>) {
    let content = ContentRef::from_bytes(b"cross-topology payload");
    net.insert(2, "xtopo.bin", content, 3)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let events = net.run();
    let fid = events
        .iter()
        .find_map(|(_, _, e)| match e {
            PastOut::InsertOk { file_id, .. } => Some(*file_id),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{name}: insert failed: {events:?}"));
    net.lookup(17, fid);
    assert!(
        net.run()
            .iter()
            .any(|(_, _, e)| matches!(e, PastOut::LookupOk { .. })),
        "{name}: lookup failed"
    );
    net.reclaim(2, fid);
    net.run();
    assert!(
        net.replica_holders(&fid).is_empty(),
        "{name}: reclaim failed"
    );
}

#[test]
fn full_stack_insert_lookup_reclaim_on_every_topology() {
    // The same PAST workload must behave identically in protocol terms on
    // any proximity model.
    let n = 30;
    let seed = 1;
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    run_workload_on("sphere", &mut mk_boxed(Sphere::new(n, seed), &ids, seed));
    run_workload_on(
        "transit-stub",
        &mut mk_boxed(TransitStub::new(n, seed, 4, 3), &ids, seed),
    );
    run_workload_on(
        "uniform-random",
        &mut mk_boxed(UniformRandom::new(n, seed, 1_000, 80_000), &ids, seed),
    );
}

fn mk_boxed<T: Topology + Clone>(topo: T, ids: &[Id], seed: u64) -> PastNetwork<T> {
    let n = ids.len();
    PastNetwork::build(
        topo,
        small_pastry_cfg(),
        PastConfig::default(),
        seed,
        ids,
        &vec![64 << 20; n],
        &vec![1 << 30; n],
        BuildMode::ProtocolJoins,
    )
}

#[test]
fn static_and_joined_networks_agree_on_roots() {
    let n = 300;
    let seed = 3;
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let mut joined: PastrySim<NullApp, Sphere> =
        PastrySim::new(Sphere::new(n, seed), small_pastry_cfg(), seed);
    joined.build_by_joins(&ids, |_| NullApp, 8);
    let mut stat = past::pastry::static_build(
        Sphere::new(n, seed),
        small_pastry_cfg(),
        seed,
        &ids,
        |_| NullApp,
        2,
    );
    for _ in 0..120 {
        let key = Id(rng.random());
        let from = rng.random_range(0..n);
        joined.route(from, key, ());
        stat.route(from, key, ());
        let a = joined.drain_deliveries()[0].delivered_at;
        let b = stat.drain_deliveries()[0].delivered_at;
        assert_eq!(
            joined.handle(a).id,
            stat.handle(b).id,
            "both builds must deliver at the same root"
        );
    }
}

#[test]
fn end_to_end_latency_is_plausible() {
    // Client-perceived fetch latency must be bounded by a few network
    // round trips on the sphere (max one-way 120 ms).
    let n = 100;
    let seed = 4;
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let mut net = mk_boxed(Sphere::new(n, seed), &ids, seed);
    let content = ContentRef::from_bytes(b"latency probe");
    net.insert(0, "probe", content, 3).expect("quota");
    let events = net.run();
    let fid = events
        .iter()
        .find_map(|(_, _, e)| match e {
            PastOut::InsertOk { file_id, .. } => Some(*file_id),
            _ => None,
        })
        .expect("insert ok");
    for client in [10, 20, 30] {
        net.lookup(client, fid);
        for (at, _, e) in net.run() {
            if let PastOut::LookupOk { started_us, .. } = e {
                let ms = (at.as_micros() - started_us) as f64 / 1000.0;
                assert!(
                    ms < 1_500.0,
                    "client {client}: fetch took {ms} ms, absurd for this topology"
                );
                // Zero is legitimate: the client may serve itself from a
                // copy cached when the insert routed through it.
            }
        }
    }
}

#[test]
fn crypto_chain_is_exercised_end_to_end() {
    // With crypto checks ON, a receipts round-trip really verifies the
    // broker→card→certificate chain; spot-check by corrupting a broker
    // key mid-flight.
    let n = 25;
    let seed = 5;
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let mut net = mk_boxed(Sphere::new(n, seed), &ids, seed);
    assert!(net.past_cfg().crypto_checks);
    let content = ContentRef::from_bytes(b"signed all the way");
    net.insert(1, "signed", content, 3).expect("quota");
    let ok = net
        .run()
        .iter()
        .any(|(_, _, e)| matches!(e, PastOut::InsertOk { .. }));
    assert!(ok);

    // Flip the broker key on one storage node: it must now reject
    // everything it is asked to store.
    let victim = 7;
    net.sim.engine.node_mut(victim).app.broker_key =
        past::crypto::KeyPair::from_seed(b"other broker").public;
    let content2 = ContentRef::from_bytes(b"will be partially refused");
    net.insert(victim, "refused", content2, 1).expect("quota");
    let events = net.run();
    // The victim is also the client: with a wrong trust anchor it cannot
    // verify the store receipts, so the insert never confirms (no
    // InsertOk event) — the verification demonstrably ran.
    assert!(
        !events
            .iter()
            .any(|(_, a, e)| *a == victim && matches!(e, PastOut::InsertOk { .. })),
        "a client with the wrong broker key must not accept receipts"
    );
    assert!(
        net.sim.engine.node(victim).app.pending_insert_count() > 0
            || events
                .iter()
                .any(|(_, _, e)| matches!(e, PastOut::InsertFailed { .. })),
        "the insert stays unconfirmed or fails"
    );
}

#[test]
fn workload_generators_drive_realistic_fill() {
    use past::workload::{Capacities, FileSizes};
    let n = 40;
    let seed = 6;
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let caps = Capacities {
        mean_bytes: 2 << 20,
        spread: 3.0,
    }
    .sample_n(n, &mut rng);
    let mut net = PastNetwork::build(
        Sphere::new(n, seed),
        small_pastry_cfg(),
        PastConfig {
            crypto_checks: false,
            cache_enabled: false,
            default_k: 2,
            ..PastConfig::default()
        },
        seed,
        &ids,
        &caps,
        &vec![u64::MAX / 2; n],
        BuildMode::ProtocolJoins,
    );
    let sizes = FileSizes {
        max_bytes: 64 << 10,
        ..FileSizes::default()
    };
    let mut ok = 0;
    for i in 0..400 {
        let size = sizes.sample(&mut rng);
        let client = rng.random_range(0..n);
        let name = format!("fill-{i}");
        let content = ContentRef::synthetic(client, &name, size);
        if net.insert(client, &name, content, 2).is_ok() {
            for (_, _, e) in net.run() {
                if matches!(e, PastOut::InsertOk { .. }) {
                    ok += 1;
                }
            }
        }
    }
    let (_, _, util) = net.utilization();
    assert!(ok > 300, "most fills succeed: {ok}");
    assert!(util > 0.05, "utilization moved: {util}");
}

#[test]
fn baselines_and_pastry_route_the_same_keys() {
    use past::baselines::{CanSim, ChordSim};
    let n = 200;
    let seed = 7;
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let mut pastry = past::pastry::static_build(
        Sphere::new(n, seed),
        Config::default(),
        seed,
        &ids,
        |_| NullApp,
        2,
    );
    let mut chord = ChordSim::build(Sphere::new(n, seed), seed, &ids);
    let mut can = CanSim::build(Sphere::new(n, seed), seed, &ids, 2);
    for _ in 0..50 {
        let key = Id(rng.random());
        let from = rng.random_range(0..n);
        pastry.route(from, key, ());
        chord.lookup(from, key);
        can.lookup(from, key);
        assert_eq!(pastry.drain_deliveries().len(), 1);
        assert_eq!(chord.drain().len(), 1);
        assert_eq!(can.drain().len(), 1);
    }
}
