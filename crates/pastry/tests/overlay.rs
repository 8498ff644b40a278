//! End-to-end overlay tests: protocol joins, routing correctness against
//! ground truth, failure recovery, and the static builder.

use past_crypto::rng::Rng;
use past_netsim::Sphere;
use past_pastry::{random_ids, static_build, Behavior, Config, Id, NullApp, PastrySim};

fn small_cfg() -> Config {
    Config {
        leaf_len: 8,
        neighborhood_len: 8,
        ..Config::default()
    }
}

fn build_network(n: usize, seed: u64, cfg: Config) -> PastrySim<NullApp, Sphere> {
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let topo = Sphere::new(n, seed);
    let mut sim = PastrySim::new(topo, cfg, seed);
    sim.build_by_joins(&ids, |_| NullApp, 8);
    sim
}

#[test]
fn joins_complete_and_fill_leaf_sets() {
    let n = 60;
    let sim = build_network(n, 11, small_cfg());
    for a in 0..n {
        let node = sim.engine.node(a);
        assert!(node.joined, "node {a} failed to join");
        assert_eq!(
            node.state.leaf.len(),
            small_cfg().leaf_len,
            "node {a} leaf set underfull"
        );
    }
}

#[test]
fn routes_reach_the_numerically_closest_node() {
    let n = 80;
    let mut sim = build_network(n, 13, small_cfg());
    let mut rng = Rng::seed_from_u64(99);
    let mut checked = 0;
    for _ in 0..200 {
        let key = Id(rng.random());
        let from = rng.random_range(0..n);
        sim.route(from, key, ());
        let recs = sim.drain_deliveries();
        assert_eq!(recs.len(), 1, "exactly one delivery per route");
        let rec = recs[0];
        let root = sim.true_root(&key).unwrap();
        assert_eq!(
            rec.delivered_at, root.addr,
            "key {key} delivered at {} but true root is {}",
            rec.delivered_at, root.addr
        );
        checked += 1;
    }
    assert_eq!(checked, 200);
}

#[test]
fn hop_count_is_logarithmic() {
    let n = 100;
    let mut sim = build_network(n, 17, small_cfg());
    let mut rng = Rng::seed_from_u64(5);
    let mut total_hops = 0u64;
    let trials = 150;
    for _ in 0..trials {
        let key = Id(rng.random());
        let from = rng.random_range(0..n);
        sim.route(from, key, ());
        let recs = sim.drain_deliveries();
        total_hops += recs[0].hops as u64;
    }
    let avg = total_hops as f64 / trials as f64;
    // ceil(log16(100)) = 2; the paper's bound is "less than ceil(log_2^b N)"
    // on average. Allow generous slack for the small network.
    assert!(avg <= 2.5, "average hops {avg} too high for n={n}");
    assert!(avg >= 0.5, "average hops {avg} suspiciously low");
}

#[test]
fn routing_survives_node_failures_after_stabilize() {
    let n = 60;
    let cfg = small_cfg();
    let mut sim = build_network(n, 19, cfg);
    // Kill 10% of nodes (but never node 0, our probe origin).
    let mut rng = Rng::seed_from_u64(7);
    let mut killed = std::collections::HashSet::new();
    while killed.len() < n / 10 {
        let v = rng.random_range(1..n);
        if killed.insert(v) {
            sim.engine.kill(v);
        }
    }
    // Repair through heartbeats.
    sim.stabilize();
    sim.stabilize();
    // All routes must still complete, at a live node.
    for _ in 0..100 {
        let key = Id(rng.random());
        sim.route(0, key, ());
        let recs = sim.drain_deliveries();
        assert_eq!(recs.len(), 1, "route lost after failures");
        assert!(
            sim.engine.is_alive(recs[0].delivered_at),
            "delivered at a dead node"
        );
        let root = sim.true_root(&key).unwrap();
        assert_eq!(recs[0].delivered_at, root.addr, "wrong root after repair");
    }
}

#[test]
fn in_flight_routes_are_rerouted_around_dead_nodes() {
    let n = 60;
    let mut sim = build_network(n, 23, small_cfg());
    let mut rng = Rng::seed_from_u64(3);
    // Kill nodes *without* stabilizing: messages must be re-routed via
    // the send-failure path.
    for _ in 0..6 {
        let v = rng.random_range(1..n);
        sim.engine.kill(v);
    }
    let mut delivered = 0;
    for _ in 0..60 {
        let key = Id(rng.random());
        sim.route(0, key, ());
        let recs = sim.drain_deliveries();
        if let Some(rec) = recs.first() {
            assert!(sim.engine.is_alive(rec.delivered_at));
            delivered += 1;
        }
    }
    assert_eq!(delivered, 60, "all routes should eventually deliver");
}

#[test]
fn static_build_routes_correctly() {
    let n = 500;
    let mut rng = Rng::seed_from_u64(31);
    let ids = random_ids(n, &mut rng);
    let topo = Sphere::new(n, 31);
    let mut sim = static_build(topo, Config::default(), 31, &ids, |_| NullApp, 4);
    for _ in 0..200 {
        let key = Id(rng.random());
        let from = rng.random_range(0..n);
        sim.route(from, key, ());
        let recs = sim.drain_deliveries();
        assert_eq!(recs.len(), 1);
        let root = sim.true_root(&key).unwrap();
        assert_eq!(recs[0].delivered_at, root.addr);
    }
}

#[test]
fn static_build_hops_scale_logarithmically() {
    let mut results = Vec::new();
    for (n, seed) in [(256usize, 41u64), (2048, 43)] {
        let mut rng = Rng::seed_from_u64(seed);
        let ids = random_ids(n, &mut rng);
        let topo = Sphere::new(n, seed);
        let mut sim = static_build(topo, Config::default(), seed, &ids, |_| NullApp, 2);
        let mut hops = 0u64;
        let trials = 300;
        for _ in 0..trials {
            let key = Id(rng.random());
            let from = rng.random_range(0..n);
            sim.route(from, key, ());
            hops += sim.drain_deliveries()[0].hops as u64;
        }
        results.push(hops as f64 / trials as f64);
    }
    let bound_256 = (256f64).log(16.0).ceil();
    let bound_2048 = (2048f64).log(16.0).ceil();
    assert!(
        results[0] <= bound_256,
        "avg hops {} exceeds paper bound {bound_256} at n=256",
        results[0]
    );
    assert!(
        results[1] <= bound_2048,
        "avg hops {} exceeds paper bound {bound_2048} at n=2048",
        results[1]
    );
    assert!(results[1] > results[0], "hops should grow with n");
}

#[test]
fn malicious_nodes_block_deterministic_routes_but_not_randomized() {
    let n = 120;
    let cfg = small_cfg();
    let mut sim = build_network(n, 47, cfg);
    let mut rng = Rng::seed_from_u64(8);

    // Pick a key whose deterministic route from node 0 has an intermediate
    // hop; make that hop malicious.
    let mut key = Id(rng.random());
    loop {
        sim.route(0, key, ());
        let recs = sim.drain_deliveries();
        if recs[0].hops >= 2 {
            break;
        }
        key = Id(rng.random());
    }
    // Find the first hop (the node 0 forwards to) by asking its state.
    let first_hop = {
        let state = &sim.engine.node(0).state;
        match past_pastry::next_hop(state, &key, &mut Rng::seed_from_u64(0)) {
            past_pastry::NextHop::Forward(h) => h.addr,
            _ => panic!("expected a forward"),
        }
    };
    sim.engine.node_mut(first_hop).behavior = Behavior::DropRoutes;

    // Deterministic retries keep taking the same bad path.
    let mut det_delivered = 0;
    for _ in 0..5 {
        sim.route(0, key, ());
        det_delivered += sim.drain_deliveries().len();
    }
    assert_eq!(
        det_delivered, 0,
        "deterministic routing cannot avoid the bad node"
    );

    // Randomized retries eventually get around it.
    for a in 0..n {
        sim.engine.node_mut(a).state.cfg.route_randomization = 0.5;
    }
    let mut rand_delivered = 0;
    for _ in 0..20 {
        sim.route(0, key, ());
        rand_delivered += sim.drain_deliveries().len();
    }
    assert!(
        rand_delivered > 0,
        "randomized routing should route around the malicious node"
    );
}

#[test]
fn deterministic_replay_of_whole_network() {
    let build_and_fingerprint = || {
        let mut sim = build_network(40, 53, small_cfg());
        let mut rng = Rng::seed_from_u64(1);
        let mut fp = 0u64;
        for _ in 0..50 {
            let key = Id(rng.random());
            sim.route(rng.random_range(0..40), key, ());
            for rec in sim.drain_deliveries() {
                fp = fp
                    .wrapping_mul(31)
                    .wrapping_add(rec.hops as u64)
                    .wrapping_add(rec.path_us);
            }
        }
        (fp, sim.engine.stats().total_msgs)
    };
    assert_eq!(build_and_fingerprint(), build_and_fingerprint());
}

#[test]
fn join_cost_scales_logarithmically() {
    // Count protocol messages consumed by a single join at two sizes.
    let mut msgs = Vec::new();
    for (n, seed) in [(64usize, 61u64), (512, 67)] {
        let mut rng = Rng::seed_from_u64(seed);
        let ids = random_ids(n + 1, &mut rng);
        let topo = Sphere::new(n + 1, seed);
        let mut sim = static_build(topo, small_cfg(), seed, &ids[..n], |_| NullApp, 2);
        let before = sim.engine.stats().total_msgs;
        sim.join_node_nearby(ids[n], NullApp, 8);
        msgs.push(sim.engine.stats().total_msgs - before);
    }
    // Join cost grows slowly (log-ish): 8x the nodes should cost far less
    // than 8x the messages.
    assert!(msgs[1] < msgs[0] * 4, "join cost grew too fast: {msgs:?}");
    assert!(msgs[0] > 0);
}

#[test]
fn recovered_nodes_rejoin_the_ring() {
    let n = 60;
    let mut sim = build_network(n, 71, small_cfg());
    let mut rng = Rng::seed_from_u64(4);
    // Fail a node, repair the ring around it.
    let victim = 17;
    sim.engine.kill(victim);
    sim.stabilize();
    sim.stabilize();
    // Recover: the node re-contacts its last-known leaf set.
    let contacted = sim.recover_node(victim);
    assert!(contacted > 0, "recovery must contact the old leaf set");
    sim.stabilize();
    // The recovered node is routable again: keys closest to its id land
    // on it.
    let vid = sim.handle(victim).id;
    for _ in 0..20 {
        let key = past_pastry::Id(vid.0.wrapping_add(rng.random_range(0..1024)));
        if sim.true_root(&key).unwrap().addr != victim {
            continue;
        }
        sim.route(0, key, ());
        let recs = sim.drain_deliveries();
        assert_eq!(
            recs[0].delivered_at, victim,
            "recovered node serves its keys"
        );
    }
    // And its leaf set is healthy again.
    assert_eq!(
        sim.engine.node(victim).state.leaf.len(),
        small_cfg().leaf_len
    );
}

#[test]
fn paper_typical_config_works() {
    // b=4, l=32, M=32 — the HotOS paper's "typical values".
    let n = 120;
    let cfg = Config::paper_typical();
    let mut rng = Rng::seed_from_u64(81);
    let ids = random_ids(n, &mut rng);
    let topo = Sphere::new(n, 81);
    let mut sim = PastrySim::new(topo, cfg, 81);
    sim.build_by_joins(&ids, |_| NullApp, 8);
    for _ in 0..100 {
        let key = Id(rng.random());
        let from = rng.random_range(0..n);
        sim.route(from, key, ());
        let recs = sim.drain_deliveries();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].delivered_at, sim.true_root(&key).unwrap().addr);
    }
    // With l=32, each node's leaf set holds 32 members.
    for a in 0..n {
        assert_eq!(sim.engine.node(a).state.leaf.len(), 32);
    }
}

#[test]
fn routing_works_on_all_topologies() {
    use past_netsim::{Plane, TransitStub, UniformRandom};
    let n = 100;
    let mut rng = Rng::seed_from_u64(91);
    let ids = random_ids(n, &mut rng);

    fn check<T: past_netsim::Topology + Clone>(topo: T, ids: &[past_pastry::Id], seed: u64) {
        let n = ids.len();
        let mut sim = PastrySim::new(
            topo,
            Config {
                leaf_len: 8,
                neighborhood_len: 8,
                ..Config::default()
            },
            seed,
        );
        sim.build_by_joins(ids, |_| NullApp, 8);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..60 {
            let key = Id(rng.random());
            let from = rng.random_range(0..n);
            sim.route(from, key, ());
            let recs = sim.drain_deliveries();
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].delivered_at, sim.true_root(&key).unwrap().addr);
        }
    }
    check(Plane::new(n, 91, 60_000), &ids, 91);
    check(TransitStub::new(n, 92, 4, 4), &ids, 92);
    check(UniformRandom::new(n, 93, 500, 90_000), &ids, 93);
}

#[test]
fn b_one_and_b_eight_configurations_route() {
    // b is a free parameter; digit widths 1 and 8 exercise the extremes.
    for (b, seed) in [(1u8, 101u64), (8, 103)] {
        let n = 80;
        let cfg = Config {
            b,
            leaf_len: 8,
            neighborhood_len: 8,
            ..Config::default()
        };
        let mut rng = Rng::seed_from_u64(seed);
        let ids = random_ids(n, &mut rng);
        let mut sim = PastrySim::new(Sphere::new(n, seed), cfg, seed);
        sim.build_by_joins(&ids, |_| NullApp, 8);
        for _ in 0..50 {
            let key = Id(rng.random());
            let from = rng.random_range(0..n);
            sim.route(from, key, ());
            let recs = sim.drain_deliveries();
            assert_eq!(recs.len(), 1, "b={b}");
            assert_eq!(
                recs[0].delivered_at,
                sim.true_root(&key).unwrap().addr,
                "b={b}: wrong root"
            );
        }
    }
}

#[test]
fn leaf_and_table_invariants_hold_through_churn() {
    use past_invariants::{assert_clean, check_overlay};
    let n = 50;
    let mut sim = build_network(
        n,
        117,
        Config {
            leaf_len: 16,
            neighborhood_len: 8,
            ..Config::default()
        },
    );
    assert_clean("after bulk join", &check_overlay(&sim.snapshot_overlay()));

    // Fail 5 nodes and repair through heartbeats.
    for a in 30..35 {
        sim.engine.kill(a);
    }
    sim.stabilize();
    sim.stabilize();
    assert_clean("after failures", &check_overlay(&sim.snapshot_overlay()));

    // Two of them come back with their old state.
    sim.recover_node(30);
    sim.recover_node(31);
    sim.stabilize();
    assert_clean("after recovery", &check_overlay(&sim.snapshot_overlay()));
}

#[test]
fn recovery_reaches_neighbors_beyond_the_stale_leaf_set() {
    use past_invariants::{assert_clean, check_overlay};
    // Regression: a node that dies together with its nearest smaller-side
    // neighbor revives with a leaf set that never contained the node just
    // beyond that neighbor — yet after the buddy's death that node is a
    // true ring neighbor and must learn of the revival (I1 symmetry).
    let n = 60;
    let mut sim = build_network(n, 71, small_cfg());
    let victim = 17;
    let buddy = {
        let snap = sim.snapshot_overlay();
        let v = snap.nodes.iter().find(|nd| nd.addr == victim).unwrap();
        v.leaf_smaller[0].addr
    };
    sim.engine.kill(victim);
    sim.engine.kill(buddy);
    sim.stabilize();
    sim.stabilize();
    sim.recover_node(victim);
    sim.stabilize();
    assert_clean(
        "after masked recovery",
        &check_overlay(&sim.snapshot_overlay()),
    );
}
