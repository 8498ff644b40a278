//! Differential equivalence tests: 1 shard vs N shards.
//!
//! The engine's determinism claim is shard-count independence: one
//! shard (run inline on the caller's thread) and N worker shards must
//! give the same run. The same 512-node lossy-churn overlay run —
//! protocol joins, faulty routes, churn, stabilization — must produce
//! identical overlay snapshots, NetStats, trace fingerprints, engine
//! fingerprints, deliveries, and clocks at 1 shard and at 4 shards.

use past_crypto::rng::Rng;
use past_netsim::{FaultConfig, SeriesConfig, ShardConfig, Sphere, TraceConfig};
use past_pastry::{populate_static, random_ids, Config, Id, NullApp, PastrySim};

const N: usize = 512;

/// Worker shards need a delay floor at least as wide as their window
/// (sealed-batch safety); 2 ms on a [`Sphere`] leaves the proximity
/// structure intact (points don't move, short links clamp).
const FLOOR_US: u64 = 2_000;

/// Runs the 512-node lossy-churn workload at `shards` workers and
/// returns the engine/overlay summary string plus the flight-recorder
/// series in its canonical (shard-diagnostic-free) serialization.
fn lossy_churn_run(shards: usize) -> (String, String) {
    let mut rng = Rng::seed_from_u64(9090);
    let ids = random_ids(N, &mut rng);
    let mut sim: PastrySim<NullApp, Sphere> = PastrySim::new_sharded(
        Sphere::with_delay_floor(N, 9090, FLOOR_US),
        Config::default(),
        9090,
        ShardConfig {
            shards,
            window_us: FLOOR_US,
        },
    )
    .expect("window == delay floor is safe");
    sim.engine.set_tracing(TraceConfig::full());
    sim.engine.set_series(SeriesConfig::new(1_000_000));
    sim.build_by_joins(&ids, |_| NullApp, 4);

    sim.engine.set_faults(
        FaultConfig {
            loss: 0.05,
            duplicate: 0.01,
            jitter_us: 20_000,
        },
        0xd1ff,
    );
    let mut key_rng = Rng::seed_from_u64(4242);
    let mut deliveries = String::new();
    let mut route = |sim: &mut PastrySim<NullApp, Sphere>, out: &mut String, routes: usize| {
        for _ in 0..routes {
            let key = Id(key_rng.random());
            let from = key_rng.random_range(0..N);
            sim.route(from, key, ());
            for rec in sim.drain_deliveries() {
                out.push_str(&format!(
                    "{}@{}+{};",
                    rec.delivered_at,
                    rec.at.as_micros(),
                    rec.hops
                ));
            }
        }
    };
    route(&mut sim, &mut deliveries, 300);
    for i in 0..24 {
        sim.engine.kill((i * 21 + 5) % N);
    }
    sim.stabilize();
    route(&mut sim, &mut deliveries, 200);

    let alive: Vec<usize> = (0..N).filter(|&a| sim.engine.is_alive(a)).collect();
    // The overlay snapshot Debug dump covers every leaf set and routing
    // table; hash it so assertion output stays readable on divergence.
    let snap_hash = past_trace::fnv1a(format!("{:?}", sim.snapshot_overlay()).as_bytes());
    let (total_msgs, total_bytes, dropped, duplicated, failed_sends) = {
        let st = sim.engine.stats();
        (
            st.total_msgs,
            st.total_bytes,
            st.dropped,
            st.duplicated,
            st.failed_sends,
        )
    };
    let tracer = sim.engine.take_tracer();
    let series = tracer.series().expect("series sampling was enabled");
    let summary = format!(
        "trace_fp={} series_fp={} engine_fp={} snapshot={} total_msgs={} total_bytes={} \
         dropped={} duplicated={} failed_sends={} now_us={} alive={} deliveries={}",
        tracer.fingerprint(),
        series.fingerprint(),
        sim.engine.fingerprint(),
        snap_hash,
        total_msgs,
        total_bytes,
        dropped,
        duplicated,
        failed_sends,
        sim.engine.now().as_micros(),
        alive.len(),
        deliveries,
    );
    (summary, series.canonical_lines())
}

#[test]
fn one_shard_and_four_shard_lossy_churn_runs_are_bit_identical() {
    let (one, one_series) = lossy_churn_run(1);
    assert!(
        !one.contains("dropped=0 "),
        "the fault layer must actually drop messages for this test to bite"
    );
    assert!(
        one.contains("deliveries=") && one.ends_with(';'),
        "routes must actually deliver"
    );
    let (four, four_series) = lossy_churn_run(4);
    assert_eq!(one, four, "1-shard and 4-shard overlay runs diverged");
    // The flight-recorder series must also be bit-identical window by
    // window: counters land at event times, engine gauges are sampled
    // at the global window minimum, so shard count must not leak into
    // a single canonical line (per-shard diagnostics are excluded by
    // construction).
    assert!(
        one_series.lines().count() > 10,
        "series must actually cover the run, got:\n{one_series}"
    );
    assert_eq!(
        one_series, four_series,
        "1-shard and 4-shard flight-recorder series diverged"
    );
}

/// The static builder is harness-side and draws only the harness RNG,
/// so the *constructed* overlay state (before any events run) must not
/// depend on the shard count.
#[test]
fn static_build_state_is_shard_count_independent() {
    let n = 256;
    let mut rng = Rng::seed_from_u64(2026);
    let ids = random_ids(n, &mut rng);
    let build = |shards: usize| {
        let mut sim: PastrySim<NullApp, Sphere> = PastrySim::new_sharded(
            Sphere::with_delay_floor(n, 7, FLOOR_US),
            Config::default(),
            2026,
            ShardConfig {
                shards,
                window_us: FLOOR_US,
            },
        )
        .expect("window == delay floor is safe");
        populate_static(&mut sim, &ids, |_| NullApp, 3);
        sim
    };
    let (one, four) = (build(1), build(4));
    assert_eq!(
        format!("{:?}", one.snapshot_overlay()),
        format!("{:?}", four.snapshot_overlay()),
        "built overlay state diverged across shard counts"
    );
    // Addresses are stable and dense across the build.
    for a in 0..n {
        assert_eq!(one.handle(a).addr, a);
        assert_eq!(four.handle(a).addr, a);
    }
}
