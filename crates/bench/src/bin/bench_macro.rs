//! `bench_macro` — the end-to-end simulator benchmark, published as
//! `BENCH_macro.json` at the repository root.
//!
//! One run builds a 10 000-node Pastry overlay with the static builder on
//! the sphere topology, routes 10 000 seeded keys through it, then kills
//! 5 % of the nodes and runs a stabilize round — the three phases every
//! large experiment in EXPERIMENTS.md is built from. Wall-clock time per
//! phase plus the simulation's own counters (hops, messages, bytes) give
//! future PRs a macro-level perf trajectory; the counters double as a
//! coarse determinism check (same seed ⇒ same counters on any machine).
//!
//! Usage: `cargo run --release -p past-bench --bin bench_macro --
//! [--smoke] [--nodes N] [--shards K] [--out PATH]`. `--smoke` shrinks
//! the route count so CI can assert the binary runs and emits valid
//! JSON quickly; `--nodes N` overrides the network size independently,
//! so `--nodes 100000 --smoke` is the CI scale gate (big overlay, few
//! routes) and `--nodes 1000000` (no `--smoke`) is the EXPERIMENTS.md
//! million-node run. `--shards K` (default 1, run inline) runs the
//! overlay on K engine shards, K worker threads over a delay-floored
//! sphere when K > 1; the run is then repeated at 1 shard on the same
//! sphere to measure the churn-phase speedup and to assert the two
//! runs' simulation counters are identical — shard-count independence
//! measured in anger, not just in unit tests.

use past_bench::json;
use past_crypto::rng::Rng;
use past_netsim::{SeriesConfig, ShardConfig, Sphere, Topology};
use past_pastry::{populate_static, random_ids, Config, Id, NullApp, PastrySim};
use std::time::Instant;

/// Delay floor (and shard window) for `--shards K > 1` runs: a window
/// may not exceed the minimum delay, `Sphere::new` has a 1 µs floor,
/// and 1 µs windows would cost worker shards one barrier round per
/// microsecond, so multi-shard runs clamp short links to 5 ms.
/// One-shard runs keep the un-floored sphere so historical numbers stay
/// comparable.
const SHARD_FLOOR_US: u64 = 5_000;

/// Flight-recorder window for `--series` runs: one simulated second.
const SERIES_WINDOW_US: u64 = 1_000_000;

struct Phase {
    name: &'static str,
    wall_ms: f64,
}

/// Seeded simulation counters; identical across shard counts for the
/// same topology and seeds.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    delivered: u64,
    total_hops: u64,
    route_msgs: u64,
    route_bytes: u64,
    total_msgs: u64,
    total_bytes: u64,
    final_us: u64,
}

/// Phases 2 and 3 (routes, churn + stabilize) on an already-built
/// overlay.
fn routes_and_churn(
    sim: &mut PastrySim<NullApp, Sphere>,
    n: usize,
    routes: usize,
    kills: usize,
    phases: &mut Vec<Phase>,
) -> Counters {
    // Phase 2: routes.
    let mut key_rng = Rng::seed_from_u64(42);
    let t = Instant::now();
    let mut delivered = 0u64;
    let mut total_hops = 0u64;
    for _ in 0..routes {
        let key = Id(key_rng.random());
        let from = key_rng.random_range(0..n);
        sim.route(from, key, ());
        for rec in sim.drain_deliveries() {
            delivered += 1;
            total_hops += rec.hops as u64;
        }
    }
    phases.push(Phase {
        name: "routes",
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    });
    let (route_msgs, route_bytes) = {
        let st = sim.engine.stats();
        (st.total_msgs, st.total_bytes)
    };

    // Phase 3: churn + stabilize.
    let t = Instant::now();
    for i in 0..kills {
        // Spread the failures deterministically across the address space.
        sim.engine.kill((i * 19 + 7) % n);
    }
    sim.stabilize();
    phases.push(Phase {
        name: "churn_stabilize",
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    });

    let (total_msgs, total_bytes) = {
        let st = sim.engine.stats();
        (st.total_msgs, st.total_bytes)
    };
    Counters {
        delivered,
        total_hops,
        route_msgs,
        route_bytes,
        total_msgs,
        total_bytes,
        final_us: sim.engine.now().as_micros(),
    }
}

/// One full run (build, routes, churn) over `topo` on `shards` engine
/// shards. With `series` the flight recorder samples the run
/// (observation only: counters are unaffected) and its
/// `past-series/v1` document is returned.
fn run(
    topo: Sphere,
    routes: usize,
    kills: usize,
    shards: usize,
    series: bool,
) -> (Vec<Phase>, Counters, Option<String>) {
    let n = topo.len();
    let mut rng = Rng::seed_from_u64(2001);
    let ids = random_ids(n, &mut rng);
    let mut phases = Vec::new();
    let t = Instant::now();
    let window_us = topo.min_delay_us();
    let mut sim = PastrySim::new_sharded(
        topo,
        Config::default(),
        2001,
        ShardConfig { shards, window_us },
    )
    .expect("window equals the minimum delay, so the build is sound");
    populate_static(&mut sim, &ids, |_| NullApp, 3);
    phases.push(Phase {
        name: "static_build",
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    });
    if series {
        sim.engine.set_series(SeriesConfig::new(SERIES_WINDOW_US));
    }
    let counters = routes_and_churn(&mut sim, n, routes, kills, &mut phases);
    let series_doc = if series {
        sim.engine.take_tracer().series().map(|s| s.to_json())
    } else {
        None
    };
    (phases, counters, series_doc)
}

fn main() {
    let mut smoke = false;
    let mut nodes: Option<usize> = None;
    let mut shards = 1;
    let mut series: Option<String> = None;
    let mut out = format!("{}/../../BENCH_macro.json", env!("CARGO_MANIFEST_DIR"));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--nodes" => {
                let v = args.next().expect("--nodes needs a count");
                nodes = Some(v.parse().expect("--nodes must be an integer"));
            }
            "--shards" => {
                let v = args.next().expect("--shards needs a count");
                shards = v.parse().expect("--shards must be an integer");
            }
            "--out" => out = args.next().expect("--out needs a path"),
            "--series" => series = Some(args.next().expect("--series needs a path")),
            other => {
                panic!(
                    "unknown flag {other}; supported: --smoke, --nodes N, --shards K, \
                     --out PATH, --series PATH"
                )
            }
        }
    }
    let (mut n, routes) = if smoke { (300, 200) } else { (10_000, 10_000) };
    if let Some(v) = nodes {
        assert!(v > 0, "--nodes must be positive");
        n = v;
    }
    assert!(shards > 0, "--shards must be positive");
    let kills = n / 20;

    let (phases, counters, series_doc) = if shards == 1 {
        run(Sphere::new(n, 2001), routes, kills, 1, series.is_some())
    } else {
        let floored = Sphere::with_delay_floor(n, 2001, SHARD_FLOOR_US);
        run(floored, routes, kills, shards, series.is_some())
    };
    let mut ref_churn_ms: Option<f64> = None;
    if shards > 1 {
        // In-process 1-shard reference: same topology, same seeds, run
        // inline (no series: sampling is observation only, so the
        // counter comparison also checks that an instrumented run
        // equals an uninstrumented one). Its counters must be
        // bit-identical (shard-count independence); its churn wall
        // time is the speedup baseline.
        let floored = Sphere::with_delay_floor(n, 2001, SHARD_FLOOR_US);
        let (ref_phases, ref_counters, _) = run(floored, routes, kills, 1, false);
        assert_eq!(
            counters, ref_counters,
            "{shards}-shard and 1-shard runs must produce identical counters"
        );
        ref_churn_ms = ref_phases
            .iter()
            .find(|p| p.name == "churn_stabilize")
            .map(|p| p.wall_ms);
    }

    let mut doc = json::Obj::new()
        .str("schema", "past-bench/v1")
        .str("bench", "macro")
        .str("mode", if smoke { "smoke" } else { "full" })
        .int("nodes", n as u64)
        .int("routes", routes as u64)
        .int("kills", kills as u64)
        .int("shards", shards as u64)
        .raw(
            "phases",
            &json::array(phases.iter().map(|p| {
                json::Obj::new()
                    .str("name", p.name)
                    .num("wall_ms", p.wall_ms)
                    .build()
            })),
        )
        .raw(
            "sim",
            &json::Obj::new()
                .int("delivered", counters.delivered)
                .num(
                    "mean_hops",
                    counters.total_hops as f64 / counters.delivered.max(1) as f64,
                )
                .int("route_msgs", counters.route_msgs)
                .int("route_bytes", counters.route_bytes)
                .int("total_msgs", counters.total_msgs)
                .int("total_bytes", counters.total_bytes)
                .int("final_us", counters.final_us)
                .build(),
        );
    if let Some(ref_ms) = ref_churn_ms {
        let churn_ms = phases
            .iter()
            .find(|p| p.name == "churn_stabilize")
            .map(|p| p.wall_ms)
            .unwrap_or(0.0);
        doc = doc
            .num("churn_stabilize_1shard_ms", ref_ms)
            .num("churn_speedup", ref_ms / churn_ms.max(f64::MIN_POSITIVE));
    }
    let doc = doc.build();
    json::validate(&doc).expect("bench output must be valid JSON");
    std::fs::write(&out, format!("{doc}\n")).expect("write bench output");
    if let Some(series_path) = &series {
        let sdoc = series_doc.expect("series was enabled, so the tracer must carry one");
        json::validate(&sdoc).expect("series output must be valid JSON");
        std::fs::write(series_path, format!("{sdoc}\n")).expect("write series output");
        println!("wrote {series_path}");
    }
    for p in &phases {
        println!("{:<16} {:10.1} ms", p.name, p.wall_ms);
    }
    if let Some(ref_ms) = ref_churn_ms {
        let churn_ms = phases
            .iter()
            .find(|p| p.name == "churn_stabilize")
            .map(|p| p.wall_ms)
            .unwrap_or(0.0);
        println!(
            "churn 1-shard ref {ref_ms:8.1} ms (speedup {:.2}x, counters identical)",
            ref_ms / churn_ms.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "routes delivered {}, mean hops {:.3}",
        counters.delivered,
        counters.total_hops as f64 / counters.delivered.max(1) as f64
    );
    println!("wrote {out}");
}
