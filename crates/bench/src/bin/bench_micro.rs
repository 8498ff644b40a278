//! `bench_micro` — microbenchmarks of the hot primitives, published as
//! `BENCH_micro.json` at the repository root.
//!
//! Covers the crypto layer (hashing, Schnorr sign/verify and the modular
//! reduction under them), PAST certificates and the cache, Pastry
//! identifier arithmetic, the routing step, routing-state maintenance and
//! a whole route on a 10k-node overlay, and the simulator engine /
//! topology proximity queries. Successive PRs regenerate the file,
//! leaving a perf trajectory.
//!
//! Usage: `cargo run --release -p past-bench --bin bench_micro --
//! [--smoke] [--out PATH]`. `--smoke` shrinks the measurement budget to a
//! fraction of a second (CI asserts the binary runs and emits valid
//! JSON; timings in smoke mode are meaningless).

use past_bench::{json, Bench, Measurement};
use past_core::cache::Cache;
use past_core::{Broker, ContentRef};
use past_crypto::modmath::{mulmod, powmod};
use past_crypto::rng::Rng;
use past_crypto::sha1::sha1;
use past_crypto::sha256::sha256;
use past_crypto::u256::U256;
use past_crypto::KeyPair;
use past_netsim::{Addr, Ctx, Engine, Message, NodeLogic, Plane, Sphere, Topology, UniformRandom};
use past_pastry::{
    next_hop, random_ids, static_build, Config, Id, NodeHandle, NullApp, PastryState,
};
use std::hint::black_box;

/// A toy protocol for timing the engine's event loop: every Ping is
/// answered with a Ping back, so one injected message keeps a pair of
/// nodes exchanging events until the hop budget runs out.
#[derive(Clone)]
struct Ping {
    hops_left: u32,
}

impl Message for Ping {
    const KINDS: &'static [&'static str] = &["ping"];

    fn kind_id(&self) -> usize {
        0
    }
}

struct PingNode;

impl NodeLogic for PingNode {
    type Msg = Ping;
    type Out = ();

    fn on_message(&mut self, from: Addr, msg: Ping, ctx: &mut Ctx<'_, Ping, ()>) {
        if msg.hops_left > 0 {
            ctx.send(
                from,
                Ping {
                    hops_left: msg.hops_left - 1,
                },
            );
        }
    }
}

fn bench_crypto(b: &mut Bench) {
    b.group("crypto/hash");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xabu8; size];
        b.run_bytes(&format!("sha256/{size}"), size as u64, || {
            black_box(sha256(black_box(&data)))
        });
        b.run_bytes(&format!("sha1/{size}"), size as u64, || {
            black_box(sha1(black_box(&data)))
        });
    }

    b.group("crypto/schnorr");
    let kp = KeyPair::from_seed(b"bench");
    let msg = b"a store receipt-sized message for signing benchmarks";
    b.run("sign", || black_box(kp.sign(black_box(msg))));
    let sig = kp.sign(msg);
    b.run("verify", || {
        black_box(kp.public.verify(black_box(msg), black_box(&sig)))
    });

    b.group("crypto/modmath");
    let p = past_crypto::schnorr::group_p();
    let mut rng = Rng::seed_from_u64(3);
    let a = U256([rng.random(), rng.random(), rng.random(), 0]);
    let c = U256([rng.random(), rng.random(), rng.random(), 0]);
    let e = U256([rng.random(), rng.random(), rng.random(), 0]);
    b.run("mulmod", || {
        black_box(mulmod(black_box(&a), black_box(&c), black_box(&p)))
    });
    b.run("powmod", || {
        black_box(powmod(black_box(&a), black_box(&e), black_box(&p)))
    });
}

fn bench_past(b: &mut Bench) {
    b.group("past/certificates");
    let mut broker = Broker::new(b"bench");
    let content = ContentRef::synthetic(0, "bench", 1 << 20);
    let mut card = broker.issue_card(b"issuer", u64::MAX / 2, 0);
    let mut salt = 0u64;
    b.run("issue_file_certificate", || {
        salt += 1;
        black_box(
            card.issue_file_certificate("bench", &content, 3, salt, 0)
                .expect("quota"),
        )
    });
    let mut card2 = broker.issue_card(b"user2", u64::MAX / 2, 0);
    let cert = card2
        .issue_file_certificate("bench", &content, 3, 0, 0)
        .expect("quota");
    b.run("verify_file_certificate", || {
        black_box(cert.verify(black_box(&broker.public())))
    });

    b.group("past/cache");
    let mut broker = Broker::new(b"cache-bench");
    let mut card = broker.issue_card(b"u", u64::MAX / 2, 0);
    let certs: Vec<_> = (0..256u64)
        .map(|i| {
            let name = format!("c{i}");
            let content = ContentRef::synthetic(0, &name, 1 + (i * 37) % 10_000);
            card.issue_file_certificate(&name, &content, 1, i, 0)
                .expect("quota")
        })
        .collect();
    b.run("offer_evict_cycle", || {
        let mut cache = Cache::new();
        for cert in &certs {
            black_box(cache.offer(cert, 100_000));
        }
        cache.len()
    });
    let mut warm = Cache::new();
    for cert in &certs {
        warm.offer(cert, 1 << 30);
    }
    let probe = certs[17].file_id;
    b.run("lookup_hit", || black_box(warm.lookup(black_box(&probe))));
}

fn routing_state(n: usize, seed: u64, randomization: f64) -> PastryState {
    let mut cfg = Config::default();
    cfg.route_randomization = randomization;
    let mut rng = Rng::seed_from_u64(seed);
    let mut st = PastryState::new(cfg, NodeHandle::new(Id(rng.random()), 0));
    for i in 1..n {
        st.add_node(
            NodeHandle::new(Id(rng.random()), i),
            rng.random_range(1..50_000),
        );
    }
    st
}

fn bench_routing(b: &mut Bench) {
    b.group("pastry/id");
    let a = Id(0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978);
    let b_ = Id(0x0123_4567_89ab_cde0_0000_0000_0000_0000);
    b.run("prefix_len", || {
        black_box(black_box(a).prefix_len(black_box(&b_), 4))
    });
    b.run("ring_dist", || {
        black_box(black_box(a).ring_dist(black_box(&b_)))
    });
    b.run("digit", || black_box(black_box(a).digit(black_box(17), 4)));

    b.group("pastry/route");
    let st = routing_state(1_000, 7, 0.0);
    let mut key_rng = Rng::seed_from_u64(9);
    let mut step_rng = Rng::seed_from_u64(1);
    b.run("next_hop", || {
        let key = Id(key_rng.random());
        black_box(next_hop(&st, &key, &mut step_rng))
    });
    let st_rand = routing_state(1_000, 8, 0.5);
    b.run("next_hop_randomized", || {
        let key = Id(key_rng.random());
        black_box(next_hop(&st_rand, &key, &mut step_rng))
    });

    b.group("pastry/state");
    let mut rng = Rng::seed_from_u64(11);
    let base = routing_state(200, 12, 0.0);
    b.run("add_node", || {
        let mut st = base.clone();
        let h = NodeHandle::new(Id(rng.random()), 999);
        let d: u64 = rng.random_range(1..50_000);
        black_box(st.add_node(h, d));
    });
    let base2 = routing_state(200, 13, 0.0);
    b.run("remove_addr", || {
        let mut st = base2.clone();
        black_box(st.remove_addr(100));
    });

    b.group("pastry/end_to_end");
    let n = 10_000;
    let mut rng = Rng::seed_from_u64(21);
    let ids = random_ids(n, &mut rng);
    let mut sim = static_build(
        Sphere::new(n, 21),
        Config::default(),
        21,
        &ids,
        |_| NullApp,
        2,
    );
    b.run("route_10k_nodes", || {
        let key = Id(rng.random());
        let from = rng.random_range(0..n);
        sim.route(from, key, ());
        black_box(sim.drain_deliveries().len())
    });
}

fn bench_engine(b: &mut Bench) {
    b.group("netsim/engine");
    // 128 events per iteration: one injected ping bounces 127 times.
    let mut e = Engine::new(
        UniformRandom::new(2, 5, 10, 100),
        vec![PingNode, PingNode],
        5,
    );
    b.run("event_128", || {
        e.inject(0, 1, Ping { hops_left: 127 }, 0);
        black_box(e.run_until_quiet(1_000))
    });
}

fn bench_topology(b: &mut Bench) {
    b.group("netsim/topology");
    let n = 4_096;
    let sphere = Sphere::new(n, 17);
    let plane = Plane::new(n, 17, 60_000);
    // Repeat: a small working set of pairs, queried over and over — the
    // pattern routing and maintenance produce (same neighbors each time).
    let mut i = 0usize;
    b.run("sphere_delay_repeat", || {
        i = (i + 1) & 255;
        black_box(sphere.delay_us(i, (i * 7 + 1) & 255))
    });
    // Scan: a fresh pair nearly every call (static_build's sampling).
    let mut j = 0usize;
    b.run("sphere_delay_scan", || {
        j = (j + 1) & (n - 1);
        black_box(sphere.delay_us(j, (j * 2_467 + 1) & (n - 1)))
    });
    let mut k = 0usize;
    b.run("plane_delay_repeat", || {
        k = (k + 1) & 255;
        black_box(plane.delay_us(k, (k * 7 + 1) & 255))
    });
}

fn measurement_json(m: &Measurement) -> String {
    json::Obj::new()
        .str("name", &m.name)
        .num("median_ns", m.median_ns)
        .num("min_ns", m.min_ns)
        .int("iters_per_sample", m.iters_per_sample)
        .build()
}

fn main() {
    let mut smoke = false;
    let mut out = format!("{}/../../BENCH_micro.json", env!("CARGO_MANIFEST_DIR"));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            other => panic!("unknown flag {other}; supported: --smoke, --out PATH"),
        }
    }

    let mut b = Bench::new();
    if smoke {
        b.samples = 2;
        b.target_sample_ns = 200_000;
    }
    bench_crypto(&mut b);
    bench_past(&mut b);
    bench_routing(&mut b);
    bench_engine(&mut b);
    bench_topology(&mut b);

    let doc = json::Obj::new()
        .str("schema", "past-bench/v1")
        .str("bench", "micro")
        .str("mode", if smoke { "smoke" } else { "full" })
        .raw(
            "results",
            &json::array(b.results().iter().map(measurement_json)),
        )
        .build();
    json::validate(&doc).expect("bench output must be valid JSON");
    std::fs::write(&out, format!("{doc}\n")).expect("write bench output");
    println!("\nwrote {} ({} results)", out, b.results().len());
}
