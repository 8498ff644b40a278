//! The three workloads, and one measured pass over a fresh deployment.
//!
//! A pass builds the network and its set-up population, then runs the
//! workload's fixed, seed-derived script in a closed loop: issue one
//! operation, run the network until it is quiet, issue the next. Every
//! call into the system is wrapped in a span, so each operation's wall
//! time splits into client-side issuing (signing) and the drain that
//! delivers it. The simulated results of a pass depend on the seed
//! alone; `main` compares them across passes.

use crate::clock::Clock;
use past_core::{
    BuildMode, ContentRef, FileId, PastApp, PastConfig, PastEvent, PastNetwork, PastOut,
    PastSnapshot,
};
use past_crypto::rng::Rng;
use past_netsim::{Addr, FaultConfig, SeriesConfig, SimBackend, Sphere, TraceConfig};
use past_pastry::{random_ids, Config as PastryConfig, Id, RecoveryConfig};
use past_trace::TraceEvent;
use past_workload::{Capacities, FileSizes, Zipf};
use std::collections::{BTreeMap, BTreeSet};

pub type Net = PastNetwork<Sphere>;

/// Replication factor of every insert.
pub const K: u8 = 5;

/// Topology seats kept free for the per-layer join probe.
pub const PROBE_JOINS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WriteFill,
    ReadZipf,
    ChurnLossy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WriteFill,
        Workload::ReadZipf,
        Workload::ChurnLossy,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteFill => "write_fill",
            Workload::ReadZipf => "read_zipf",
            Workload::ChurnLossy => "churn_lossy",
        }
    }

    /// Why the workload exists: the layers it loads and the input
    /// property it has or lacks.
    pub fn why(self) -> &'static str {
        match self {
            Workload::WriteFill => {
                "writes under storage pressure: signing, storage accounting and the \
                 replica/file diversion paths do the work; owner credentials rarely repeat"
            }
            Workload::ReadZipf => {
                "Zipf reads by a few clients of a few publishers' files: route caching and \
                 repeated owner credentials get a chance to pay; storage does almost nothing"
            }
            Workload::ChurnLossy => {
                "churn waves under 1% loss: the engine, Pastry maintenance and k-set repair \
                 do the work; crypto is a small share"
            }
        }
    }

    fn nodes(self) -> usize {
        match self {
            // A pass inserts about 2,400 files. On 10,000 nodes that is
            // about one replica per node, far from any storage pressure;
            // the default acceptance threshold (a file may take a tenth
            // of a node's free space) needs dozens of files per node
            // before utilization climbs, so the fill runs on a network
            // small enough for one pass to reach the diversion regime.
            Workload::WriteFill => 150,
            Workload::ReadZipf | Workload::ChurnLossy => 10_000,
        }
    }
}

/// `write_fill`: operations per pass, mean node capacity, and fault-free
/// heartbeat rounds per pass.
const WF_OPS: usize = 4_000;
const WF_MEAN_CAPACITY: u64 = 1_200 << 10;
const WF_ROUNDS: usize = 10;

/// `read_zipf`: publishers, population, active clients, operations, and
/// heartbeat rounds per pass.
const RZ_PUBLISHERS: usize = 16;
const RZ_FILES: usize = 256;
const RZ_CLIENTS: usize = 32;
const RZ_OPS: usize = 14_000;
const RZ_ROUNDS: usize = 2;

/// `churn_lossy`: population, share of live nodes killed per wave (per
/// mille), stabilize rounds allowed for failure detection, burst size.
const CL_FILES: usize = 256;
const CL_KILL_PERMILLE: usize = 20;
const CL_DETECT_ROUNDS: usize = 4;
const CL_BURST: usize = 1_700;

/// Flight-recorder window of traced passes: one simulated second.
const SERIES_WINDOW_US: u64 = 1_000_000;

/// One recorded span of benchmark-side wall time.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same pass, if any.
    pub parent: Option<usize>,
    /// Client operation (1-based within the pass); 0 for maintenance.
    pub op: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Simulated results of one pass. Every field is a function of the
/// seed, so two passes of one workload and seed must compare equal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimSummary {
    pub attempted: u64,
    pub lookups: u64,
    /// Operations that never produced an outcome.
    pub unanswered: u64,
    /// Inserts refused for lack of storage: an explicit, correct answer.
    pub rejected: u64,
    /// Other operations that ended without what they asked for.
    pub failed: u64,
    pub insert_sim_us: Vec<u64>,
    pub lookup_sim_us: Vec<u64>,
    pub insert_attempts: u64,
    pub cache_hits: u64,
    pub lookups_ok: u64,
    /// Lookups whose (client, owner card) pair occurred earlier.
    pub credential_reuse: u64,
    pub msgs: u64,
    pub msgs_by_kind: Vec<(&'static str, u64)>,
    pub bytes: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub failed_sends: u64,
    pub waves: u64,
    pub utilization: f64,
    pub replicas: u64,
    pub diverted: u64,
}

impl SimSummary {
    /// Operations that failed, were refused, or got no answer.
    pub fn not_ok(&self) -> u64 {
        self.unanswered + self.rejected + self.failed
    }

    /// Share of operations that got what they asked for.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.not_ok()) as f64 / self.attempted as f64
    }

    pub fn answered(&self) -> u64 {
        self.attempted - self.unanswered
    }

    /// The results of two passes taken together: counts add, samples
    /// pool, and the final utilization is their mean.
    pub fn pooled(&self, other: &SimSummary) -> SimSummary {
        let cat = |a: &[u64], b: &[u64]| [a, b].concat();
        SimSummary {
            attempted: self.attempted + other.attempted,
            lookups: self.lookups + other.lookups,
            unanswered: self.unanswered + other.unanswered,
            rejected: self.rejected + other.rejected,
            failed: self.failed + other.failed,
            insert_sim_us: cat(&self.insert_sim_us, &other.insert_sim_us),
            lookup_sim_us: cat(&self.lookup_sim_us, &other.lookup_sim_us),
            insert_attempts: self.insert_attempts + other.insert_attempts,
            cache_hits: self.cache_hits + other.cache_hits,
            lookups_ok: self.lookups_ok + other.lookups_ok,
            credential_reuse: self.credential_reuse + other.credential_reuse,
            msgs: self.msgs + other.msgs,
            msgs_by_kind: self
                .msgs_by_kind
                .iter()
                .zip(&other.msgs_by_kind)
                .map(|(&(kind, a), &(_, b))| (kind, a + b))
                .collect(),
            bytes: self.bytes + other.bytes,
            dropped: self.dropped + other.dropped,
            duplicated: self.duplicated + other.duplicated,
            failed_sends: self.failed_sends + other.failed_sends,
            waves: self.waves + other.waves,
            utilization: (self.utilization + other.utilization) / 2.0,
            replicas: self.replicas + other.replicas,
            diverted: self.diverted + other.diverted,
        }
    }
}

/// Counters only a traced pass records.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceCounters {
    pub hops: Vec<u32>,
    pub suspicions: u64,
    pub retries: u64,
    pub repair_msgs: u64,
}

/// The deployment a pass leaves behind, for the per-layer probes.
pub struct Kept {
    pub net: Net,
    pub ids: Vec<Id>,
    pub initial_nodes: usize,
    pub slots: usize,
    pub next_id: usize,
    pub keys: Vec<Id>,
}

pub struct PassOut {
    pub traced: bool,
    pub setup_s: f64,
    pub spans: Vec<Span>,
    pub sim: SimSummary,
    pub counters: Option<TraceCounters>,
    /// Correctness-gate failures.
    pub gate: Vec<String>,
    pub kept: Option<Kept>,
}

impl PassOut {
    /// Wall time of the measured phase: every operation and wave span.
    pub fn measured_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.micros() / 1e6)
            .sum()
    }
}

pub fn pastry_cfg() -> PastryConfig {
    // l = 16 keeps k = 5 within l/2, so every k-set member sees the
    // whole k-set in its own leaf set.
    PastryConfig {
        leaf_len: 16,
        ..PastryConfig::default()
    }
}

fn past_cfg(w: Workload) -> PastConfig {
    match w {
        Workload::ChurnLossy => PastConfig {
            request_timeout_us: Some(800_000),
            request_attempts: 5,
            ..PastConfig::default()
        },
        _ => PastConfig::default(),
    }
}

/// Sizes of the `read_zipf` and `churn_lossy` files: uniform in
/// 16–112 KiB, so stored bytes, and with them `storage_util`, vary little
/// from seed to seed. `write_fill` keeps the heavy-tailed default.
fn flat_size(rng: &mut Rng) -> u64 {
    rng.random_range(16u64 << 10..=112 << 10)
}

struct FileRec {
    fid: FileId,
    owner: Addr,
}

struct Driver {
    w: Workload,
    net: Net,
    rng: Rng,
    origin: Clock,
    spans: Vec<Span>,
    sim: SimSummary,
    live: Vec<FileRec>,
    pairs: BTreeSet<(Addr, Addr)>,
    ids: Vec<Id>,
    next_id: usize,
    capacities: Capacities,
    next_name: u64,
    op: u64,
}

/// Runs one pass of `w` with `seed`. `keep` returns the final
/// deployment for the per-layer probes.
pub fn run_pass(w: Workload, seed: u64, traced: bool, keep: bool, origin: Clock) -> PassOut {
    let setup = Clock::start();
    let n = w.nodes();
    let joins = match w {
        Workload::ChurnLossy => n * CL_KILL_PERMILLE / 1000,
        _ => 0,
    };
    let slots = n + joins + PROBE_JOINS;
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(slots, &mut rng);
    let capacities = match w {
        Workload::WriteFill => Capacities {
            mean_bytes: WF_MEAN_CAPACITY,
            ..Capacities::default()
        },
        _ => Capacities::default(),
    };
    let caps = capacities.sample_n(n, &mut rng);
    let net = PastNetwork::build(
        Sphere::new(slots, seed),
        pastry_cfg(),
        past_cfg(w),
        seed,
        &ids[..n],
        &caps,
        &vec![u64::MAX / 4; n],
        BuildMode::Static,
    );
    let mut d = Driver {
        w,
        net,
        rng,
        origin,
        spans: Vec::new(),
        sim: SimSummary::default(),
        live: Vec::new(),
        pairs: BTreeSet::new(),
        ids,
        next_id: n,
        capacities,
        next_name: 0,
        op: 0,
    };
    if w == Workload::ChurnLossy {
        d.net.sim.set_recovery(RecoveryConfig::default());
        d.net.sim.engine.set_faults(
            FaultConfig {
                loss: 0.01,
                duplicate: 0.01,
                jitter_us: 20_000,
            },
            seed ^ 0xfa17,
        );
    }
    d.net.run();
    d.populate();
    d.sim = SimSummary::default();
    d.pairs.clear();
    d.spans.clear();
    d.op = 0;
    let setup_s = setup.secs();

    if traced {
        d.net.sim.engine.set_tracing(TraceConfig::lifecycle());
        d.net
            .sim
            .engine
            .set_series(SeriesConfig::new(SERIES_WINDOW_US));
    }
    let before = d.net.sim.engine.stats().clone();
    match w {
        Workload::WriteFill => d.write_fill(),
        Workload::ReadZipf => d.read_zipf(),
        Workload::ChurnLossy => {
            d.churn_wave();
            d.churn_burst();
        }
    }
    let after = d.net.sim.engine.stats();
    d.sim.msgs = after.total_msgs - before.total_msgs;
    d.sim.bytes = after.total_bytes - before.total_bytes;
    d.sim.dropped = after.dropped - before.dropped;
    d.sim.duplicated = after.duplicated - before.duplicated;
    d.sim.failed_sends = after.failed_sends - before.failed_sends;
    d.sim.msgs_by_kind = after
        .by_kind()
        .zip(before.by_kind())
        .map(|((kind, a), (_, b))| (kind, a - b))
        .collect();
    d.sim.utilization = d.net.utilization().2;
    let counters = traced.then(|| d.take_counters());

    let snap = d.net.snapshot();
    for f in snap.stores.iter().flat_map(|s| &s.files) {
        d.sim.replicas += 1;
        d.sim.diverted += u64::from(f.diverted);
    }
    let gate = d.gate(&snap);
    let kept = keep.then(|| Kept {
        keys: d.live.iter().map(|f| f.fid.routing_id()).collect(),
        net: d.net,
        ids: d.ids,
        initial_nodes: n,
        slots,
        next_id: d.next_id,
    });
    PassOut {
        traced,
        setup_s,
        spans: d.spans,
        sim: d.sim,
        counters,
        gate,
        kept,
    }
}

impl Driver {
    fn now_ns(&self) -> u64 {
        self.origin.ns()
    }

    /// Records a maintenance span (op 0) ending now.
    fn span(&mut self, name: &'static str, start_ns: u64) -> usize {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op: 0,
        });
        self.spans.len() - 1
    }

    /// Re-parents the spans recorded since index `from` under `parent`.
    fn adopt(&mut self, from: usize, parent: usize) {
        for s in &mut self.spans[from..parent] {
            if s.parent.is_none() {
                s.parent = Some(parent);
            }
        }
    }

    /// Issues one client operation and runs the network until quiet,
    /// recording the operation span with its issue and drain children.
    fn timed<R>(
        &mut self,
        names: [&'static str; 3],
        issue: impl FnOnce(&mut Net) -> R,
    ) -> (R, Vec<PastEvent>) {
        self.op += 1;
        self.sim.attempted += 1;
        let t0 = self.now_ns();
        let r = issue(&mut self.net);
        let t1 = self.now_ns();
        let events = self.net.run();
        let t2 = self.now_ns();
        let op = self.op;
        let base = self.spans.len();
        for (name, start_ns, end_ns, parent) in [
            (names[0], t0, t2, None),
            (names[1], t0, t1, Some(base)),
            (names[2], t1, t2, Some(base)),
        ] {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op,
            });
        }
        (r, events)
    }

    fn new_name(&mut self) -> String {
        self.next_name += 1;
        format!("{}-{}", self.w.name(), self.next_name)
    }

    fn insert(&mut self, client: Addr, size: u64) {
        let name = self.new_name();
        let content = ContentRef::synthetic(client, &name, size);
        let issued_us = self.net.sim.engine.now().as_micros();
        let (res, events) = self.timed(
            ["op.insert", "core.issue.insert", "core.drain.insert"],
            |net| net.insert(client, &name, content, K),
        );
        let Ok(req) = res else {
            self.sim.failed += 1;
            return;
        };
        let outcome = events.iter().find_map(|(t, a, e)| match e {
            PastOut::InsertOk {
                request_id,
                file_id,
                attempts,
                ..
            } if *a == client && *request_id == req => Some((*t, Some(*file_id), *attempts)),
            PastOut::InsertFailed {
                request_id,
                attempts,
                ..
            } if *a == client && *request_id == req => Some((*t, None, *attempts)),
            _ => None,
        });
        let Some((t, fid, attempts)) = outcome else {
            self.sim.unanswered += 1;
            return;
        };
        self.sim.insert_attempts += u64::from(attempts);
        self.sim.insert_sim_us.push(t.as_micros() - issued_us);
        match fid {
            Some(fid) => self.live.push(FileRec { fid, owner: client }),
            None => self.sim.rejected += 1,
        }
    }

    fn lookup(&mut self, client: Addr, idx: usize) {
        let (fid, owner) = (self.live[idx].fid, self.live[idx].owner);
        self.sim.lookups += 1;
        if !self.pairs.insert((client, owner)) {
            self.sim.credential_reuse += 1;
        }
        let (_, events) = self.timed(
            ["op.lookup", "core.issue.lookup", "core.drain.lookup"],
            |net| net.lookup(client, fid),
        );
        let outcome = events.iter().find_map(|(t, a, e)| match e {
            PastOut::LookupOk {
                file_id,
                from_cache,
                started_us,
                ..
            } if *a == client && *file_id == fid => {
                Some(Some((t.as_micros() - started_us, *from_cache)))
            }
            PastOut::LookupFailed { file_id } if *a == client && *file_id == fid => Some(None),
            _ => None,
        });
        match outcome {
            None => self.sim.unanswered += 1,
            Some(None) => self.sim.failed += 1,
            Some(Some((lat, from_cache))) => {
                self.sim.lookups_ok += 1;
                self.sim.cache_hits += u64::from(from_cache);
                self.sim.lookup_sim_us.push(lat);
            }
        }
    }

    /// Reclaims live file `idx` by its owner.
    fn reclaim(&mut self, idx: usize) {
        let FileRec { fid, owner } = self.live.swap_remove(idx);
        let (_, events) = self.timed(
            ["op.reclaim", "core.issue.reclaim", "core.drain.reclaim"],
            |net| net.reclaim(owner, fid),
        );
        let outcome = events.iter().find_map(|(_, a, e)| match e {
            PastOut::ReclaimCredited { file_id, .. } if *a == owner && *file_id == fid => {
                Some(true)
            }
            PastOut::ReclaimDenied { file_id } | PastOut::ReclaimFailed { file_id }
                if *a == owner && *file_id == fid =>
            {
                Some(false)
            }
            _ => None,
        });
        match outcome {
            None => self.sim.unanswered += 1,
            Some(false) => self.sim.failed += 1,
            Some(true) => {}
        }
    }

    fn stabilize(&mut self) {
        let t0 = self.now_ns();
        self.net.sim.stabilize();
        self.net.run();
        self.span("pastry.stabilize", t0);
    }

    /// A maintenance wave without faults: one heartbeat round.
    fn maintenance_round(&mut self) {
        let t0 = self.now_ns();
        let first = self.spans.len();
        self.stabilize();
        let wave = self.span("wave", t0);
        self.adopt(first, wave);
        self.sim.waves += 1;
    }

    fn uniform_live_client(&mut self) -> Addr {
        let live = self.net.sim.engine.live_addrs();
        live[self.rng.random_range(0..live.len())]
    }

    /// Builds the set-up population.
    fn populate(&mut self) {
        let n = self.w.nodes();
        match self.w {
            Workload::WriteFill => {}
            Workload::ReadZipf => {
                let publishers: Vec<Addr> = (0..RZ_PUBLISHERS)
                    .map(|_| self.rng.random_range(0..n))
                    .collect();
                for i in 0..RZ_FILES {
                    let size = flat_size(&mut self.rng);
                    self.insert(publishers[i % RZ_PUBLISHERS], size);
                }
            }
            Workload::ChurnLossy => {
                for _ in 0..CL_FILES {
                    let client = self.rng.random_range(0..n);
                    let size = flat_size(&mut self.rng);
                    self.insert(client, size);
                }
            }
        }
    }

    fn write_fill(&mut self) {
        let n = self.w.nodes();
        let sizes = FileSizes::default();
        for i in 0..WF_OPS {
            if i > 0 && i % (WF_OPS / WF_ROUNDS) == 0 {
                self.maintenance_round();
            }
            let u = self.rng.unit_f64();
            if u < 0.60 || self.live.is_empty() {
                let client = self.rng.random_range(0..n);
                let size = sizes.sample(&mut self.rng);
                self.insert(client, size);
            } else if u < 0.85 {
                let client = self.rng.random_range(0..n);
                let idx = self.rng.random_range(0..self.live.len());
                self.lookup(client, idx);
            } else {
                let idx = self.rng.random_range(0..self.live.len());
                self.reclaim(idx);
            }
        }
        self.maintenance_round();
    }

    fn read_zipf(&mut self) {
        let n = self.w.nodes();
        let clients: Vec<Addr> = (0..RZ_CLIENTS)
            .map(|_| self.rng.random_range(0..n))
            .collect();
        // Ranks index the set-up population, which the measured phase
        // never reclaims: only the clients' own inserts are reclaimed.
        let ranked = self.live.len();
        let zipf = Zipf::new(ranked, 1.0);
        for i in 0..RZ_OPS {
            if i > 0 && i % (RZ_OPS / RZ_ROUNDS) == 0 {
                self.maintenance_round();
            }
            let client = clients[self.rng.random_range(0..RZ_CLIENTS)];
            let u = self.rng.unit_f64();
            if u < 0.95 {
                let rank = zipf.sample(&mut self.rng);
                self.lookup(client, rank);
            } else if u < 0.99 || self.live.len() == ranked {
                let size = flat_size(&mut self.rng);
                self.insert(client, size);
            } else {
                let idx = self.rng.random_range(ranked..self.live.len());
                self.reclaim_keeping_order(idx);
            }
        }
        self.maintenance_round();
    }

    /// Reclaims `idx` without moving the ranked population in front of it.
    fn reclaim_keeping_order(&mut self, idx: usize) {
        let last = self.live.len() - 1;
        self.live.swap(idx, last);
        self.reclaim(last);
    }

    /// One churn wave: kill a share of the live nodes, stabilize until
    /// no live leaf set lists a dead node, join as many fresh nodes with
    /// new cards, and run one more round to repair the k-sets.
    fn churn_wave(&mut self) {
        let t0 = self.now_ns();
        let first = self.spans.len();
        let mut live = self.net.sim.engine.live_addrs();
        let kills = live.len() * CL_KILL_PERMILLE / 1000;
        for i in 0..kills {
            let j = self.rng.random_range(i..live.len());
            live.swap(i, j);
            self.net.sim.engine.kill(live[i]);
        }
        for _ in 0..CL_DETECT_ROUNDS {
            self.stabilize();
            if self.leaf_sets_clean() {
                break;
            }
        }
        let cfg = self.net.past_cfg();
        for _ in 0..kills {
            let capacity = self.capacities.sample(&mut self.rng);
            let card = self.net.broker.issue_card(
                format!("churn-{}", self.next_id).as_bytes(),
                u64::MAX / 4,
                capacity,
            );
            let app = PastApp::new(cfg, card, capacity, &self.net.broker);
            let t = self.now_ns();
            self.net
                .sim
                .join_node_nearby(self.ids[self.next_id], app, 8);
            self.span("pastry.join", t);
            self.next_id += 1;
        }
        self.stabilize();
        let wave = self.span("wave", t0);
        self.adopt(first, wave);
        self.sim.waves += 1;
    }

    /// True when no live node lists a dead node in its leaf set.
    fn leaf_sets_clean(&self) -> bool {
        let e = &self.net.sim.engine;
        e.live_addrs()
            .into_iter()
            .all(|a| e.node(a).state.leaf.members().all(|h| e.is_alive(h.addr)))
    }

    fn churn_burst(&mut self) {
        for _ in 0..CL_BURST {
            let u = self.rng.unit_f64();
            if u < 0.60 {
                let client = self.uniform_live_client();
                let idx = self.rng.random_range(0..self.live.len());
                self.lookup(client, idx);
            } else if u < 0.92 {
                let client = self.uniform_live_client();
                let size = flat_size(&mut self.rng);
                self.insert(client, size);
            } else {
                // Only a live owner can reclaim; draw until one is found.
                let idx = loop {
                    let idx = self.rng.random_range(0..self.live.len());
                    if self.net.sim.engine.is_alive(self.live[idx].owner) {
                        break idx;
                    }
                };
                self.reclaim(idx);
            }
        }
    }

    fn take_counters(&mut self) -> TraceCounters {
        let tracer = self.net.sim.engine.take_tracer();
        let hops = tracer
            .records()
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::RouteDeliver { hops, .. } => Some(hops),
                _ => None,
            })
            .collect();
        let mut c = TraceCounters {
            hops,
            ..TraceCounters::default()
        };
        if let Some(series) = tracer.series() {
            for (_, w) in series.windows() {
                c.suspicions += w.counter("suspicions");
                c.retries += w.counter("retries");
                c.repair_msgs += w.counter("repair_msgs");
            }
        }
        c
    }

    /// The correctness gate, checked after the measured phase.
    fn gate(&mut self, snap: &PastSnapshot) -> Vec<String> {
        let mut gate = Vec::new();
        if self.sim.unanswered > 0 {
            gate.push(format!(
                "{} operations ended without an outcome",
                self.sim.unanswered
            ));
        }
        if self.w == Workload::ReadZipf && self.sim.lookups_ok != self.sim.lookups {
            gate.push(format!(
                "{} of {} lookups failed",
                self.sim.lookups - self.sim.lookups_ok,
                self.sim.lookups
            ));
        }
        gate.extend(
            past_invariants::check_all(snap)
                .iter()
                .map(|v| format!("invariant {v}")),
        );
        if self.w == Workload::ChurnLossy {
            // Every acknowledged, unreclaimed file survives the churn with
            // k live holders and answers a lookup.
            let mut holders: BTreeMap<FileId, u64> = BTreeMap::new();
            for f in snap.stores.iter().flat_map(|s| &s.files) {
                *holders.entry(f.file_id).or_default() += 1;
            }
            let reader = self.net.sim.engine.live_addrs()[0];
            let fids: Vec<FileId> = self.live.iter().map(|f| f.fid).collect();
            for fid in fids {
                let h = holders.get(&fid).copied().unwrap_or(0);
                if h < u64::from(K) {
                    gate.push(format!("file {fid:?} has {h} live holders, not {K}"));
                }
                self.net.lookup(reader, fid);
                let found = self.net.run().iter().any(|(_, a, e)| {
                    *a == reader
                        && matches!(e, PastOut::LookupOk { file_id, .. } if *file_id == fid)
                });
                if !found {
                    gate.push(format!("acknowledged file {fid:?} is not retrievable"));
                }
            }
        }
        gate
    }
}
