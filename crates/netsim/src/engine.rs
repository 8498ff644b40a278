//! The discrete-event message engine.
//!
//! Nodes are state machines implementing [`NodeLogic`]; the [`Engine`]
//! owns them, delivers messages with topology-derived latency, models
//! node failure (messages to a dead node produce a delayed send-failure
//! notification at the sender, standing in for a timeout), injects
//! link faults, and counts traffic per message kind.
//!
//! ## Determinism model
//!
//! - Every event carries a key `(time, source node, per-node seq)`;
//!   keys are totally ordered and unique, and each node executes its
//!   events in key order.
//! - Each node owns a private protocol RNG ([`Ctx::rng`]) and a private
//!   fault RNG, seeded from the run seed (fault seed) and its address.
//! - The harness has its own RNG ([`Engine::rng`]), which node logic
//!   never touches.
//!
//! A node's decisions therefore depend only on the events it observes,
//! in an order the keys fix globally.
//!
//! ## Shards and inline mode
//!
//! The engine partitions nodes contiguously into
//! [`ShardConfig::shards`] shards and advances them in conservative
//! windows: each window starts at the earliest pending event and is
//! [`ShardConfig::window_us`] wide. The safety condition is that no
//! inter-node message can arrive inside the window it was sent in,
//! which holds whenever the window is at most the topology's minimum
//! inter-node delay ([`Topology::min_delay_us`], validated at
//! construction).
//!
//! - With **one shard** (the default, [`Engine::new`]) the window loop
//!   runs *inline* on the caller's thread: no thread, no barrier, no
//!   mailbox, and every send goes straight into the one event wheel.
//!   The window is the topology's minimum delay.
//! - With **N shards** each shard runs on a worker thread, and every
//!   inter-node message travels in a sealed batch exchanged at the
//!   window barrier.
//!
//! Both modes execute the same events in the same key order, so one
//! shard and N shards give bit-identical per-node state, merged
//! [`NetStats`], outputs, traces and [`fingerprint`]. The tests at the
//! bottom of this file pin that claim.
//!
//! [`fingerprint`]: Engine::fingerprint

use crate::shard::{run_threaded, tie_key, Shard, ShardEvent};
use crate::soa::NodeIo;
use crate::time::SimTime;
use crate::topology::{mix64, Addr, Topology};
use past_crypto::rng::Rng;
use past_trace::{OpId, SeriesConfig, TraceConfig, Tracer};
use std::fmt;

/// A simulated wire message. `Send`, because a multi-shard engine
/// moves messages between worker threads.
pub trait Message: Clone + Send {
    /// Every kind label this message type can produce, in [`kind_id`]
    /// order. The engine's per-kind traffic counters are a flat array
    /// indexed by `kind_id`, so accounting is an array bump instead of a
    /// string-keyed hash lookup per message.
    ///
    /// [`kind_id`]: Message::kind_id
    const KINDS: &'static [&'static str];

    /// Index of this message's kind within [`Message::KINDS`].
    fn kind_id(&self) -> usize;

    /// A short static label used for per-kind traffic accounting.
    fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_id()]
    }

    /// Wire size in bytes, used for bandwidth accounting and per-send
    /// trace records. Message types with a codec must answer their exact
    /// encoded length (`past_wire::Wire::encoded_len`); the default is a
    /// placeholder for codec-less test messages only.
    fn wire_size(&self) -> u64 {
        64
    }

    /// The client operation this message belongs to, for causal trace
    /// attribution. Protocol messages that are not part of a client
    /// operation (the default) answer [`OpId::NONE`].
    fn op_id(&self) -> OpId {
        OpId::NONE
    }
}

/// Per-node protocol logic driven by the engine. `Send`, because a
/// multi-shard engine runs each shard's nodes on a worker thread.
pub trait NodeLogic: Send {
    /// The wire message type.
    type Msg: Message;
    /// Out-of-band observations surfaced to the experiment harness
    /// (delivery records, receipts, rejections, ...).
    type Out: Send;

    /// Handles a message arriving from `from`.
    fn on_message(&mut self, from: Addr, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg, Self::Out>);

    /// Called when a previously sent message could not be delivered because
    /// the destination is dead (models an RPC timeout).
    fn on_send_failed(
        &mut self,
        _to: Addr,
        _msg: Self::Msg,
        _ctx: &mut Ctx<'_, Self::Msg, Self::Out>,
    ) {
    }

    /// Handles a timer previously set with [`Ctx::set_timer`].
    fn on_timer(&mut self, _kind: u64, _ctx: &mut Ctx<'_, Self::Msg, Self::Out>) {}
}

/// Link-fault injection parameters.
///
/// The all-zero default disables fault injection entirely: no RNG draws
/// happen, so a faultless engine is bit-identical to one that never heard
/// of faults. Each node draws its faults from a private fault stream
/// (seeded by [`Engine::set_faults`] and the node's address),
/// independent of its protocol stream, so enabling faults never perturbs
/// routing/tie-break decisions and identical seeds reproduce identical
/// drop/duplicate/jitter sequences.
///
/// Self-sends (`from == to`, e.g. a node handing a message to its own
/// routing logic) are exempt: they never cross a link.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Probability a message is silently lost in transit. Loss produces
    /// *no* send-failure notification — that signal models an RPC timeout
    /// against a dead peer, and a lossy link gives the sender nothing.
    pub loss: f64,
    /// Probability a surviving message is delivered twice (the duplicate
    /// takes an independent jitter draw).
    pub duplicate: f64,
    /// Extra per-message delay, drawn uniformly from `0..=jitter_us`.
    pub jitter_us: u64,
}

impl FaultConfig {
    /// True if any fault class is enabled.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0 || self.duplicate > 0.0 || self.jitter_us > 0
    }
}

pub(crate) enum Effect<M> {
    Send { to: Addr, msg: M, extra_us: u64 },
    Timer { delay_us: u64, kind: u64 },
}

/// The per-invocation context handed to node logic.
///
/// Collects effects (sends, timers, emissions) which the engine applies
/// after the handler returns, and exposes the proximity metric and the
/// node's RNG stream.
pub struct Ctx<'a, M, O> {
    /// Current simulated time.
    pub now: SimTime,
    /// Address of the node being invoked.
    pub me: Addr,
    /// The invoked node's private protocol RNG stream, seeded from the
    /// run seed and the node's address.
    pub rng: &'a mut Rng,
    /// The engine's trace sink. Node logic records protocol-level
    /// events (route hops, join phases, operation lifecycle) here; the
    /// engine itself records the message plane. No-op unless enabled
    /// via [`Engine::set_tracing`].
    pub tracer: &'a mut Tracer,
    // `pub(crate)` rather than private: each shard
    // ([`crate::shard`]) constructs the context for its nodes.
    pub(crate) topo: &'a dyn Topology,
    // Engine-owned scratch buffers, reused across invocations so the
    // per-event cost is a pointer swap rather than two allocations.
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    pub(crate) emitted: &'a mut Vec<O>,
}

impl<M, O> Ctx<'_, M, O> {
    /// Sends `msg` to `to`; it arrives after the topology delay.
    pub fn send(&mut self, to: Addr, msg: M) {
        self.effects.push(Effect::Send {
            to,
            msg,
            extra_us: 0,
        });
    }

    /// Sends `msg` to `to` with additional artificial delay (e.g. local
    /// processing or disk time).
    pub fn send_after(&mut self, to: Addr, msg: M, extra_us: u64) {
        self.effects.push(Effect::Send { to, msg, extra_us });
    }

    /// Arms a timer that fires at this node after `delay_us`.
    pub fn set_timer(&mut self, delay_us: u64, kind: u64) {
        self.effects.push(Effect::Timer { delay_us, kind });
    }

    /// One-way delay from this node to `other` (the proximity metric).
    ///
    /// In a deployment a node measures this by probing; the simulator
    /// answers from the topology directly.
    pub fn delay_to(&self, other: Addr) -> u64 {
        self.topo.delay_us(self.me, other)
    }

    /// Emits an observation for the experiment harness.
    pub fn emit(&mut self, out: O) {
        self.emitted.push(out);
    }
}

/// The engine context is the simulator-side implementation of the
/// sans-io effect sink: protocol state machines written against
/// `past_wire::Io` run under the engine with no adapter code beyond
/// this impl.
impl<M, O> past_wire::Io<M, O> for Ctx<'_, M, O> {
    fn now_us(&self) -> u64 {
        self.now.as_micros()
    }

    fn me(&self) -> Addr {
        self.me
    }

    fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    fn tracer(&mut self) -> &mut Tracer {
        self.tracer
    }

    fn delay_to(&self, other: Addr) -> u64 {
        Ctx::delay_to(self, other)
    }

    fn send(&mut self, to: Addr, msg: M) {
        Ctx::send(self, to, msg)
    }

    fn send_after(&mut self, to: Addr, msg: M, extra_us: u64) {
        Ctx::send_after(self, to, msg, extra_us)
    }

    fn set_timer(&mut self, delay_us: u64, kind: u64) {
        Ctx::set_timer(self, delay_us, kind)
    }

    fn emit(&mut self, out: O) {
        Ctx::emit(self, out)
    }
}

/// Per-kind traffic counters.
///
/// Counters are a flat array parallel to the message type's
/// [`Message::KINDS`] table, indexed by [`Message::kind_id`]; the by-name
/// lookup ([`kind_count`]) scans the (short, static) kind table.
///
/// [`kind_count`]: NetStats::kind_count
#[derive(Default, Debug, Clone)]
pub struct NetStats {
    kinds: &'static [&'static str],
    by_kind: Vec<u64>,
    /// Total messages sent.
    pub total_msgs: u64,
    /// Total bytes sent.
    pub total_bytes: u64,
    /// Messages silently lost by fault injection ([`FaultConfig::loss`]).
    pub dropped: u64,
    /// Extra deliveries created by fault injection
    /// ([`FaultConfig::duplicate`]).
    pub duplicated: u64,
    /// Messages that reached a dead destination (each schedules a
    /// send-failure notification back at a live sender). Protocols that
    /// ignore [`NodeLogic::on_send_failed`] still show up here, keeping
    /// cross-protocol failure comparisons honest.
    pub failed_sends: u64,
}

impl NetStats {
    pub(crate) fn for_kinds(kinds: &'static [&'static str]) -> NetStats {
        NetStats {
            kinds,
            by_kind: vec![0; kinds.len()],
            total_msgs: 0,
            total_bytes: 0,
            dropped: 0,
            duplicated: 0,
            failed_sends: 0,
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        self.by_kind.iter_mut().for_each(|c| *c = 0);
        self.total_msgs = 0;
        self.total_bytes = 0;
        self.dropped = 0;
        self.duplicated = 0;
        self.failed_sends = 0;
    }

    /// Mutable per-kind counters (each shard accounts sends on its own
    /// stats block).
    pub(crate) fn by_kind_mut(&mut self) -> &mut [u64] {
        &mut self.by_kind
    }

    /// Folds another stats block into this one (summing every counter).
    /// Used to combine per-shard counters into a run total.
    ///
    /// # Panics
    ///
    /// Panics if the two blocks count different kind tables.
    pub fn merge(&mut self, other: &NetStats) {
        assert!(
            std::ptr::eq(self.kinds, other.kinds) || self.kinds == other.kinds,
            "cannot merge stats over different kind tables"
        );
        for (mine, theirs) in self.by_kind.iter_mut().zip(other.by_kind.iter()) {
            *mine += theirs;
        }
        self.total_msgs += other.total_msgs;
        self.total_bytes += other.total_bytes;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.failed_sends += other.failed_sends;
    }

    /// Messages of one kind.
    pub fn kind_count(&self, kind: &str) -> u64 {
        match self.kinds.iter().position(|&k| k == kind) {
            Some(i) => self.by_kind[i],
            None => 0,
        }
    }

    /// Iterates `(kind, count)` pairs in [`Message::KINDS`] order.
    pub fn by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kinds.iter().copied().zip(self.by_kind.iter().copied())
    }
}

/// Shard layout of an [`Engine`].
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Shard count. One shard runs inline on the caller's thread; more
    /// run on as many worker threads. The engine may use fewer shards
    /// than asked for if there are not enough topology slots to fill
    /// them.
    pub shards: usize,
    /// Conservative window width in microseconds. Must not exceed the
    /// minimum inter-node delay of the topology; larger windows mean
    /// fewer barriers.
    pub window_us: u64,
}

/// Typed rejection raised at build time when a shard window exceeds
/// the topology's minimum inter-node delay.
///
/// The engine's safety condition is that no inter-node message can
/// arrive inside the window it was sent in; a window wider than the
/// minimum delay breaks it. Validating at construction turns what would
/// be a mid-run worker panic into an error the caller can handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowTooWide {
    /// The requested window width, microseconds.
    pub window_us: u64,
    /// The topology's minimum inter-node delay, microseconds.
    pub min_delay_us: u64,
}

impl fmt::Display for WindowTooWide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard window ({} µs) exceeds the topology's minimum \
             inter-node delay ({} µs): a message could arrive inside \
             the window it was sent in, breaking sealed-batch delivery; \
             lower ShardConfig::window_us or raise the topology's delay \
             floor",
            self.window_us, self.min_delay_us
        )
    }
}

impl std::error::Error for WindowTooWide {}

/// The discrete-event engine. See the module docs for the model.
pub struct Engine<N: NodeLogic, T: Topology> {
    shards: Vec<Shard<N, T>>,
    /// Topology slots per shard (the last shard may own fewer).
    chunk: usize,
    window_us: u64,
    n: usize,
    /// Topology capacity: shards are laid out over the full address
    /// space up front, so node growth never re-partitions.
    cap: usize,
    /// Construction seed: per-node protocol RNG streams derive from it.
    seed: u64,
    /// Current fault seed: per-node fault streams derive from it, both
    /// at push time and on [`set_faults`](Engine::set_faults).
    fault_seed: u64,
    faults: FaultConfig,
    epoch: u64,
    /// Harness-side RNG, separate from every node's protocol stream.
    rng: Rng,
    /// Harness-side trace sink (op lifecycle records); merged with the
    /// shard-local sinks by [`take_tracer`](Engine::take_tracer).
    harness_tracer: Tracer,
    /// Reused by [`stats`](Engine::stats): the merge writes into this
    /// cache instead of allocating a fresh block.
    stats_cache: NetStats,
    /// Reused by [`drain_outputs_into`](Engine::drain_outputs_into) as
    /// the merge-and-sort staging buffer.
    out_scratch: Vec<(u64, u128, u32, Addr, N::Out)>,
}

impl<N: NodeLogic, T: Topology + Clone> Engine<N, T> {
    /// Creates a one-shard engine over `nodes` (which take the first
    /// topology slots). It runs inline, with the topology's minimum
    /// delay as its window.
    ///
    /// # Panics
    ///
    /// Panics if there are more nodes than topology slots.
    pub fn new(topo: T, nodes: Vec<N>, seed: u64) -> Engine<N, T> {
        let cfg = ShardConfig {
            shards: 1,
            window_us: topo.min_delay_us(),
        };
        Engine::with_shards(topo, nodes, seed, cfg)
    }

    /// Creates an engine over `nodes` with the given shard layout.
    ///
    /// # Panics
    ///
    /// Panics if there are more nodes than topology slots, the window
    /// is zero, or the window is wider than the topology's minimum
    /// delay (use [`try_new`](Engine::try_new) to handle that case).
    pub fn with_shards(topo: T, nodes: Vec<N>, seed: u64, cfg: ShardConfig) -> Engine<N, T> {
        assert!(
            nodes.len() <= topo.len(),
            "more nodes ({}) than topology slots ({})",
            nodes.len(),
            topo.len()
        );
        let mut e = Engine::try_new(topo, seed, cfg).unwrap_or_else(|err| panic!("{err}"));
        e.reserve_nodes(nodes.len());
        for node in nodes {
            e.push_node(node);
        }
        e.epoch = 0;
        e
    }

    /// Builds an empty engine over the topology's full address space,
    /// partitioned contiguously into (up to) `cfg.shards` shards. Nodes
    /// are added with [`push_node`](Engine::push_node).
    ///
    /// Rejects a window wider than the topology's minimum inter-node
    /// delay: such a window could deliver a message inside the window
    /// it was sent in.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty, exceeds the `u32` address
    /// space, or the window is zero.
    pub fn try_new(topo: T, seed: u64, cfg: ShardConfig) -> Result<Engine<N, T>, WindowTooWide> {
        let cap = topo.len();
        assert!(cap > 0, "the engine needs a topology with slots");
        assert!(
            cap < u32::MAX as usize,
            "node address space (u32) exhausted"
        );
        assert!(cfg.window_us > 0, "shard window must be positive");
        let min_delay_us = topo.min_delay_us();
        if cfg.window_us > min_delay_us {
            return Err(WindowTooWide {
                window_us: cfg.window_us,
                min_delay_us,
            });
        }
        let want = cfg.shards.clamp(1, cap);
        let chunk = cap.div_ceil(want);
        let count = cap.div_ceil(chunk);
        let inline = count == 1;
        // Every shard owns a topology (and with it a private delay
        // memo); the first takes the original, so one shard clones
        // nothing.
        let mut shards = Vec::with_capacity(count);
        for id in 1..count {
            shards.push(Shard::new(id, id * chunk, inline, topo.clone()));
        }
        shards.insert(0, Shard::new(0, 0, inline, topo));
        Ok(Engine {
            shards,
            chunk,
            window_us: cfg.window_us,
            n: 0,
            cap,
            seed,
            fault_seed: seed,
            faults: FaultConfig::default(),
            epoch: 0,
            rng: Rng::seed_from_u64(seed),
            harness_tracer: Tracer::for_kinds(N::Msg::KINDS),
            stats_cache: NetStats::for_kinds(N::Msg::KINDS),
            out_scratch: Vec::new(),
        })
    }
}

impl<N: NodeLogic, T: Topology> Engine<N, T> {
    fn shard_of(&self, a: Addr) -> usize {
        a / self.chunk
    }

    /// Adds a node (returns its address). Addresses are dense in push
    /// order and never move; the owning shard is fixed by the
    /// contiguous layout. The node's protocol stream derives from the
    /// construction seed and its fault stream from the current fault
    /// seed, exactly as if it had been present at construction — so
    /// growth is shard-count independent.
    pub fn push_node(&mut self, node: N) -> Addr {
        let addr = self.n;
        assert!(addr < self.cap, "no topology slot for new node");
        let sh = addr / self.chunk;
        let s = &mut self.shards[sh];
        debug_assert_eq!(s.base + s.nodes.len(), addr, "dense push order");
        s.nodes.push(node);
        s.rngs
            .push(Rng::seed_from_u64(self.seed ^ mix64(addr as u64)));
        s.fault_rngs.push(Rng::seed_from_u64(
            self.fault_seed ^ mix64(addr as u64) ^ 0x5eed_fa17,
        ));
        s.seqs.push(0);
        self.n += 1;
        self.epoch += 1;
        addr
    }

    /// Reserves storage in the shards that will receive the next
    /// `extra` nodes, so bulk builds (e.g. a 100k-node overlay) grow
    /// each shard's arrays once instead of doubling through them.
    pub fn reserve_nodes(&mut self, extra: usize) {
        let mut remaining = extra.min(self.cap - self.n);
        let mut next = self.n;
        while remaining > 0 {
            let sh = next / self.chunk;
            let room = ((sh + 1) * self.chunk).min(self.cap) - next;
            let take = room.min(remaining);
            let s = &mut self.shards[sh];
            s.nodes.reserve(take);
            s.rngs.reserve(take);
            s.fault_rngs.reserve(take);
            s.seqs.reserve(take);
            next += take;
            remaining -= take;
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the engine has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of shards actually in use (1 means inline).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current simulated time (all shards agree between runs).
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.shards.iter().map(|s| s.now).max().unwrap_or(0))
    }

    /// Immutable access to a node's state.
    pub fn node(&self, a: Addr) -> &N {
        let s = &self.shards[self.shard_of(a)];
        s.nodes.logic(a - s.base)
    }

    /// Mutable access to a node's state (harness-side setup only).
    pub fn node_mut(&mut self, a: Addr) -> &mut N {
        let sh = self.shard_of(a);
        let s = &mut self.shards[sh];
        s.nodes.logic_mut(a - s.base)
    }

    /// The topology (proximity oracle).
    pub fn topology(&self) -> &T {
        &self.shards[0].topo
    }

    /// Membership epoch: incremented on every [`push_node`], [`kill`]
    /// and [`revive`], so harness-side caches over the live-node set
    /// can be invalidated by comparing epochs instead of rescanning.
    ///
    /// [`push_node`]: Engine::push_node
    /// [`kill`]: Engine::kill
    /// [`revive`]: Engine::revive
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Addresses of all live nodes, ascending.
    pub fn live_addrs(&self) -> Vec<Addr> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.nodes.live_addrs().into_iter().map(|a| a + s.base));
        }
        out
    }

    /// The harness-side RNG (sampling, id generation), seeded with the
    /// run seed. Node logic never draws from it; its draws come from
    /// per-node streams.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Per-node traffic counters (messages sent / received).
    pub fn node_io(&self, a: Addr) -> NodeIo {
        let s = &self.shards[self.shard_of(a)];
        s.nodes.io(a - s.base)
    }

    /// Liveness of a node.
    pub fn is_alive(&self, a: Addr) -> bool {
        let s = &self.shards[self.shard_of(a)];
        s.nodes.is_alive(a - s.base)
    }

    /// Marks a node dead (between runs): it silently stops processing
    /// and answering.
    pub fn kill(&mut self, a: Addr) {
        let sh = self.shard_of(a);
        let s = &mut self.shards[sh];
        s.nodes.set_alive(a - s.base, false);
        self.epoch += 1;
    }

    /// Marks a node live again (between runs).
    pub fn revive(&mut self, a: Addr) {
        let sh = self.shard_of(a);
        let s = &mut self.shards[sh];
        s.nodes.set_alive(a - s.base, true);
        self.epoch += 1;
    }

    /// Enables (or reconfigures) link-fault injection.
    ///
    /// Every node's fault stream is reseeded from `seed` and its
    /// address (nodes pushed later derive theirs from the same seed):
    /// the same seed and configuration reproduce the exact same
    /// drop/duplicate/jitter sequence over the same message stream.
    /// Passing [`FaultConfig::default`] turns faults off again.
    pub fn set_faults(&mut self, faults: FaultConfig, seed: u64) {
        assert!((0.0..=1.0).contains(&faults.loss), "loss out of [0,1]");
        assert!(
            (0.0..=1.0).contains(&faults.duplicate),
            "duplicate out of [0,1]"
        );
        self.faults = faults;
        self.fault_seed = seed;
        for s in self.shards.iter_mut() {
            s.faults = faults;
            for (i, r) in s.fault_rngs.iter_mut().enumerate() {
                let a = (s.base + i) as u64;
                *r = Rng::seed_from_u64(seed ^ mix64(a) ^ 0x5eed_fa17);
            }
        }
    }

    /// The fault configuration in force.
    pub fn faults(&self) -> FaultConfig {
        self.faults
    }

    /// Selects which trace event classes are recorded, on the harness
    /// sink and every shard-local sink. The default is everything off:
    /// record calls return after one branch and nothing allocates.
    /// Tracing draws no randomness, so enabling it never perturbs
    /// outcomes.
    pub fn set_tracing(&mut self, cfg: TraceConfig) {
        self.harness_tracer.configure(cfg);
        for s in self.shards.iter_mut() {
            s.tracer.configure(cfg);
        }
    }

    /// Attaches a flight recorder (sim-time windowed series) to the
    /// harness sink and every shard-local sink. Like tracing, sampling
    /// is observation only. Shard series merge into the harness series
    /// in [`take_tracer`](Engine::take_tracer); the merged series is
    /// identical under any shard count.
    pub fn set_series(&mut self, cfg: SeriesConfig) {
        self.harness_tracer.set_series(cfg);
        for s in self.shards.iter_mut() {
            s.tracer.set_series(cfg);
        }
    }

    /// The harness-side trace sink. Shard-local records (message plane,
    /// per-hop protocol events) are *not* visible here until
    /// [`take_tracer`](Engine::take_tracer) merges them.
    pub fn tracer(&self) -> &Tracer {
        &self.harness_tracer
    }

    /// Mutable harness-side trace sink (op lifecycle records).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.harness_tracer
    }

    /// Takes the full trace out of the engine: absorbs every shard's
    /// records and series into the harness trace and sorts the result
    /// canonically, so the merged trace is identical under any shard
    /// count. Leaves fresh disabled sinks behind.
    pub fn take_tracer(&mut self) -> Tracer {
        let mut t = std::mem::replace(&mut self.harness_tracer, Tracer::for_kinds(N::Msg::KINDS));
        for s in self.shards.iter_mut() {
            let st = std::mem::replace(&mut s.tracer, Tracer::for_kinds(N::Msg::KINDS));
            t.absorb(st);
        }
        t.sort_canonical();
        t
    }

    /// Injects a message into `to` as if sent by `from` (between runs),
    /// arriving after the topology delay plus `extra_us`. The fault
    /// model applies, drawn from the sender's fault stream.
    pub fn inject(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
        let sh = self.shard_of(from);
        self.shards[sh].dispatch(from, to, msg, extra_us);
        // Nothing is executing, so no window constraint applies: route
        // the staged wires straight into their destination queues.
        for w in std::mem::take(&mut self.shards[sh].wire_buf) {
            let dst = self.shard_of(w.dest());
            self.shards[dst].receive_wire(w);
        }
    }

    /// Arms a timer on a node (between runs).
    pub fn arm_timer(&mut self, at: Addr, delay_us: u64, kind: u64) {
        let sh = self.shard_of(at);
        let s = &mut self.shards[sh];
        let li = at - s.base;
        let seq = s.next_seq(li);
        let t = s.now + delay_us;
        s.queue.push(
            t,
            tie_key(at, seq),
            ShardEvent::Timer {
                at: at as u32,
                kind,
            },
        );
    }

    /// Total pending events across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Number of message payloads currently parked in flight.
    pub fn in_flight_msgs(&self) -> usize {
        self.shards.iter().map(|s| s.arena.len()).sum()
    }

    /// Merged traffic counters across all shards. Harness loops read
    /// stats every round, so the merge writes into a reusable cache
    /// instead of allocating a fresh block per call.
    pub fn stats(&mut self) -> &NetStats {
        self.stats_cache.reset();
        for s in &self.shards {
            self.stats_cache.merge(&s.stats);
        }
        &self.stats_cache
    }

    /// Commutative run fingerprint: a wrapping sum of per-event key
    /// digests plus the event count. Identical for identical runs under
    /// any shard count; any divergence in event times, sources or
    /// sequence numbers changes it.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = 0u64;
        let mut events = 0u64;
        for s in &self.shards {
            fp = fp.wrapping_add(s.fp);
            events += s.events;
        }
        mix64(events).wrapping_add(fp)
    }

    /// Drains emissions from all shards into `out` (cleared first),
    /// merged in global event-key order (deterministic under any shard
    /// count). The merge-and-sort staging buffer is engine-owned and
    /// reused, so a per-round drain allocates nothing once the buffers
    /// have grown to the working-set size.
    pub fn drain_outputs_into(&mut self, out: &mut Vec<(SimTime, Addr, N::Out)>) {
        out.clear();
        let mut all = std::mem::take(&mut self.out_scratch);
        debug_assert!(all.is_empty());
        for s in self.shards.iter_mut() {
            all.append(&mut s.outputs);
        }
        all.sort_by_key(|&(t, tie, k, _, _)| (t, tie, k));
        out.reserve(all.len());
        for (t, _, _, a, o) in all.drain(..) {
            out.push((SimTime::from_micros(t), a, o));
        }
        self.out_scratch = all;
    }

    /// Drains emissions from all shards, merged in global event-key
    /// order (deterministic under any shard count).
    pub fn drain_outputs(&mut self) -> Vec<(SimTime, Addr, N::Out)> {
        let mut out = Vec::new();
        self.drain_outputs_into(&mut out);
        out
    }

    /// Capacity of the engine-owned output staging buffer (observability
    /// for the zero-alloc drain contract).
    pub fn out_scratch_capacity(&self) -> usize {
        self.out_scratch.capacity()
    }

    /// Runs until the whole simulation quiesces or at least
    /// `max_events` have executed (checked at window boundaries, so
    /// slightly more may run). Returns events executed this call.
    pub fn run_until_quiet(&mut self, max_events: u64) -> u64 {
        self.run(max_events, u64::MAX)
    }

    /// Runs every event at or before `deadline` (later events stay
    /// queued), then advances the clock to `deadline`. Returns events
    /// executed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let deadline = deadline.as_micros();
        let n = self.run(u64::MAX, deadline);
        for s in self.shards.iter_mut() {
            s.now = s.now.max(deadline);
        }
        n
    }

    fn run(&mut self, max_events: u64, deadline: u64) -> u64 {
        let n = if let [one] = self.shards.as_mut_slice() {
            one.run_inline(self.window_us, max_events, deadline)
        } else {
            run_threaded(
                &mut self.shards,
                self.chunk,
                self.window_us,
                max_events,
                deadline,
            )
        };
        // Re-sync shard clocks so between-run harness actions (inject,
        // arm_timer) use the same global time under any shard count.
        let g = self.shards.iter().map(|s| s.now).max().unwrap_or(0);
        for s in self.shards.iter_mut() {
            s.now = g;
        }
        n
    }
}

/// A minimal driving surface over [`Engine`], its only implementor.
///
/// Nothing in the workspace is generic over it; it exists because the
/// operations benchmark (`pastbench/`) imports it, and can be deleted
/// once that import goes.
pub trait SimBackend<N: NodeLogic> {
    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Runs until quiescence or `max_events`; returns events executed.
    fn run_until_quiet(&mut self, max_events: u64) -> u64;

    /// Merged traffic counters.
    fn stats(&mut self) -> &NetStats;
}

impl<N: NodeLogic, T: Topology> SimBackend<N> for Engine<N, T> {
    fn now(&self) -> SimTime {
        Engine::now(self)
    }

    fn run_until_quiet(&mut self, max_events: u64) -> u64 {
        Engine::run_until_quiet(self, max_events)
    }

    fn stats(&mut self) -> &NetStats {
        Engine::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::UniformRandom;

    /// A gossip-ish protocol exercising every engine path: randomized
    /// forwarding (per-node RNG), timers, emissions, and send failures.
    #[derive(Clone)]
    enum GMsg {
        Rumor { ttl: u32, tag: u32 },
        Ack(u32),
    }

    impl Message for GMsg {
        const KINDS: &'static [&'static str] = &["rumor", "ack"];

        fn kind_id(&self) -> usize {
            match self {
                GMsg::Rumor { .. } => 0,
                GMsg::Ack(_) => 1,
            }
        }
    }

    #[derive(Default)]
    struct GNode {
        heard: Vec<u32>,
        acks: u64,
        failures: u64,
        timer_fired: bool,
    }

    impl NodeLogic for GNode {
        type Msg = GMsg;
        type Out = (u32, Addr);

        fn on_message(&mut self, from: Addr, msg: GMsg, ctx: &mut Ctx<'_, GMsg, (u32, Addr)>) {
            match msg {
                GMsg::Rumor { ttl, tag } => {
                    self.heard.push(tag);
                    ctx.emit((tag, from));
                    ctx.send(from, GMsg::Ack(tag));
                    if ttl > 0 {
                        // Randomized next hop: exercises the per-node
                        // protocol RNG streams.
                        let n = 64;
                        let next = ctx.rng.random_range(0..n as u64) as Addr;
                        if next != ctx.me {
                            ctx.send(next, GMsg::Rumor { ttl: ttl - 1, tag });
                        }
                        if !self.timer_fired {
                            ctx.set_timer(10_000, u64::from(tag));
                        }
                    }
                }
                // Folding the tag in makes `acks` a cheap order-free
                // checksum over which acks arrived, not just how many.
                GMsg::Ack(tag) => self.acks += 1 + u64::from(tag) * 31,
            }
        }

        fn on_send_failed(&mut self, _to: Addr, _msg: GMsg, _ctx: &mut Ctx<'_, GMsg, (u32, Addr)>) {
            self.failures += 1;
        }

        fn on_timer(&mut self, _kind: u64, ctx: &mut Ctx<'_, GMsg, (u32, Addr)>) {
            self.timer_fired = true;
            ctx.emit((u32::MAX, ctx.me));
        }
    }

    const N: usize = 64;
    /// Min topology delay is 2_000 µs, so a 2_000 µs window is safe.
    fn topo() -> UniformRandom {
        UniformRandom::new(N, 77, 2_000, 9_000)
    }

    fn engine(shards: usize) -> Engine<GNode, UniformRandom> {
        let nodes = (0..N).map(|_| GNode::default()).collect();
        Engine::with_shards(
            topo(),
            nodes,
            0xface,
            ShardConfig {
                shards,
                window_us: 2_000,
            },
        )
    }

    /// Folds one full run into a comparable snapshot.
    fn snapshot(
        e: &mut Engine<GNode, UniformRandom>,
    ) -> (
        u64,
        u64,
        SimTime,
        Vec<(SimTime, Addr, (u32, Addr))>,
        Vec<NodeIo>,
        Vec<Vec<u32>>,
        u64,
        u64,
        u64,
    ) {
        let (total_msgs, dropped, duplicated, failed_sends) = {
            let st = e.stats();
            (st.total_msgs, st.dropped, st.duplicated, st.failed_sends)
        };
        (
            e.fingerprint(),
            total_msgs,
            e.now(),
            e.drain_outputs(),
            (0..N).map(|a| e.node_io(a)).collect(),
            (0..N).map(|a| e.node(a).heard.clone()).collect(),
            dropped,
            duplicated,
            failed_sends,
        )
    }

    fn seeded_run(
        shards: usize,
    ) -> (
        u64,
        u64,
        SimTime,
        Vec<(SimTime, Addr, (u32, Addr))>,
        Vec<NodeIo>,
        Vec<Vec<u32>>,
        u64,
        u64,
        u64,
    ) {
        let mut e = engine(shards);
        for i in 0..8 {
            e.inject(
                i * 7,
                (i * 13 + 1) % N,
                GMsg::Rumor {
                    ttl: 12,
                    tag: i as u32,
                },
                0,
            );
        }
        e.run_until_quiet(u64::MAX);
        assert_eq!(e.pending(), 0, "run must quiesce");
        snapshot(&mut e)
    }

    #[test]
    fn single_and_multi_shard_runs_are_bit_identical() {
        let one = seeded_run(1);
        for shards in [2, 3, 4, 7] {
            assert_eq!(one, seeded_run(shards), "{shards} shards diverged");
        }
        assert!(!one.3.is_empty(), "run must produce outputs");
    }

    #[test]
    fn faulty_runs_are_shard_count_independent() {
        let run = |shards: usize| {
            let mut e = engine(shards);
            e.set_faults(
                FaultConfig {
                    loss: 0.15,
                    duplicate: 0.1,
                    jitter_us: 900,
                },
                4242,
            );
            for i in 0..10 {
                e.inject(
                    i * 5,
                    (i * 11 + 3) % N,
                    GMsg::Rumor {
                        ttl: 10,
                        tag: i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
            snapshot(&mut e)
        };
        let one = run(1);
        assert!(one.6 > 0, "loss must drop something");
        assert!(one.7 > 0, "duplication must duplicate something");
        for shards in [2, 4] {
            assert_eq!(one, run(shards), "{shards} shards diverged under faults");
        }
    }

    #[test]
    fn churn_between_runs_is_shard_count_independent() {
        let run = |shards: usize| {
            let mut e = engine(shards);
            for i in 0..6 {
                e.inject(
                    i,
                    (i + N / 2) % N,
                    GMsg::Rumor {
                        ttl: 8,
                        tag: i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
            // Kill a band of nodes, stir, revive some, stir again: the
            // dead-destination bounce path goes through the batches too.
            for a in 20..30 {
                e.kill(a);
            }
            for i in 0..6 {
                e.inject(
                    i,
                    20 + (i % 10),
                    GMsg::Rumor {
                        ttl: 6,
                        tag: 100 + i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
            for a in 20..25 {
                e.revive(a);
            }
            e.arm_timer(3, 5_000, 999);
            for i in 0..4 {
                e.inject(
                    40 + i,
                    20 + i,
                    GMsg::Rumor {
                        ttl: 5,
                        tag: 200 + i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
            let failures: u64 = (0..N).map(|a| e.node(a).failures).sum();
            (snapshot(&mut e), failures)
        };
        let one = run(1);
        assert!(one.0 .8 > 0, "churn must fail some sends");
        assert!(one.1 > 0, "some sender must observe a failure");
        for shards in [2, 5] {
            assert_eq!(one, run(shards), "{shards} shards diverged under churn");
        }
    }

    #[test]
    fn repeated_runs_replay_bit_identically() {
        assert_eq!(seeded_run(4), seeded_run(4));
    }

    #[test]
    fn event_budget_stops_at_window_granularity() {
        let mut e = engine(4);
        for i in 0..8 {
            e.inject(
                i * 7,
                (i * 13 + 1) % N,
                GMsg::Rumor {
                    ttl: 12,
                    tag: i as u32,
                },
                0,
            );
        }
        let ran = e.run_until_quiet(10);
        assert!(ran >= 10 || e.pending() == 0, "must hit budget or quiesce");
        // Resume to quiescence; the combined run must still quiesce.
        e.run_until_quiet(u64::MAX);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn window_wider_than_min_delay_is_rejected() {
        // Min delay 2_000 but window 50_000: unsafe, rejected with a
        // typed error at construction instead of a mid-run panic.
        let Err(err) = Engine::<GNode, UniformRandom>::try_new(
            topo(),
            1,
            ShardConfig {
                shards: 2,
                window_us: 50_000,
            },
        ) else {
            panic!("too-wide window must be rejected");
        };
        assert_eq!(
            err,
            WindowTooWide {
                window_us: 50_000,
                min_delay_us: 2_000,
            }
        );
        assert!(err.to_string().contains("exceeds the topology's minimum"));
    }

    #[test]
    #[should_panic(expected = "exceeds the topology's minimum")]
    fn new_panics_on_too_wide_window() {
        let nodes = (0..N).map(|_| GNode::default()).collect();
        let _: Engine<GNode, UniformRandom> = Engine::with_shards(
            topo(),
            nodes,
            1,
            ShardConfig {
                shards: 2,
                window_us: 50_000,
            },
        );
    }

    #[test]
    fn grown_engine_matches_constructed_engine() {
        // `push_node` growth must be bit-identical to handing every
        // node to the constructor, and addresses must be dense, stable
        // and in push order.
        let mut e: Engine<GNode, UniformRandom> = Engine::try_new(
            topo(),
            0xface,
            ShardConfig {
                shards: 4,
                window_us: 2_000,
            },
        )
        .unwrap();
        e.reserve_nodes(N);
        for i in 0..N {
            assert_eq!(e.push_node(GNode::default()), i, "addresses are stable");
        }
        for i in 0..8 {
            e.inject(
                i * 7,
                (i * 13 + 1) % N,
                GMsg::Rumor {
                    ttl: 12,
                    tag: i as u32,
                },
                0,
            );
        }
        e.run_until_quiet(u64::MAX);
        assert_eq!(snapshot(&mut e), seeded_run(4), "growth diverged");
    }

    #[test]
    fn epoch_and_live_addrs_track_membership() {
        let mut e = engine(4);
        assert_eq!(e.epoch(), 0, "constructed engines start at epoch 0");
        assert_eq!(e.live_addrs().len(), N);
        e.kill(10);
        e.kill(40);
        assert_eq!(e.epoch(), 2);
        let live = e.live_addrs();
        assert_eq!(live.len(), N - 2);
        assert!(!live.contains(&10) && !live.contains(&40));
        assert!(
            live.windows(2).all(|w| w[0] < w[1]),
            "ascending across shard boundaries"
        );
        e.revive(10);
        assert_eq!(e.epoch(), 3);
        assert!(e.live_addrs().contains(&10));
    }

    #[test]
    fn per_round_stats_and_drains_reuse_buffers() {
        let mut e = engine(4);
        let mut buf = Vec::new();
        let stir = |e: &mut Engine<GNode, UniformRandom>, base: u32| {
            for i in 0..8usize {
                e.inject(
                    i * 7,
                    (i * 13 + 1) % N,
                    GMsg::Rumor {
                        ttl: 6,
                        tag: base + i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
        };
        stir(&mut e, 0);
        let first = {
            let st = e.stats();
            (st.total_msgs, st.total_bytes)
        };
        let again = {
            let st = e.stats();
            (st.total_msgs, st.total_bytes)
        };
        assert_eq!(first, again, "stats() must be a pure merge");
        e.drain_outputs_into(&mut buf);
        assert!(!buf.is_empty());
        let drained = buf.len();
        assert!(
            e.out_scratch_capacity() >= drained,
            "staging buffer must be retained for the next round"
        );
        e.drain_outputs_into(&mut buf);
        assert!(buf.is_empty(), "a second drain finds nothing");
        // Another round reuses both the caller's and the engine's
        // buffers; the results must match the allocating path.
        stir(&mut e, 100);
        e.drain_outputs_into(&mut buf);
        assert!(!buf.is_empty());
    }

    #[test]
    fn traced_faulty_runs_are_shard_count_independent() {
        let run = |shards: usize, trace: bool| {
            let mut e = engine(shards);
            if trace {
                e.set_tracing(TraceConfig::full());
                e.set_series(SeriesConfig::new(1_000));
            }
            e.set_faults(
                FaultConfig {
                    loss: 0.15,
                    duplicate: 0.1,
                    jitter_us: 900,
                },
                4242,
            );
            for i in 0..10 {
                e.inject(
                    i * 5,
                    (i * 11 + 3) % N,
                    GMsg::Rumor {
                        ttl: 10,
                        tag: i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
            let t = e.take_tracer();
            let series_fp = t.series().map(|s| s.fingerprint());
            (snapshot(&mut e), t.fingerprint(), series_fp)
        };
        let (untraced, _, _) = run(1, false);
        let (one, fp1, series1) = run(1, true);
        assert_eq!(untraced, one, "tracing must not perturb outcomes");
        assert_ne!(fp1, past_trace::fnv1a(b""), "trace must be non-empty");
        let series1 = series1.expect("series must survive take_tracer");
        for shards in [2, 4] {
            let (s, fps, series) = run(shards, true);
            assert_eq!(one, s, "{shards} shards diverged under tracing");
            assert_eq!(fp1, fps, "{shards}-shard trace fingerprint diverged");
            assert_eq!(
                Some(series1),
                series,
                "{shards}-shard series fingerprint diverged"
            );
        }
    }

    #[test]
    fn one_shard_runs_inline_without_shard_diagnostics() {
        let run = |shards: usize| {
            let mut e = engine(shards);
            e.set_series(SeriesConfig::new(1_000));
            for i in 0..8 {
                e.inject(
                    i * 7,
                    (i * 13 + 1) % N,
                    GMsg::Rumor {
                        ttl: 12,
                        tag: i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
            let t = e.take_tracer();
            let series = t.series().expect("series enabled").clone();
            let diagnostics: usize = series
                .windows()
                .map(|(_, w)| w.shard_counters().count())
                .sum();
            (e.shard_count(), diagnostics, series.fingerprint())
        };
        let (one_shards, one_diag, one_fp) = run(1);
        let (two_shards, two_diag, two_fp) = run(2);
        assert_eq!((one_shards, two_shards), (1, 2));
        assert_eq!(
            one_diag, 0,
            "the inline shard emits no per-shard diagnostics"
        );
        assert!(two_diag > 0, "worker shards report their load");
        assert_eq!(one_fp, two_fp, "diagnostics must not leak into the series");
    }

    /// A toy protocol: Ping is answered with Pong; delivery is emitted.
    #[derive(Clone)]
    enum PingMsg {
        Ping(u32),
        Pong(u32),
    }

    impl Message for PingMsg {
        const KINDS: &'static [&'static str] = &["ping", "pong"];

        fn kind_id(&self) -> usize {
            match self {
                PingMsg::Ping(_) => 0,
                PingMsg::Pong(_) => 1,
            }
        }
    }

    #[derive(Default)]
    struct PingNode {
        pongs: Vec<u32>,
        failures: Vec<Addr>,
        timers: Vec<u64>,
    }

    impl NodeLogic for PingNode {
        type Msg = PingMsg;
        type Out = u32;

        fn on_message(&mut self, from: Addr, msg: PingMsg, ctx: &mut Ctx<'_, PingMsg, u32>) {
            match msg {
                PingMsg::Ping(n) => ctx.send(from, PingMsg::Pong(n + 1)),
                PingMsg::Pong(n) => {
                    self.pongs.push(n);
                    ctx.emit(n);
                }
            }
        }

        fn on_send_failed(&mut self, to: Addr, _msg: PingMsg, _ctx: &mut Ctx<'_, PingMsg, u32>) {
            self.failures.push(to);
        }

        fn on_timer(&mut self, kind: u64, _ctx: &mut Ctx<'_, PingMsg, u32>) {
            self.timers.push(kind);
        }
    }

    type PingEngine = Engine<PingNode, UniformRandom>;

    /// Runs `f` on an `n`-node ping engine twice — once on one inline
    /// shard ([`Engine::new`]), once on 3 worker shards — asserts the
    /// two results are equal, and returns the result.
    fn on_1_and_3_shards<R, F>(n: usize, f: F) -> R
    where
        R: PartialEq + std::fmt::Debug,
        F: Fn(&mut PingEngine) -> R,
    {
        let topo = || UniformRandom::new(n, 42, 1_000, 5_000);
        let nodes = || (0..n).map(|_| PingNode::default()).collect();
        let mut inline = Engine::new(topo(), nodes(), 7);
        assert_eq!(inline.shard_count(), 1);
        let cfg = ShardConfig {
            shards: 3,
            window_us: 1_000,
        };
        let mut threaded = Engine::with_shards(topo(), nodes(), 7, cfg);
        assert!(threaded.shard_count() > 1);
        let one = f(&mut inline);
        assert_eq!(one, f(&mut threaded), "1-shard and 3-shard runs diverged");
        one
    }

    fn lossy(loss: f64, duplicate: f64) -> FaultConfig {
        FaultConfig {
            loss,
            duplicate,
            jitter_us: 0,
        }
    }

    #[test]
    fn ping_pong_roundtrip() {
        let (pongs, outs, ping, pong, total) = on_1_and_3_shards(3, |e| {
            e.inject(0, 2, PingMsg::Ping(10), 0);
            e.run_until_quiet(100);
            let outs = e.drain_outputs();
            let st = e.stats();
            let counts = (st.kind_count("ping"), st.kind_count("pong"), st.total_msgs);
            (e.node(0).pongs.clone(), outs, counts.0, counts.1, counts.2)
        });
        assert_eq!(pongs, vec![11]);
        assert_eq!(outs.len(), 1);
        assert_eq!((outs[0].1, outs[0].2), (0, 11));
        // One ping + one pong accounted.
        assert_eq!((ping, pong, total), (1, 1, 2));
    }

    #[test]
    fn latency_is_topology_delay() {
        let (d, now) = on_1_and_3_shards(3, |e| {
            let d = e.topology().delay_us(0, 2);
            e.inject(0, 2, PingMsg::Ping(0), 0);
            e.run_until_quiet(100);
            (d, e.now().as_micros())
        });
        // Round trip = 2 * one-way delay.
        assert_eq!(now, 2 * d);
    }

    #[test]
    fn dead_node_triggers_send_failed() {
        let (failures, pongs) = on_1_and_3_shards(3, |e| {
            e.kill(1);
            e.inject(0, 1, PingMsg::Ping(0), 0);
            e.run_until_quiet(100);
            (e.node(0).failures.clone(), e.node(0).pongs.clone())
        });
        assert_eq!(failures, vec![1]);
        assert!(pongs.is_empty());
    }

    #[test]
    fn revived_node_answers_again() {
        let pongs = on_1_and_3_shards(3, |e| {
            e.kill(1);
            e.revive(1);
            e.inject(0, 1, PingMsg::Ping(1), 0);
            e.run_until_quiet(100);
            e.node(0).pongs.clone()
        });
        assert_eq!(pongs, vec![2]);
    }

    #[test]
    fn timers_fire_in_order() {
        let timers = on_1_and_3_shards(3, |e| {
            e.arm_timer(2, 500, 2);
            e.arm_timer(2, 100, 1);
            e.run_until_quiet(10);
            e.node(2).timers.clone()
        });
        assert_eq!(timers, vec![1, 2]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let (early, now, late) = on_1_and_3_shards(3, |e| {
            e.arm_timer(0, 1_000, 1);
            e.arm_timer(2, 10_000, 2);
            e.inject(0, 2, PingMsg::Ping(0), 0);
            e.run_until(SimTime::from_micros(5_000));
            let early = (e.node(0).timers.clone(), e.node(2).timers.clone());
            let now = e.now();
            e.run_until_quiet(10);
            (
                early,
                now,
                (e.node(0).timers.clone(), e.node(2).timers.clone()),
            )
        });
        assert_eq!(early, (vec![1], vec![]));
        assert_eq!(now, SimTime::from_micros(5_000));
        assert_eq!(late, (vec![1], vec![2]));
    }

    #[test]
    fn lost_messages_produce_no_send_failure() {
        let (failures, pongs, dropped, total) = on_1_and_3_shards(3, |e| {
            e.set_faults(lossy(1.0, 0.0), 7);
            e.inject(0, 1, PingMsg::Ping(1), 0);
            e.run_until_quiet(100);
            let st = e.stats();
            let counts = (st.dropped, st.total_msgs);
            (
                e.node(0).failures.clone(),
                e.node(0).pongs.clone(),
                counts.0,
                counts.1,
            )
        });
        assert!(failures.is_empty(), "loss must be silent");
        assert!(pongs.is_empty());
        assert_eq!(dropped, 1);
        // Accounting still counts the send: the bytes hit the wire.
        assert_eq!(total, 1);
    }

    #[test]
    fn self_sends_are_exempt_from_loss() {
        let (pongs, dropped) = on_1_and_3_shards(3, |e| {
            e.set_faults(lossy(1.0, 0.0), 7);
            // 0 → 0: the ping crosses no link, so it must arrive; the
            // pong back to self is likewise exempt.
            e.inject(0, 0, PingMsg::Ping(5), 0);
            e.run_until_quiet(100);
            (e.node(0).pongs.clone(), e.stats().dropped)
        });
        assert_eq!(pongs, vec![6]);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let (pongs, duplicated) = on_1_and_3_shards(3, |e| {
            e.set_faults(lossy(0.0, 1.0), 7);
            e.inject(0, 1, PingMsg::Ping(1), 0);
            e.run_until_quiet(100);
            (e.node(0).pongs.clone(), e.stats().duplicated)
        });
        // Ping doubled, each answered; pongs doubled again at node 0.
        assert_eq!(pongs, vec![2, 2, 2, 2]);
        assert_eq!(duplicated, 3);
    }

    #[test]
    fn dead_destinations_are_counted() {
        let failed = on_1_and_3_shards(3, |e| {
            e.kill(1);
            e.inject(0, 1, PingMsg::Ping(0), 0);
            e.inject(2, 1, PingMsg::Ping(0), 0);
            e.run_until_quiet(100);
            e.stats().failed_sends
        });
        assert_eq!(failed, 2);
    }

    /// A seeded ping flood under a given fault configuration, folded
    /// into one comparable tuple plus the trace fingerprint.
    fn fault_run(
        e: &mut PingEngine,
        faults: FaultConfig,
        fault_seed: u64,
        trace: TraceConfig,
    ) -> ((SimTime, u64, u64, u64, u64), u64) {
        e.set_faults(faults, fault_seed);
        e.set_tracing(trace);
        for round in 0..50u32 {
            for i in 0..8 {
                e.inject(i, (i + round as usize) % 8, PingMsg::Ping(round), 0);
            }
        }
        e.run_until_quiet(100_000);
        let pongs: u64 = (0..8).map(|a| e.node(a).pongs.len() as u64).sum();
        let (total, dropped, duplicated) = {
            let st = e.stats();
            (st.total_msgs, st.dropped, st.duplicated)
        };
        let tuple = (e.now(), total, dropped, duplicated, pongs);
        (tuple, e.take_tracer().fingerprint())
    }

    const FLOOD_FAULTS: FaultConfig = FaultConfig {
        loss: 0.2,
        duplicate: 0.1,
        jitter_us: 700,
    };

    #[test]
    fn fault_sequences_replay_bit_identically() {
        let run = || on_1_and_3_shards(8, |e| fault_run(e, FLOOD_FAULTS, 99, TraceConfig::off()));
        let (a, _) = run();
        assert_eq!(a, run().0, "same fault seed must reproduce the same run");
        assert!(a.2 > 0, "a 20% loss flood must drop something");
        assert!(a.3 > 0, "a 10% duplicate flood must duplicate something");
    }

    #[test]
    fn fault_seed_changes_the_drop_pattern() {
        let run = |seed| {
            on_1_and_3_shards(8, |e| {
                fault_run(e, lossy(0.2, 0.0), seed, TraceConfig::off())
            })
            .0
        };
        let (a, b) = (run(1), run(2));
        assert_ne!(
            (a.0, a.2),
            (b.0, b.2),
            "different fault seeds should not produce identical runs"
        );
    }

    #[test]
    fn zero_fault_config_is_bit_identical_to_no_faults() {
        let clean = on_1_and_3_shards(8, |e| {
            fault_run(e, FaultConfig::default(), 123, TraceConfig::off()).0
        });
        let untouched = on_1_and_3_shards(8, |e| {
            for round in 0..50u32 {
                for i in 0..8 {
                    e.inject(i, (i + round as usize) % 8, PingMsg::Ping(round), 0);
                }
            }
            e.run_until_quiet(100_000);
            let pongs: u64 = (0..8).map(|a| e.node(a).pongs.len() as u64).sum();
            (e.now(), e.stats().total_msgs, 0, 0, pongs)
        });
        assert_eq!(
            clean, untouched,
            "an all-zero fault config must not perturb the simulation"
        );
    }

    #[test]
    fn tracing_is_off_by_default_and_records_nothing() {
        let (enabled, records, fp) = on_1_and_3_shards(4, |e| {
            for i in 0..4 {
                e.inject(i, (i + 1) % 4, PingMsg::Ping(1), 0);
            }
            e.run_until_quiet(1_000);
            let t = e.take_tracer();
            (e.tracer().enabled(), t.records().len(), t.fingerprint())
        });
        assert!(!enabled);
        assert_eq!(records, 0);
        assert_eq!(fp, past_trace::fnv1a(b""));
    }

    /// Enabling tracing must not perturb a faulty run (the tracer draws
    /// no randomness), and the same seed must reproduce the same trace.
    #[test]
    fn tracing_does_not_perturb_and_replays_bit_identically() {
        let run = |trace| on_1_and_3_shards(8, |e| fault_run(e, FLOOD_FAULTS, 99, trace));
        let (untraced, _) = run(TraceConfig::off());
        let (a_tuple, a_fp) = run(TraceConfig::full());
        let (b_tuple, b_fp) = run(TraceConfig::full());
        assert_eq!(a_tuple, untraced, "tracing must not change outcomes");
        assert_eq!(a_tuple, b_tuple);
        assert_eq!(a_fp, b_fp, "same seed must produce the same trace");
        assert_ne!(a_fp, past_trace::fnv1a(b""));
    }

    #[test]
    fn per_node_io_counters_track_traffic() {
        let (clean, lossy_io) = on_1_and_3_shards(3, |e| {
            e.inject(0, 1, PingMsg::Ping(1), 0);
            e.run_until_quiet(100);
            let clean: Vec<NodeIo> = (0..3).map(|a| e.node_io(a)).collect();
            e.set_faults(lossy(1.0, 0.0), 7);
            e.inject(2, 0, PingMsg::Ping(1), 0);
            e.run_until_quiet(100);
            (clean, e.node_io(2))
        });
        // 0 sent the ping and received the pong; 1 the reverse.
        assert_eq!(clean[0], NodeIo { sent: 1, recv: 1 });
        assert_eq!(clean[1], NodeIo { sent: 1, recv: 1 });
        assert_eq!(clean[2], NodeIo::default());
        // Lost sends still count as sent (the bytes hit the wire).
        assert_eq!(lossy_io, NodeIo { sent: 1, recv: 0 });
    }

    #[test]
    fn in_flight_arena_drains_with_the_queue() {
        let (before, after, pending) = on_1_and_3_shards(4, |e| {
            for i in 0..4 {
                e.inject(i, (i + 1) % 4, PingMsg::Ping(1), 0);
            }
            let before = e.in_flight_msgs();
            e.run_until_quiet(1_000);
            (before, e.in_flight_msgs(), e.pending())
        });
        assert_eq!(before, 4);
        assert_eq!(after, 0, "all payloads reclaimed");
        assert_eq!(pending, 0);
    }

    #[test]
    fn message_plane_events_are_recorded() {
        use past_trace::TraceEvent;
        let (send, recv, fail) = on_1_and_3_shards(3, |e| {
            e.set_tracing(TraceConfig::full());
            e.kill(2);
            e.inject(0, 1, PingMsg::Ping(1), 0);
            e.inject(0, 2, PingMsg::Ping(1), 0);
            e.run_until_quiet(100);
            let t = e.take_tracer();
            let has = |f: &dyn Fn(&TraceEvent) -> bool| t.records().iter().any(|r| f(&r.ev));
            (
                has(&|ev| matches!(ev, TraceEvent::MsgSend { from: 0, to: 1, .. })),
                has(&|ev| matches!(ev, TraceEvent::MsgRecv { to: 1, .. })),
                has(&|ev| matches!(ev, TraceEvent::MsgFail { to: 2, .. })),
            )
        });
        assert!(send && recv && fail);
    }

    /// Message records carry the per-kind fault attribution, and their
    /// counts equal the engine totals in `NetStats`. Fault rates are 0
    /// or 1 so the per-kind counts are exact.
    #[test]
    fn fault_records_match_net_stats() {
        use past_trace::TraceEvent;

        let counts = on_1_and_3_shards(8, |e| {
            e.set_tracing(TraceConfig {
                messages: true,
                ..TraceConfig::off()
            });
            e.kill(7);
            // Duplicating phase: every ping, pong and dead-destination
            // send crosses the link twice.
            e.set_faults(
                FaultConfig {
                    loss: 0.0,
                    duplicate: 1.0,
                    jitter_us: 700,
                },
                5,
            );
            for i in 0..7 {
                e.inject(i, (i + 1) % 8, PingMsg::Ping(i as u32), 0);
            }
            e.run_until_quiet(10_000);
            // Lossy phase: everything on a link is dropped.
            e.set_faults(
                FaultConfig {
                    loss: 1.0,
                    duplicate: 0.0,
                    jitter_us: 700,
                },
                6,
            );
            for i in 0..5 {
                e.inject(i, i + 2, PingMsg::Ping(0), 0);
            }
            for i in 0..3 {
                e.inject(i, i + 1, PingMsg::Pong(0), 0);
            }
            e.run_until_quiet(10_000);

            let mut by_kind = [[0u64; 2]; 3];
            for r in e.take_tracer().records() {
                match r.ev {
                    TraceEvent::MsgDrop { kind, .. } => by_kind[0][kind] += 1,
                    TraceEvent::MsgDup { kind, .. } => by_kind[1][kind] += 1,
                    TraceEvent::MsgFail { kind, .. } => by_kind[2][kind] += 1,
                    _ => {}
                }
            }
            let st = e.stats();
            let totals = by_kind.map(|k| k.iter().sum::<u64>());
            assert_eq!(totals, [st.dropped, st.duplicated, st.failed_sends]);
            by_kind
        });
        // 6 pings + 12 pongs duplicated on live links, the ping to node
        // 7 duplicated and failed twice; 5 pings and 3 pongs dropped.
        assert_eq!(counts, [[5, 3], [7, 12], [2, 0]]);
    }
}
