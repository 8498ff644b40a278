//! The discrete-event message engine.
//!
//! Nodes are state machines implementing [`NodeLogic`]; the engine owns
//! them, delivers messages with topology-derived latency, models node
//! failure (messages to a dead node produce a delayed send-failure
//! notification at the sender, standing in for a timeout), and counts
//! traffic per message kind.
//!
//! Everything is deterministic: a single seeded RNG, and an event queue
//! ordered by `(time, sequence number)`.

use crate::arena::Arena;
use crate::event::EventQueue;
use crate::soa::{NodeIo, NodeSlots};
use crate::time::SimTime;
use crate::topology::{Addr, Topology};
use past_crypto::rng::Rng;
use past_trace::{OpId, SeriesConfig, TraceConfig, Tracer};

/// A simulated wire message.
pub trait Message: Clone {
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

/// Per-node protocol logic driven by the engine.
pub trait NodeLogic {
    /// The wire message type.
    type Msg: Message;
    /// Out-of-band observations surfaced to the experiment harness
    /// (delivery records, receipts, rejections, ...).
    type Out;

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

/// Compact `Copy` event record carried by the queue.
///
/// Message payloads park in the engine's [`Arena`]; the record holds
/// only the `u32` slot handle, so the queue moves fixed-size records
/// instead of full protocol messages and queue growth never re-copies
/// payloads. Addresses are `u32` for the same reason (the engine
/// asserts the node count fits).
#[derive(Clone, Copy)]
enum EventRec {
    Deliver { from: u32, to: u32, msg: u32 },
    SendFailed { at: u32, dest: u32, msg: u32 },
    Timer { at: u32, kind: u64 },
}

/// Link-fault injection parameters.
///
/// The all-zero default disables fault injection entirely: no RNG draws
/// happen, so a faultless engine is bit-identical to one that never heard
/// of faults. Faults are drawn from a dedicated RNG (seeded by
/// [`Engine::set_faults`]), independent of the protocol RNG, so enabling
/// them never perturbs routing/tie-break decisions and identical seeds
/// reproduce identical drop/duplicate/jitter sequences.
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
/// simulation RNG.
pub struct Ctx<'a, M, O> {
    /// Current simulated time.
    pub now: SimTime,
    /// Address of the node being invoked.
    pub me: Addr,
    /// The simulation RNG (shared, seeded once per engine).
    pub rng: &'a mut Rng,
    /// The engine's trace sink. Node logic records protocol-level
    /// events (route hops, join phases, operation lifecycle) here; the
    /// engine itself records the message plane. No-op unless enabled
    /// via [`Engine::set_tracing`].
    pub tracer: &'a mut Tracer,
    // `pub(crate)` rather than private: the sharded engine
    // ([`crate::shard`]) constructs the same context for its workers.
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

    /// Pairwise delay between two arbitrary nodes.
    pub fn delay_between(&self, a: Addr, b: Addr) -> u64 {
        self.topo.delay_us(a, b)
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

    /// Mutable per-kind counters (the sharded engine accounts sends on
    /// its own shard-local stats blocks).
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

/// The discrete-event engine binding nodes, topology and the event queue.
pub struct Engine<N: NodeLogic, T: Topology> {
    topo: T,
    nodes: NodeSlots<N>,
    queue: EventQueue<EventRec>,
    // In-flight message payloads, addressed by the `msg` handle in
    // [`EventRec`]. Slots recycle, so the steady-state event loop
    // allocates nothing per message.
    arena: Arena<N::Msg>,
    rng: Rng,
    faults: FaultConfig,
    // Separate from `rng` so enabling faults never shifts protocol
    // decisions, and a fault sequence depends only on its own seed.
    fault_rng: Rng,
    now: SimTime,
    /// Traffic counters (public so harnesses can reset/read them).
    pub stats: NetStats,
    tracer: Tracer,
    outputs: Vec<(SimTime, Addr, N::Out)>,
    epoch: u64,
    scratch_effects: Vec<Effect<N::Msg>>,
    scratch_emitted: Vec<N::Out>,
}

impl<N: NodeLogic, T: Topology> Engine<N, T> {
    /// Creates an engine over `nodes` (one per topology slot prefix).
    ///
    /// # Panics
    ///
    /// Panics if there are more nodes than topology slots.
    pub fn new(topo: T, nodes: Vec<N>, seed: u64) -> Engine<N, T> {
        assert!(
            nodes.len() <= topo.len(),
            "more nodes ({}) than topology slots ({})",
            nodes.len(),
            topo.len()
        );
        assert!(
            nodes.len() < u32::MAX as usize,
            "node address space (u32) exhausted"
        );
        Engine {
            topo,
            nodes: NodeSlots::from_logic(nodes),
            queue: EventQueue::new(),
            arena: Arena::new(),
            rng: Rng::seed_from_u64(seed),
            faults: FaultConfig::default(),
            fault_rng: Rng::seed_from_u64(seed ^ 0x5eed_fa17),
            now: SimTime::ZERO,
            stats: NetStats::for_kinds(N::Msg::KINDS),
            tracer: Tracer::for_kinds(N::Msg::KINDS),
            outputs: Vec::new(),
            epoch: 0,
            scratch_effects: Vec::new(),
            scratch_emitted: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true if the engine has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The topology (proximity oracle).
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Immutable access to a node's state.
    pub fn node(&self, a: Addr) -> &N {
        self.nodes.logic(a)
    }

    /// Mutable access to a node's state (harness-side setup only).
    pub fn node_mut(&mut self, a: Addr) -> &mut N {
        self.nodes.logic_mut(a)
    }

    /// Per-node traffic counters (messages sent / received).
    pub fn node_io(&self, a: Addr) -> NodeIo {
        self.nodes.io(a)
    }

    /// Reserves storage for `extra` additional nodes, so bulk builds
    /// (e.g. a 100k-node overlay) grow the node arrays once instead of
    /// doubling through them.
    pub fn reserve_nodes(&mut self, extra: usize) {
        self.nodes.reserve(extra);
    }

    /// Adds a node (returns its address). The topology must already have a
    /// slot for it.
    pub fn push_node(&mut self, node: N) -> Addr {
        let addr = self.nodes.len();
        assert!(addr < self.topo.len(), "no topology slot for new node");
        assert!(
            addr < u32::MAX as usize,
            "node address space (u32) exhausted"
        );
        self.nodes.push(node);
        self.epoch += 1;
        addr
    }

    /// Liveness of a node.
    pub fn is_alive(&self, a: Addr) -> bool {
        self.nodes.is_alive(a)
    }

    /// Marks a node dead: it silently stops processing and answering.
    pub fn kill(&mut self, a: Addr) {
        self.nodes.set_alive(a, false);
        self.epoch += 1;
    }

    /// Marks a node live again (recovery).
    pub fn revive(&mut self, a: Addr) {
        self.nodes.set_alive(a, true);
        self.epoch += 1;
    }

    /// Membership epoch: incremented on every [`push_node`], [`kill`] and
    /// [`revive`], so harness-side caches over the live-node set can be
    /// invalidated by comparing epochs instead of rescanning.
    ///
    /// [`push_node`]: Engine::push_node
    /// [`kill`]: Engine::kill
    /// [`revive`]: Engine::revive
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Addresses of all live nodes.
    pub fn live_addrs(&self) -> Vec<Addr> {
        self.nodes.live_addrs()
    }

    /// The simulation RNG (harness-side sampling).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Enables (or reconfigures) link-fault injection.
    ///
    /// `seed` initializes the dedicated fault RNG: the same seed and
    /// configuration reproduce the exact same drop/duplicate/jitter
    /// sequence over the same message stream. Passing
    /// [`FaultConfig::default`] turns faults off again.
    pub fn set_faults(&mut self, faults: FaultConfig, seed: u64) {
        assert!((0.0..=1.0).contains(&faults.loss), "loss out of [0,1]");
        assert!(
            (0.0..=1.0).contains(&faults.duplicate),
            "duplicate out of [0,1]"
        );
        self.faults = faults;
        self.fault_rng = Rng::seed_from_u64(seed);
    }

    /// The fault configuration in force.
    pub fn faults(&self) -> FaultConfig {
        self.faults
    }

    /// Selects which trace event classes are recorded. The default is
    /// everything off: record calls return after one branch, no
    /// allocation happens, and simulation outcomes are bit-identical
    /// to an engine that never heard of tracing. Tracing draws no
    /// randomness, so enabling it never perturbs outcomes either.
    pub fn set_tracing(&mut self, cfg: TraceConfig) {
        self.tracer.configure(cfg);
    }

    /// Attaches a flight recorder (sim-time windowed series) to the
    /// trace sink. Like tracing, sampling is observation only: it
    /// draws no randomness and never perturbs event order, so golden
    /// fingerprints stay bit-identical with a series attached.
    pub fn set_series(&mut self, cfg: SeriesConfig) {
        self.tracer.set_series(cfg);
    }

    /// The trace sink (records and flight recorder).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable trace sink access (harness-side op lifecycle records).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Takes the trace sink out of the engine (for post-run analysis),
    /// leaving a fresh disabled tracer behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::replace(&mut self.tracer, Tracer::for_kinds(N::Msg::KINDS))
    }

    /// Injects a message into `to` as if sent by `from`, arriving after the
    /// topology delay (plus `extra_us`).
    pub fn inject(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
        self.dispatch(from, to, msg, extra_us);
    }

    /// Accounts and schedules one message, applying the fault model to
    /// anything that crosses a link (`from != to`). Shared by harness
    /// injection and node-effect sends so both face the same network.
    fn dispatch(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
        self.account(&msg);
        self.nodes.note_sent(from);
        if self.tracer.enabled() {
            let (t, op) = (self.now.as_micros(), msg.op_id());
            self.tracer
                .msg_send(t, op, from, to, msg.kind_id(), msg.wire_size());
        }
        let base = self.now + self.topo.delay_us(from, to) + extra_us;
        let (from, to) = (from as u32, to as u32);
        if from == to || !self.faults.is_active() {
            let msg = self.arena.insert(msg);
            self.queue.push(base, EventRec::Deliver { from, to, msg });
            return;
        }
        // Per-field gating: an inactive fault class draws nothing, so a
        // partially-enabled config stays reproducible field by field.
        if self.faults.loss > 0.0 && self.fault_rng.random::<f64>() < self.faults.loss {
            self.stats.dropped += 1;
            if self.tracer.enabled() {
                let (t, op) = (self.now.as_micros(), msg.op_id());
                self.tracer
                    .msg_drop(t, op, from as Addr, to as Addr, msg.kind_id());
            }
            return;
        }
        let duplicate =
            self.faults.duplicate > 0.0 && self.fault_rng.random::<f64>() < self.faults.duplicate;
        let at = base + self.draw_jitter();
        if duplicate {
            self.stats.duplicated += 1;
            if self.tracer.enabled() {
                let (t, op) = (self.now.as_micros(), msg.op_id());
                self.tracer
                    .msg_dup(t, op, from as Addr, to as Addr, msg.kind_id());
            }
            let echo = base + self.draw_jitter();
            let dup = self.arena.insert(msg.clone());
            self.queue
                .push(echo, EventRec::Deliver { from, to, msg: dup });
        }
        let msg = self.arena.insert(msg);
        self.queue.push(at, EventRec::Deliver { from, to, msg });
    }

    fn draw_jitter(&mut self) -> u64 {
        if self.faults.jitter_us > 0 {
            self.fault_rng.random_range(0..=self.faults.jitter_us)
        } else {
            0
        }
    }

    /// Arms a timer on a node from the harness side.
    pub fn arm_timer(&mut self, at: Addr, delay_us: u64, kind: u64) {
        let at = at as u32;
        self.queue
            .push(self.now + delay_us, EventRec::Timer { at, kind });
    }

    /// Drains observations emitted by node logic since the last call.
    pub fn drain_outputs(&mut self) -> Vec<(SimTime, Addr, N::Out)> {
        std::mem::take(&mut self.outputs)
    }

    fn account(&mut self, msg: &N::Msg) {
        self.stats.total_msgs += 1;
        self.stats.total_bytes += msg.wire_size();
        self.stats.by_kind[msg.kind_id()] += 1;
    }

    /// Processes one event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "time must be monotone");
        self.now = time;
        // Flight-recorder engine gauges: one sample per series window,
        // taken at the window's first event so the sample time is a
        // deterministic function of the event stream alone.
        if self.tracer.series_enabled() {
            let (q, a) = (self.queue.len(), self.arena.len());
            let t = time.as_micros();
            if let Some(s) = self.tracer.series_mut() {
                if s.note_event(t) {
                    s.gauge(t, "queue_depth", q as u64);
                    s.gauge(t, "in_flight_msgs", a as u64);
                }
            }
        }
        match ev {
            EventRec::Deliver { from, to, msg } => {
                let (from, to) = (from as Addr, to as Addr);
                if !self.nodes.is_alive(to) {
                    self.stats.failed_sends += 1;
                    if self.tracer.enabled() {
                        let kid = self.arena.get(msg).kind_id();
                        let (t, op) = (self.now.as_micros(), self.arena.get(msg).op_id());
                        self.tracer.msg_fail(t, op, from, to, kid);
                    }
                    // Timeout model: the sender learns of the failure one
                    // further delay later (round-trip worth in total).
                    if self.nodes.is_alive(from) && from != to {
                        let back = self.topo.delay_us(to, from);
                        // The payload stays parked: the same arena handle
                        // rides the bounce back to the sender.
                        self.queue.push(
                            self.now + back,
                            EventRec::SendFailed {
                                at: from as u32,
                                dest: to as u32,
                                msg,
                            },
                        );
                    } else {
                        drop(self.arena.take(msg));
                    }
                    return true;
                }
                let msg = self.arena.take(msg);
                if self.tracer.enabled() {
                    let (t, op) = (self.now.as_micros(), msg.op_id());
                    self.tracer.msg_recv(t, op, from, to, msg.kind_id());
                }
                self.nodes.note_recv(to);
                self.invoke(to, |node, ctx| node.on_message(from, msg, ctx));
            }
            EventRec::SendFailed { at, dest, msg } => {
                let (at, dest) = (at as Addr, dest as Addr);
                let msg = self.arena.take(msg);
                if self.nodes.is_alive(at) {
                    self.invoke(at, |node, ctx| node.on_send_failed(dest, msg, ctx));
                }
            }
            EventRec::Timer { at, kind } => {
                let at = at as Addr;
                if self.nodes.is_alive(at) {
                    self.invoke(at, |node, ctx| node.on_timer(kind, ctx));
                }
            }
        }
        true
    }

    fn invoke<F>(&mut self, at: Addr, f: F)
    where
        F: FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Out>),
    {
        // Move the engine-owned scratch buffers into the context for the
        // duration of the handler, then drain and restore them. Handlers
        // run once per event, so reusing the buffers removes two heap
        // allocations from every event in the simulation.
        let mut effects = std::mem::take(&mut self.scratch_effects);
        let mut emitted = std::mem::take(&mut self.scratch_emitted);
        debug_assert!(effects.is_empty() && emitted.is_empty());
        let mut ctx = Ctx {
            now: self.now,
            me: at,
            rng: &mut self.rng,
            tracer: &mut self.tracer,
            topo: &self.topo,
            effects: &mut effects,
            emitted: &mut emitted,
        };
        f(self.nodes.logic_mut(at), &mut ctx);
        for out in emitted.drain(..) {
            self.outputs.push((self.now, at, out));
        }
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg, extra_us } => {
                    self.dispatch(at, to, msg, extra_us);
                }
                Effect::Timer { delay_us, kind } => {
                    let at = at as u32;
                    self.queue
                        .push(self.now + delay_us, EventRec::Timer { at, kind });
                }
            }
        }
        self.scratch_effects = effects;
        self.scratch_emitted = emitted;
    }

    /// Runs until the queue drains or `max_events` is hit; returns the
    /// number of events processed.
    pub fn run_until_quiet(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Runs until simulated time reaches `deadline` (events at later times
    /// stay queued); returns events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of message payloads currently parked in flight.
    pub fn in_flight_msgs(&self) -> usize {
        self.arena.len()
    }

    /// Swaps the event queue to the reference binary-heap backend.
    ///
    /// Differential-testing hook: a heap-backed engine must produce
    /// bit-identical runs to the default wheel-backed one. Call before
    /// scheduling anything.
    ///
    /// # Panics
    ///
    /// Panics if events are already pending.
    pub fn use_reference_heap_queue(&mut self) {
        assert!(
            self.queue.is_empty(),
            "cannot swap queue backend with events pending"
        );
        self.queue = EventQueue::new_reference_heap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::UniformRandom;

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

    fn engine(n: usize) -> Engine<PingNode, UniformRandom> {
        let topo = UniformRandom::new(n, 42, 1_000, 5_000);
        let nodes = (0..n).map(|_| PingNode::default()).collect();
        Engine::new(topo, nodes, 7)
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut e = engine(2);
        e.inject(0, 1, PingMsg::Ping(10), 0);
        e.run_until_quiet(100);
        assert_eq!(e.node(0).pongs, vec![11]);
        let outs = e.drain_outputs();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].1, 0);
        assert_eq!(outs[0].2, 11);
        // One ping + one pong accounted.
        assert_eq!(e.stats.kind_count("ping"), 1);
        assert_eq!(e.stats.kind_count("pong"), 1);
        assert_eq!(e.stats.total_msgs, 2);
    }

    #[test]
    fn latency_is_topology_delay() {
        let mut e = engine(2);
        let d = e.topology().delay_us(0, 1);
        e.inject(0, 1, PingMsg::Ping(0), 0);
        e.run_until_quiet(100);
        // Round trip = 2 * one-way delay.
        assert_eq!(e.now().as_micros(), 2 * d);
    }

    #[test]
    fn dead_node_triggers_send_failed() {
        let mut e = engine(2);
        e.kill(1);
        e.inject(0, 1, PingMsg::Ping(0), 0);
        e.run_until_quiet(100);
        assert_eq!(e.node(0).failures, vec![1]);
        assert!(e.node(0).pongs.is_empty());
    }

    #[test]
    fn revived_node_answers_again() {
        let mut e = engine(2);
        e.kill(1);
        e.revive(1);
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        assert_eq!(e.node(0).pongs, vec![2]);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut e = engine(1);
        e.arm_timer(0, 500, 2);
        e.arm_timer(0, 100, 1);
        e.run_until_quiet(10);
        assert_eq!(e.node(0).timers, vec![1, 2]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut e = engine(2);
        e.arm_timer(0, 1_000, 1);
        e.arm_timer(0, 10_000, 2);
        e.run_until(SimTime::from_micros(5_000));
        assert_eq!(e.node(0).timers, vec![1]);
        assert_eq!(e.now(), SimTime::from_micros(5_000));
        e.run_until_quiet(10);
        assert_eq!(e.node(0).timers, vec![1, 2]);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut e = engine(8);
            for i in 0..8 {
                e.inject(i, (i + 1) % 8, PingMsg::Ping(i as u32), 0);
            }
            e.run_until_quiet(1_000);
            (e.now(), e.stats.total_msgs)
        };
        assert_eq!(run(), run());
    }

    /// A seeded ping flood under a given fault configuration, folded into
    /// one comparable tuple.
    fn fault_run(faults: FaultConfig, fault_seed: u64) -> (SimTime, u64, u64, u64, u64) {
        let mut e = engine(8);
        e.set_faults(faults, fault_seed);
        for round in 0..50u32 {
            for i in 0..8 {
                e.inject(i, (i + round as usize) % 8, PingMsg::Ping(round), 0);
            }
        }
        e.run_until_quiet(100_000);
        let pongs: u64 = (0..8).map(|a| e.node(a).pongs.len() as u64).sum();
        (
            e.now(),
            e.stats.total_msgs,
            e.stats.dropped,
            e.stats.duplicated,
            pongs,
        )
    }

    #[test]
    fn fault_sequences_replay_bit_identically() {
        let faults = FaultConfig {
            loss: 0.2,
            duplicate: 0.1,
            jitter_us: 700,
        };
        let a = fault_run(faults, 99);
        let b = fault_run(faults, 99);
        assert_eq!(a, b, "same fault seed must reproduce the same run");
        assert!(a.2 > 0, "a 20% loss flood must drop something");
        assert!(a.3 > 0, "a 10% duplicate flood must duplicate something");
    }

    #[test]
    fn fault_seed_changes_the_drop_pattern() {
        let faults = FaultConfig {
            loss: 0.2,
            duplicate: 0.0,
            jitter_us: 0,
        };
        let a = fault_run(faults, 1);
        let b = fault_run(faults, 2);
        assert_ne!(
            (a.0, a.2),
            (b.0, b.2),
            "different fault seeds should not produce identical runs"
        );
    }

    #[test]
    fn zero_fault_config_is_bit_identical_to_no_faults() {
        let clean = fault_run(FaultConfig::default(), 123);
        let mut e = engine(8);
        for round in 0..50u32 {
            for i in 0..8 {
                e.inject(i, (i + round as usize) % 8, PingMsg::Ping(round), 0);
            }
        }
        e.run_until_quiet(100_000);
        let pongs: u64 = (0..8).map(|a| e.node(a).pongs.len() as u64).sum();
        assert_eq!(
            clean,
            (e.now(), e.stats.total_msgs, 0, 0, pongs),
            "an all-zero fault config must not perturb the simulation"
        );
    }

    #[test]
    fn lost_messages_produce_no_send_failure() {
        let mut e = engine(2);
        e.set_faults(
            FaultConfig {
                loss: 1.0,
                duplicate: 0.0,
                jitter_us: 0,
            },
            7,
        );
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        assert!(e.node(0).failures.is_empty(), "loss must be silent");
        assert!(e.node(0).pongs.is_empty());
        assert_eq!(e.stats.dropped, 1);
        // Accounting still counts the send: the bytes hit the wire.
        assert_eq!(e.stats.total_msgs, 1);
    }

    #[test]
    fn self_sends_are_exempt_from_loss() {
        let mut e = engine(2);
        e.set_faults(
            FaultConfig {
                loss: 1.0,
                duplicate: 0.0,
                jitter_us: 0,
            },
            7,
        );
        // 0 → 0: the ping crosses no link, so it must arrive; the pong
        // back to self is likewise exempt.
        e.inject(0, 0, PingMsg::Ping(5), 0);
        e.run_until_quiet(100);
        assert_eq!(e.node(0).pongs, vec![6]);
        assert_eq!(e.stats.dropped, 0);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let mut e = engine(2);
        e.set_faults(
            FaultConfig {
                loss: 0.0,
                duplicate: 1.0,
                jitter_us: 0,
            },
            7,
        );
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        // Ping doubled, each answered; pongs doubled again at node 0.
        assert_eq!(e.node(0).pongs, vec![2, 2, 2, 2]);
        assert_eq!(e.stats.duplicated, 3);
    }

    #[test]
    fn dead_destinations_are_counted() {
        let mut e = engine(3);
        e.kill(1);
        e.inject(0, 1, PingMsg::Ping(0), 0);
        e.inject(2, 1, PingMsg::Ping(0), 0);
        e.run_until_quiet(100);
        assert_eq!(e.stats.failed_sends, 2);
    }

    #[test]
    fn tracing_is_off_by_default_and_records_nothing() {
        let mut e = engine(4);
        for i in 0..4 {
            e.inject(i, (i + 1) % 4, PingMsg::Ping(1), 0);
        }
        e.run_until_quiet(1_000);
        assert!(!e.tracer().enabled());
        assert!(e.tracer().records().is_empty());
        assert_eq!(e.tracer().fingerprint(), past_trace::fnv1a(b""));
    }

    /// Enabling tracing must not perturb a faulty run (the tracer draws
    /// no randomness), and the same seed must reproduce the same trace.
    #[test]
    fn tracing_does_not_perturb_and_replays_bit_identically() {
        let faults = FaultConfig {
            loss: 0.2,
            duplicate: 0.1,
            jitter_us: 700,
        };
        let untraced = fault_run(faults, 99);
        let traced = |()| {
            let mut e = engine(8);
            e.set_faults(faults, 99);
            e.set_tracing(TraceConfig::full());
            for round in 0..50u32 {
                for i in 0..8 {
                    e.inject(i, (i + round as usize) % 8, PingMsg::Ping(round), 0);
                }
            }
            e.run_until_quiet(100_000);
            let pongs: u64 = (0..8).map(|a| e.node(a).pongs.len() as u64).sum();
            let tuple = (
                e.now(),
                e.stats.total_msgs,
                e.stats.dropped,
                e.stats.duplicated,
                pongs,
            );
            (tuple, e.tracer().fingerprint())
        };
        let (a_tuple, a_fp) = traced(());
        let (b_tuple, b_fp) = traced(());
        assert_eq!(a_tuple, untraced, "tracing must not change outcomes");
        assert_eq!(a_tuple, b_tuple);
        assert_eq!(a_fp, b_fp, "same seed must produce the same trace");
    }

    #[test]
    fn per_node_io_counters_track_traffic() {
        let mut e = engine(3);
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        // 0 sent the ping and received the pong; 1 the reverse.
        assert_eq!(e.node_io(0), crate::soa::NodeIo { sent: 1, recv: 1 });
        assert_eq!(e.node_io(1), crate::soa::NodeIo { sent: 1, recv: 1 });
        assert_eq!(e.node_io(2), crate::soa::NodeIo::default());
        // Lost sends still count as sent (the bytes hit the wire).
        e.set_faults(
            FaultConfig {
                loss: 1.0,
                duplicate: 0.0,
                jitter_us: 0,
            },
            7,
        );
        e.inject(2, 0, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        assert_eq!(e.node_io(2), crate::soa::NodeIo { sent: 1, recv: 0 });
    }

    #[test]
    fn in_flight_arena_drains_with_the_queue() {
        let mut e = engine(4);
        for i in 0..4 {
            e.inject(i, (i + 1) % 4, PingMsg::Ping(1), 0);
        }
        assert_eq!(e.in_flight_msgs(), 4);
        e.run_until_quiet(1_000);
        assert_eq!(e.in_flight_msgs(), 0, "all payloads reclaimed");
        assert_eq!(e.pending(), 0);
    }

    /// The full engine, heap-backed vs. wheel-backed, through a faulty
    /// seeded run: every counter and the simulated clock must match bit
    /// for bit.
    #[test]
    fn reference_heap_engine_matches_wheel_engine() {
        let faults = FaultConfig {
            loss: 0.2,
            duplicate: 0.1,
            jitter_us: 700,
        };
        let run = |reference: bool| {
            let mut e = engine(8);
            if reference {
                e.use_reference_heap_queue();
            }
            e.set_faults(faults, 99);
            e.set_tracing(TraceConfig::full());
            for round in 0..50u32 {
                for i in 0..8 {
                    e.inject(i, (i + round as usize) % 8, PingMsg::Ping(round), 0);
                }
            }
            e.run_until_quiet(100_000);
            let pongs: u64 = (0..8).map(|a| e.node(a).pongs.len() as u64).sum();
            let io: Vec<_> = (0..8).map(|a| e.node_io(a)).collect();
            (
                e.now(),
                e.stats.total_msgs,
                e.stats.dropped,
                e.stats.duplicated,
                pongs,
                io,
                e.tracer().fingerprint(),
            )
        };
        assert_eq!(run(false), run(true), "wheel engine diverged from heap");
    }

    #[test]
    fn message_plane_events_are_recorded() {
        use past_trace::TraceEvent;
        let mut e = engine(3);
        e.set_tracing(TraceConfig::full());
        e.kill(2);
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.inject(0, 2, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        let has = |f: &dyn Fn(&TraceEvent) -> bool| e.tracer().records().iter().any(|r| f(&r.ev));
        assert!(has(&|ev| matches!(
            ev,
            TraceEvent::MsgSend { from: 0, to: 1, .. }
        )));
        assert!(has(&|ev| matches!(ev, TraceEvent::MsgRecv { to: 1, .. })));
        assert!(has(&|ev| matches!(ev, TraceEvent::MsgFail { to: 2, .. })));
    }

    /// Message records carry the per-kind fault attribution: their
    /// counts equal the engine totals in `NetStats` on both backends,
    /// and per kind they agree across backends. The backends draw
    /// faults from different RNG streams (see `backend.rs`), so the
    /// fault rates are 0 or 1 to make the per-kind counts exact.
    #[test]
    fn fault_records_match_net_stats_on_both_backends() {
        use crate::backend::SimBackend;
        use crate::shard::{ShardConfig, ShardedEngine};
        use past_trace::TraceEvent;

        fn run<B: SimBackend<PingNode>>(e: &mut B) -> [[u64; 2]; 3] {
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
        }

        let mut seq = engine(8);
        let topo = UniformRandom::new(8, 42, 1_000, 5_000);
        let nodes = (0..8).map(|_| PingNode::default()).collect();
        let mut sharded = ShardedEngine::new(
            topo,
            nodes,
            7,
            ShardConfig {
                shards: 2,
                window_us: 1_000,
            },
        );
        let seq_counts = run(&mut seq);
        assert_eq!(seq_counts, run(&mut sharded));
        // 6 pings + 12 pongs duplicated on live links, the ping to node
        // 7 duplicated and failed twice; 5 pings and 3 pongs dropped.
        assert_eq!(seq_counts, [[5, 3], [7, 12], [2, 0]]);
    }
}
