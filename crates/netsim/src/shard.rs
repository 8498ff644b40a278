//! Opt-in sharded engine: deterministic parallel simulation.
//!
//! [`ShardedEngine`] partitions nodes contiguously across worker
//! threads and advances them in conservative time windows: within a
//! window every shard executes its own events independently, and every
//! inter-node message — even between nodes of the same shard — travels
//! through *sealed batches* that are exchanged at window barriers. The
//! safety condition is that no inter-node message can arrive inside
//! the window it was sent in, which holds whenever the minimum
//! inter-node topology delay is at least [`ShardConfig::window_us`]
//! (validated against [`Topology::min_delay_us`] at construction and
//! re-asserted at runtime).
//!
//! ## Determinism model
//!
//! The sequential [`Engine`](crate::Engine) orders tied events by a
//! *global* push counter and draws faults from one shared RNG — an
//! order that cannot be reproduced by parallel workers. The sharded
//! engine therefore defines its own deterministic domain:
//!
//! - every event carries a key `(time, source node, per-node seq)`;
//!   keys are totally ordered and unique,
//! - each node owns a private protocol RNG and a private fault RNG,
//!   seeded from the run seed and the node address,
//! - batches merge into destination queues keyed by `(time, key)`, so
//!   arrival order on the wire is irrelevant.
//!
//! Per-node decision streams depend only on the sequence of events each
//! node observes, which the key order fixes globally — so a run with
//! one shard and a run with N shards produce bit-identical per-node
//! state, merged [`NetStats`], outputs, and [`fingerprint`]. That claim
//! is what the tests at the bottom of this file pin.
//!
//! [`fingerprint`]: ShardedEngine::fingerprint

use crate::arena::Arena;
use crate::backend::{SimBackend, WindowTooWide};
use crate::engine::{Ctx, Effect, FaultConfig, Message, NetStats, NodeLogic};
use crate::soa::{NodeIo, NodeSlots};
use crate::time::SimTime;
use crate::topology::{mix64, Addr, Topology};
use crate::wheel::TimerWheel;
use past_crypto::rng::Rng;
use past_trace::{SeriesConfig, TraceConfig, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Sharded-engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Worker shard count. The engine may use fewer shards than asked
    /// for if there are not enough nodes to fill them.
    pub shards: usize,
    /// Conservative window width in microseconds. Must not exceed the
    /// minimum inter-node delay of the topology; larger windows mean
    /// fewer barriers.
    pub window_us: u64,
}

/// Event key tie-break: `(source node, per-node sequence)` packed into
/// the wheel's 128-bit tie. Unique per event, identical under any
/// shard count.
fn tie_key(src: Addr, seq: u64) -> u128 {
    ((src as u128) << 64) | seq as u128
}

/// Commutative event digest: folded with wrapping addition so the
/// shard-local accumulation order cannot matter.
fn digest(time: u64, tie: u128, salt: u64) -> u64 {
    mix64(time ^ mix64(tie as u64) ^ mix64((tie >> 64) as u64) ^ salt)
}

/// Shard-local event record; payloads park in the shard's arena.
#[derive(Clone, Copy)]
enum ShardEvent {
    Deliver { from: u32, to: u32, msg: u32 },
    SendFailed { at: u32, dest: u32, msg: u32 },
    Timer { at: u32, kind: u64 },
}

/// A message crossing a shard boundary (payload travels by value; it
/// parks in the destination shard's arena on receipt).
enum WireEvent<M> {
    Deliver { from: u32, to: u32, msg: M },
    SendFailed { at: u32, dest: u32, msg: M },
}

struct Wire<M> {
    time: u64,
    tie: u128,
    ev: WireEvent<M>,
}

struct Shard<N: NodeLogic, T> {
    id: usize,
    /// First global address owned by this shard.
    base: Addr,
    topo: T,
    /// Local node state; local index = global address - `base`.
    nodes: NodeSlots<N>,
    /// Per-node protocol RNGs (global address order).
    rngs: Vec<Rng>,
    /// Per-node fault RNGs, independent of the protocol streams.
    fault_rngs: Vec<Rng>,
    /// Per-node event sequence counters (the key tie-break).
    seqs: Vec<u64>,
    queue: TimerWheel<ShardEvent>,
    arena: Arena<N::Msg>,
    stats: NetStats,
    /// Shard-local trace sink: message-plane events recorded here and
    /// protocol records written by node logic through [`Ctx`] both land
    /// shard-locally; [`ShardedEngine::take_tracer`] merges every
    /// shard's records in canonical order. Off by default.
    tracer: Tracer,
    /// Emissions tagged `(time, event key, per-event index)` so a
    /// global merge is order-deterministic.
    outputs: Vec<(u64, u128, u32, Addr, N::Out)>,
    /// Outbound wires accumulated during the current window.
    wire_buf: Vec<Wire<N::Msg>>,
    now: u64,
    faults: FaultConfig,
    fp: u64,
    events: u64,
    scratch_effects: Vec<Effect<N::Msg>>,
    scratch_emitted: Vec<N::Out>,
}

impl<N: NodeLogic, T: Topology> Shard<N, T> {
    fn next_seq(&mut self, local: usize) -> u64 {
        let s = self.seqs[local];
        self.seqs[local] = s
            .checked_add(1)
            .unwrap_or_else(|| panic!("per-node event sequence wrapped u64"));
        s
    }

    /// Enqueues an already-keyed event whose payload is in hand.
    fn receive_wire(&mut self, w: Wire<N::Msg>) {
        let ev = match w.ev {
            WireEvent::Deliver { from, to, msg } => {
                let msg = self.arena.insert(msg);
                ShardEvent::Deliver { from, to, msg }
            }
            WireEvent::SendFailed { at, dest, msg } => {
                let msg = self.arena.insert(msg);
                ShardEvent::SendFailed { at, dest, msg }
            }
        };
        self.queue.push(w.time, w.tie, ev);
    }

    /// Sender-side half of a message send: accounting, fault draws and
    /// scheduling. Self-sends go straight into the local queue;
    /// anything inter-node lands in `wire_buf` for the caller to route.
    /// Mirrors `Engine::dispatch`, with the shared RNG replaced by the
    /// sender's private fault stream.
    fn dispatch(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
        let li = from - self.base;
        self.stats.total_msgs += 1;
        self.stats.total_bytes += msg.wire_size();
        self.stats.by_kind_mut()[msg.kind_id()] += 1;
        self.nodes.note_sent(li);
        if self.tracer.enabled() {
            self.tracer.msg_send(
                self.now,
                msg.op_id(),
                from,
                to,
                msg.kind_id(),
                msg.wire_size(),
            );
        }
        let base_t = self.now + self.topo.delay_us(from, to) + extra_us;
        if from == to {
            let seq = self.next_seq(li);
            let h = self.arena.insert(msg);
            self.queue.push(
                base_t,
                tie_key(from, seq),
                ShardEvent::Deliver {
                    from: from as u32,
                    to: to as u32,
                    msg: h,
                },
            );
            return;
        }
        let (f32b, t32b) = (from as u32, to as u32);
        if !self.faults.is_active() {
            let seq = self.next_seq(li);
            self.wire_buf.push(Wire {
                time: base_t,
                tie: tie_key(from, seq),
                ev: WireEvent::Deliver {
                    from: f32b,
                    to: t32b,
                    msg,
                },
            });
            return;
        }
        // Per-field gating, like the sequential engine: an inactive
        // fault class draws nothing from the node's fault stream.
        if self.faults.loss > 0.0 && self.fault_rngs[li].random::<f64>() < self.faults.loss {
            self.stats.dropped += 1;
            if self.tracer.enabled() {
                self.tracer
                    .msg_drop(self.now, msg.op_id(), from, to, msg.kind_id());
            }
            return;
        }
        let duplicate = self.faults.duplicate > 0.0
            && self.fault_rngs[li].random::<f64>() < self.faults.duplicate;
        let at = base_t + self.draw_jitter(li);
        if duplicate {
            self.stats.duplicated += 1;
            if self.tracer.enabled() {
                self.tracer
                    .msg_dup(self.now, msg.op_id(), from, to, msg.kind_id());
            }
            let echo = base_t + self.draw_jitter(li);
            let seq = self.next_seq(li);
            self.wire_buf.push(Wire {
                time: echo,
                tie: tie_key(from, seq),
                ev: WireEvent::Deliver {
                    from: f32b,
                    to: t32b,
                    msg: msg.clone(),
                },
            });
        }
        let seq = self.next_seq(li);
        self.wire_buf.push(Wire {
            time: at,
            tie: tie_key(from, seq),
            ev: WireEvent::Deliver {
                from: f32b,
                to: t32b,
                msg,
            },
        });
    }

    fn draw_jitter(&mut self, local: usize) -> u64 {
        if self.faults.jitter_us > 0 {
            self.fault_rngs[local].random_range(0..=self.faults.jitter_us)
        } else {
            0
        }
    }

    fn invoke<F>(&mut self, at: Addr, cur_tie: u128, f: F)
    where
        F: FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Out>),
    {
        let li = at - self.base;
        let mut effects = std::mem::take(&mut self.scratch_effects);
        let mut emitted = std::mem::take(&mut self.scratch_emitted);
        debug_assert!(effects.is_empty() && emitted.is_empty());
        let mut ctx = Ctx {
            now: SimTime::from_micros(self.now),
            me: at,
            rng: &mut self.rngs[li],
            tracer: &mut self.tracer,
            topo: &self.topo,
            effects: &mut effects,
            emitted: &mut emitted,
        };
        f(self.nodes.logic_mut(li), &mut ctx);
        for (k, out) in emitted.drain(..).enumerate() {
            self.outputs.push((self.now, cur_tie, k as u32, at, out));
        }
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg, extra_us } => self.dispatch(at, to, msg, extra_us),
                Effect::Timer { delay_us, kind } => {
                    let seq = self.next_seq(li);
                    self.queue.push(
                        self.now + delay_us,
                        tie_key(at, seq),
                        ShardEvent::Timer {
                            at: at as u32,
                            kind,
                        },
                    );
                }
            }
        }
        self.scratch_effects = effects;
        self.scratch_emitted = emitted;
    }

    /// Executes every local event strictly before `window_end`;
    /// returns the number executed. Outbound wires accumulate in
    /// `wire_buf`.
    fn run_window(&mut self, window_end: u64) -> u64 {
        let mut count = 0u64;
        loop {
            match self.queue.peek_time() {
                Some(t) if t < window_end => {}
                _ => break,
            }
            let Some((t, tie, ev)) = self.queue.pop() else {
                break;
            };
            self.now = t;
            self.events += 1;
            count += 1;
            // Flight-recorder progress counter, keyed on event time:
            // the merged per-window totals depend only on the event
            // multiset, never on the shard layout.
            if let Some(s) = self.tracer.series_mut() {
                s.note_event(t);
            }
            match ev {
                ShardEvent::Deliver { from, to, msg } => {
                    self.fp = self.fp.wrapping_add(digest(t, tie, 1));
                    let (from, to) = (from as Addr, to as Addr);
                    let li = to - self.base;
                    let m = self.arena.take(msg);
                    if !self.nodes.is_alive(li) {
                        self.stats.failed_sends += 1;
                        if self.tracer.enabled() {
                            self.tracer.msg_fail(t, m.op_id(), from, to, m.kind_id());
                        }
                        // Timeout model: bounce a failure notice to the
                        // sender one further delay later. Unlike the
                        // sequential engine we cannot consult the
                        // (possibly remote) sender's liveness here; the
                        // notice is dropped on arrival if the sender is
                        // dead, which leaves every counter identical.
                        if from != to {
                            let back = self.topo.delay_us(to, from);
                            let seq = self.next_seq(li);
                            self.wire_buf.push(Wire {
                                time: self.now + back,
                                tie: tie_key(to, seq),
                                ev: WireEvent::SendFailed {
                                    at: from as u32,
                                    dest: to as u32,
                                    msg: m,
                                },
                            });
                        }
                        continue;
                    }
                    if self.tracer.enabled() {
                        self.tracer.msg_recv(t, m.op_id(), from, to, m.kind_id());
                    }
                    self.nodes.note_recv(li);
                    self.invoke(to, tie, |node, ctx| node.on_message(from, m, ctx));
                }
                ShardEvent::SendFailed { at, dest, msg } => {
                    self.fp = self.fp.wrapping_add(digest(t, tie, 2));
                    let (at, dest) = (at as Addr, dest as Addr);
                    let m = self.arena.take(msg);
                    if self.nodes.is_alive(at - self.base) {
                        self.invoke(at, tie, |node, ctx| node.on_send_failed(dest, m, ctx));
                    }
                }
                ShardEvent::Timer { at, kind } => {
                    self.fp = self.fp.wrapping_add(digest(t, tie, 3 ^ mix64(kind)));
                    let at = at as Addr;
                    if self.nodes.is_alive(at - self.base) {
                        self.invoke(at, tie, |node, ctx| node.on_timer(kind, ctx));
                    }
                }
            }
        }
        count
    }
}

/// The sharded parallel engine. See the module docs for the model.
pub struct ShardedEngine<N: NodeLogic, T: Topology + Clone> {
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
    /// at push time and on [`set_faults`](ShardedEngine::set_faults).
    fault_seed: u64,
    faults: FaultConfig,
    epoch: u64,
    /// Harness-side RNG, separate from every node's protocol stream but
    /// seeded like the sequential engine's shared RNG, so harness draw
    /// sequences match across backends between runs.
    rng: Rng,
    /// Harness-side trace sink (op lifecycle records); merged with the
    /// shard-local sinks by [`take_tracer`](ShardedEngine::take_tracer).
    harness_tracer: Tracer,
    /// Reused by [`stats`](ShardedEngine::stats): the per-round merge
    /// writes into this cache instead of allocating a fresh block.
    stats_cache: NetStats,
    /// Reused by [`drain_outputs_into`](ShardedEngine::drain_outputs_into)
    /// as the merge-and-sort staging buffer.
    out_scratch: Vec<(u64, u128, u32, Addr, N::Out)>,
}

impl<N, T> ShardedEngine<N, T>
where
    N: NodeLogic + Send,
    N::Msg: Send,
    N::Out: Send,
    T: Topology + Clone + Send,
{
    /// Builds an empty sharded engine over the topology's full address
    /// space, partitioned contiguously into (up to) `cfg.shards`
    /// shards. Nodes are added with [`push_node`](ShardedEngine::push_node).
    ///
    /// Rejects a window wider than the topology's minimum inter-node
    /// delay: such a window could deliver a message inside the window
    /// it was sent in, which the sealed-batch exchange cannot express.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty, exceeds the `u32` address
    /// space, or the window is zero.
    pub fn try_new(
        topo: T,
        seed: u64,
        cfg: ShardConfig,
    ) -> Result<ShardedEngine<N, T>, WindowTooWide> {
        let cap = topo.len();
        assert!(cap > 0, "sharded engine needs a topology with slots");
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
        let shards = (0..count)
            .map(|id| Shard {
                id,
                base: id * chunk,
                topo: topo.clone(),
                nodes: NodeSlots::new(),
                rngs: Vec::new(),
                fault_rngs: Vec::new(),
                seqs: Vec::new(),
                queue: TimerWheel::new(),
                arena: Arena::new(),
                stats: NetStats::for_kinds(N::Msg::KINDS),
                tracer: Tracer::for_kinds(N::Msg::KINDS),
                outputs: Vec::new(),
                wire_buf: Vec::new(),
                now: 0,
                faults: FaultConfig::default(),
                fp: 0,
                events: 0,
                scratch_effects: Vec::new(),
                scratch_emitted: Vec::new(),
            })
            .collect();
        Ok(ShardedEngine {
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

    /// Builds a sharded engine over `nodes`, partitioned contiguously.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, exceeds the topology, the window is
    /// zero, or the window is wider than the topology's minimum delay
    /// (use [`try_new`](ShardedEngine::try_new) to handle that case).
    pub fn new(topo: T, nodes: Vec<N>, seed: u64, cfg: ShardConfig) -> ShardedEngine<N, T> {
        assert!(!nodes.is_empty(), "sharded engine needs at least one node");
        assert!(nodes.len() <= topo.len(), "more nodes than topology slots");
        // Shard layout is capacity-based (`topo.len()`), not
        // node-count-based: when the node set fills the topology the
        // chunking is identical to the historical node-count layout,
        // and when it doesn't, growth via `push_node` never needs to
        // re-partition.
        let mut e = Self::try_new(topo, seed, cfg).unwrap_or_else(|err| panic!("{err}"));
        for node in nodes {
            e.push_node(node);
        }
        e.epoch = 0;
        e
    }

    fn shard_of(&self, a: Addr) -> usize {
        a / self.chunk
    }

    /// Adds a node (returns its address). Addresses are dense in push
    /// order; the owning shard is fixed by the contiguous layout. The
    /// node's protocol stream derives from the construction seed and
    /// its fault stream from the current fault seed, exactly as if it
    /// had been present at construction — so growth is shard-count
    /// independent.
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
    /// `extra` nodes, so bulk builds grow each shard's arrays once.
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

    /// True if the engine has no nodes (never: construction requires
    /// one, but the pair with [`len`](ShardedEngine::len) is idiomatic).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of worker shards actually in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Global simulated time: all shards agree between runs.
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

    /// Membership epoch: bumped on every push/kill/revive, mirroring
    /// the sequential engine's cache-invalidation contract.
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

    /// The harness-side RNG (sampling, id generation). Seeded like the
    /// sequential engine's shared RNG but never touched by node logic,
    /// whose draws come from per-node streams.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Per-node traffic counters.
    pub fn node_io(&self, a: Addr) -> NodeIo {
        let s = &self.shards[self.shard_of(a)];
        s.nodes.io(a - s.base)
    }

    /// Liveness of a node.
    pub fn is_alive(&self, a: Addr) -> bool {
        let s = &self.shards[self.shard_of(a)];
        s.nodes.is_alive(a - s.base)
    }

    /// Marks a node dead (between runs).
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

    /// Enables (or reconfigures) link-fault injection. Every node's
    /// fault stream is reseeded from `seed` and its address; nodes
    /// pushed later derive their streams from the same seed.
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
    /// sink and every shard-local sink.
    pub fn set_tracing(&mut self, cfg: TraceConfig) {
        self.harness_tracer.configure(cfg);
        for s in self.shards.iter_mut() {
            s.tracer.configure(cfg);
        }
    }

    /// Attaches a flight recorder to the harness sink and every
    /// shard-local sink. Shard series merge into the harness series in
    /// [`take_tracer`](ShardedEngine::take_tracer); the merged series
    /// is identical under any shard count (pinned by the differential
    /// tests).
    pub fn set_series(&mut self, cfg: SeriesConfig) {
        self.harness_tracer.set_series(cfg);
        for s in self.shards.iter_mut() {
            s.tracer.set_series(cfg);
        }
    }

    /// The harness-side trace sink. Shard-local records (message plane,
    /// per-hop protocol events) are *not* visible here until
    /// [`take_tracer`](ShardedEngine::take_tracer) merges them.
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

    /// Injects a message from `from` to `to` (between runs). The fault
    /// model applies, drawn from the sender's fault stream.
    pub fn inject(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
        let sh = self.shard_of(from);
        self.shards[sh].dispatch(from, to, msg, extra_us);
        self.route_pending_wires(sh);
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

    /// Routes wires produced by a between-runs dispatch straight into
    /// destination queues (no window constraint applies: nothing is
    /// executing).
    fn route_pending_wires(&mut self, src: usize) {
        let wires = std::mem::take(&mut self.shards[src].wire_buf);
        for w in wires {
            let to = match &w.ev {
                WireEvent::Deliver { to, .. } => *to as Addr,
                WireEvent::SendFailed { at, .. } => *at as Addr,
            };
            let sh = self.shard_of(to);
            self.shards[sh].receive_wire(w);
        }
    }

    /// Total pending events across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Merged traffic counters across all shards. Adapter loops read
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

    /// Events executed so far, summed over shards.
    pub fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
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

    /// Runs shards in parallel until the whole simulation quiesces or
    /// at least `max_events` have executed (checked at window
    /// boundaries, so slightly more may run). Returns events executed
    /// this call.
    pub fn run_until_quiet(&mut self, max_events: u64) -> u64 {
        let s = self.shards.len();
        let window = self.window_us;
        let shared = Shared {
            barrier: Barrier::new(s),
            mins: (0..s).map(|_| AtomicU64::new(u64::MAX)).collect(),
            total: AtomicU64::new(0),
            mail: (0..s)
                .map(|_| (0..s).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            poisoned: AtomicBool::new(false),
            poison: Mutex::new(None),
        };
        let chunk = self.chunk;
        std::thread::scope(|scope| {
            for shard in self.shards.iter_mut() {
                let shared = &shared;
                scope.spawn(move || {
                    worker(shard, shared, chunk, window, max_events);
                });
            }
        });
        // A worker panic (window violation, node-logic bug) is caught in
        // the worker so its peers can leave the barrier protocol
        // cleanly; surface it here on the caller's thread.
        let poison = shared
            .poison
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(p) = poison {
            std::panic::resume_unwind(p);
        }
        // Re-sync shard clocks so between-run harness actions (inject,
        // arm_timer) use the same global time under any shard count.
        let g = self.shards.iter().map(|sh| sh.now).max().unwrap_or(0);
        for sh in self.shards.iter_mut() {
            sh.now = g;
        }
        shared.total.into_inner()
    }
}

impl<N, T> SimBackend<N> for ShardedEngine<N, T>
where
    N: NodeLogic + Send,
    N::Msg: Send,
    N::Out: Send,
    T: Topology + Clone + Send,
{
    type Topo = T;

    fn len(&self) -> usize {
        ShardedEngine::len(self)
    }

    fn now(&self) -> SimTime {
        ShardedEngine::now(self)
    }

    fn topology(&self) -> &T {
        ShardedEngine::topology(self)
    }

    fn node(&self, a: Addr) -> &N {
        ShardedEngine::node(self, a)
    }

    fn node_mut(&mut self, a: Addr) -> &mut N {
        ShardedEngine::node_mut(self, a)
    }

    fn node_io(&self, a: Addr) -> NodeIo {
        ShardedEngine::node_io(self, a)
    }

    fn reserve_nodes(&mut self, extra: usize) {
        ShardedEngine::reserve_nodes(self, extra)
    }

    fn push_node(&mut self, node: N) -> Addr {
        ShardedEngine::push_node(self, node)
    }

    fn is_alive(&self, a: Addr) -> bool {
        ShardedEngine::is_alive(self, a)
    }

    fn kill(&mut self, a: Addr) {
        ShardedEngine::kill(self, a)
    }

    fn revive(&mut self, a: Addr) {
        ShardedEngine::revive(self, a)
    }

    fn epoch(&self) -> u64 {
        ShardedEngine::epoch(self)
    }

    fn live_addrs(&self) -> Vec<Addr> {
        ShardedEngine::live_addrs(self)
    }

    fn rng(&mut self) -> &mut Rng {
        ShardedEngine::rng(self)
    }

    fn set_faults(&mut self, faults: FaultConfig, seed: u64) {
        ShardedEngine::set_faults(self, faults, seed)
    }

    fn faults(&self) -> FaultConfig {
        ShardedEngine::faults(self)
    }

    fn set_tracing(&mut self, cfg: TraceConfig) {
        ShardedEngine::set_tracing(self, cfg)
    }

    fn set_series(&mut self, cfg: SeriesConfig) {
        ShardedEngine::set_series(self, cfg)
    }

    fn tracer(&self) -> &Tracer {
        ShardedEngine::tracer(self)
    }

    fn tracer_mut(&mut self) -> &mut Tracer {
        ShardedEngine::tracer_mut(self)
    }

    fn take_tracer(&mut self) -> Tracer {
        ShardedEngine::take_tracer(self)
    }

    fn inject(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
        ShardedEngine::inject(self, from, to, msg, extra_us)
    }

    fn arm_timer(&mut self, at: Addr, delay_us: u64, kind: u64) {
        ShardedEngine::arm_timer(self, at, delay_us, kind)
    }

    fn run_until_quiet(&mut self, max_events: u64) -> u64 {
        ShardedEngine::run_until_quiet(self, max_events)
    }

    fn pending(&self) -> usize {
        ShardedEngine::pending(self)
    }

    fn drain_outputs(&mut self) -> Vec<(SimTime, Addr, N::Out)> {
        ShardedEngine::drain_outputs(self)
    }

    fn stats(&mut self) -> &NetStats {
        ShardedEngine::stats(self)
    }
}

/// Per-run shared coordination state for the worker threads.
struct Shared<M> {
    barrier: Barrier,
    /// Each shard's earliest pending event time, for the global-min
    /// reduction that places the next window.
    mins: Vec<AtomicU64>,
    /// Events executed so far (the budget check).
    total: AtomicU64,
    /// Sealed-batch mailboxes, `mail[src][dst]`.
    mail: Vec<Vec<Mutex<Vec<Wire<M>>>>>,
    /// Set when any worker's window body panicked; everyone exits at
    /// the next barrier instead of deadlocking on the missing peer.
    poisoned: AtomicBool,
    /// The first caught panic payload, re-thrown by the caller.
    poison: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// One shard's window loop. All shards execute the same barrier
/// sequence and read reduction inputs only after a barrier, so every
/// shard takes the break branches on the same round.
fn worker<N, T>(
    shard: &mut Shard<N, T>,
    shared: &Shared<N::Msg>,
    chunk: usize,
    window_us: u64,
    max_events: u64,
) where
    N: NodeLogic,
    T: Topology,
{
    let me = shard.id;
    let s = shared.mins.len();
    loop {
        // Absorb batches sealed last round, in deterministic shard
        // order (irrelevant to outcomes — keys order the queue — but
        // cheap to keep canonical).
        for src in 0..s {
            let mut inbox = shared.mail[src][me]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for w in inbox.drain(..) {
                shard.receive_wire(w);
            }
        }
        shared.mins[me].store(
            shard.queue.peek_time().unwrap_or(u64::MAX),
            Ordering::SeqCst,
        );
        // Seal this round's budget/poison view *before* the barrier.
        // Writes to `total` and `poisoned` only happen in window
        // phases, which both barriers bracket, so reads taken in the
        // inter-barrier gap cannot race with them: every worker sees
        // the same values and takes the same break branch. (Reading
        // after the barrier would race with a faster peer's
        // current-round `fetch_add` and deadlock the barrier protocol
        // when the budget threshold lands inside that window.)
        let total = shared.total.load(Ordering::SeqCst);
        let poisoned = shared.poisoned.load(Ordering::SeqCst);
        shared.barrier.wait();
        let gmin = shared
            .mins
            .iter()
            .map(|m| m.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        if gmin == u64::MAX || total >= max_events || poisoned {
            break;
        }
        // Flight-recorder engine gauges, sampled by *every* shard at
        // the global minimum `gmin` — the same instant under any shard
        // count. Mailboxes were absorbed above, so the shard queues
        // and arenas partition the global pending set: equal-time
        // samples sum on merge into the global queue depth and
        // in-flight count, bit-identical from 1 shard to N.
        if shard.tracer.series_enabled() {
            let (q, a) = (shard.queue.len() as u64, shard.arena.len() as u64);
            if let Some(srs) = shard.tracer.series_mut() {
                srs.gauge(gmin, "queue_depth", q);
                srs.gauge(gmin, "in_flight_msgs", a);
                srs.shard_gauge(gmin, me, "queue_depth", q);
            }
        }
        // Skip ahead: the window starts at the global minimum, so idle
        // stretches cost one barrier round, not one round per window.
        let window_end = gmin.saturating_add(window_us);
        // The window body can panic (window-safety violation, a bug in
        // node logic). Catch it so the peers can leave the barrier
        // protocol instead of deadlocking on a dead thread; the payload
        // is re-thrown by `run_until_quiet` on the caller's thread.
        let body = std::panic::AssertUnwindSafe(|| {
            let count = shard.run_window(window_end);
            shared.total.fetch_add(count, Ordering::SeqCst);
            // Per-shard load diagnostic (fingerprint-excluded: the
            // split of events over shards depends on the shard count).
            if count > 0 {
                if let Some(srs) = shard.tracer.series_mut() {
                    srs.shard_bump(window_end - 1, me, "events", count);
                }
            }
            ship_window(shard, shared, me, chunk, s, window_end);
        });
        if let Err(p) = std::panic::catch_unwind(body) {
            let mut slot = shared.poison.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(p);
            }
            shared.poisoned.store(true, Ordering::SeqCst);
        }
        shared.barrier.wait();
    }
}

/// Seals the window's outbound wires into per-destination batches.
fn ship_window<N, T>(
    shard: &mut Shard<N, T>,
    shared: &Shared<N::Msg>,
    me: usize,
    chunk: usize,
    s: usize,
    window_end: u64,
) where
    N: NodeLogic,
    T: Topology,
{
    let wires = std::mem::take(&mut shard.wire_buf);
    // Sealed-batch size and window-completion lag (how far behind the
    // window edge this shard stopped executing — a barrier-stall
    // proxy, in simulated microseconds). Both are per-shard
    // diagnostics, excluded from the series fingerprint.
    if let Some(srs) = shard.tracer.series_mut() {
        srs.shard_bump(window_end - 1, me, "batch_msgs", wires.len() as u64);
        srs.shard_gauge(
            window_end - 1,
            me,
            "stall_us",
            window_end.saturating_sub(shard.now),
        );
    }
    if wires.is_empty() {
        return;
    }
    let mut sorted: Vec<Vec<Wire<N::Msg>>> = (0..s).map(|_| Vec::new()).collect();
    for w in wires {
        assert!(
            w.time >= window_end,
            "inter-node delay shorter than the shard window \
             ({} < {window_end}): lower ShardConfig::window_us below \
             the topology's minimum inter-node delay",
            w.time
        );
        let to = match &w.ev {
            WireEvent::Deliver { to, .. } => *to as Addr,
            WireEvent::SendFailed { at, .. } => *at as Addr,
        };
        sorted[to / chunk].push(w);
    }
    for (t, batch) in sorted.into_iter().enumerate() {
        if !batch.is_empty() {
            shared.mail[me][t]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(batch);
        }
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

    fn engine(shards: usize) -> ShardedEngine<GNode, UniformRandom> {
        let nodes = (0..N).map(|_| GNode::default()).collect();
        ShardedEngine::new(
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
        e: &mut ShardedEngine<GNode, UniformRandom>,
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
        let Err(err) = ShardedEngine::<GNode, UniformRandom>::try_new(
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
        let _: ShardedEngine<GNode, UniformRandom> = ShardedEngine::new(
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
        let mut e: ShardedEngine<GNode, UniformRandom> = ShardedEngine::try_new(
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
        let stir = |e: &mut ShardedEngine<GNode, UniformRandom>, base: u32| {
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
}
