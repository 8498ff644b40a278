//! One shard of the [`Engine`](crate::Engine): a contiguous block of
//! nodes with its own event wheel, payload arena, RNG streams, traffic
//! counters and trace sink, plus the window loops that drive shards.
//!
//! With one shard the loop runs *inline* on the caller's thread
//! ([`Shard::run_inline`]): no thread, no barrier, no mailbox, and
//! every send goes straight into the shard's own wheel. With more
//! shards every shard runs on a worker thread ([`run_threaded`]) and
//! inter-node messages travel in sealed batches exchanged at window
//! barriers. Both loops place windows the same way (start at the global
//! earliest event, width [`ShardConfig::window_us`](crate::ShardConfig),
//! budget checked per window), and every inter-node delay is at least
//! one window, so the two execute the same events in the same key order
//! — see the determinism model in [`crate::engine`].

use crate::arena::Arena;
use crate::engine::{Ctx, Effect, FaultConfig, Message, NetStats, NodeLogic};
use crate::soa::NodeSlots;
use crate::time::SimTime;
use crate::topology::{mix64, Addr, Topology};
use crate::wheel::TimerWheel;
use past_crypto::rng::Rng;
use past_trace::Tracer;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Event key tie-break: `(source node, per-node sequence)` packed into
/// the wheel's 128-bit tie. Unique per event, identical under any
/// shard count.
pub(crate) fn tie_key(src: Addr, seq: u64) -> u128 {
    ((src as u128) << 64) | seq as u128
}

/// Commutative event digest: folded with wrapping addition so the
/// shard-local accumulation order cannot matter.
fn digest(time: u64, tie: u128, salt: u64) -> u64 {
    mix64(time ^ mix64(tie as u64) ^ mix64((tie >> 64) as u64) ^ salt)
}

/// Shard-local event record; payloads park in the shard's arena.
#[derive(Clone, Copy)]
pub(crate) enum ShardEvent {
    Deliver { from: u32, to: u32, msg: u32 },
    SendFailed { at: u32, dest: u32, msg: u32 },
    Timer { at: u32, kind: u64 },
}

/// A keyed message event whose payload travels by value; it parks in
/// the destination shard's arena on receipt.
pub(crate) enum WireEvent<M> {
    Deliver { from: u32, to: u32, msg: M },
    SendFailed { at: u32, dest: u32, msg: M },
}

pub(crate) struct Wire<M> {
    pub(crate) time: u64,
    pub(crate) tie: u128,
    pub(crate) ev: WireEvent<M>,
}

impl<M> Wire<M> {
    /// The node this event executes at.
    pub(crate) fn dest(&self) -> Addr {
        match &self.ev {
            WireEvent::Deliver { to, .. } => *to as Addr,
            WireEvent::SendFailed { at, .. } => *at as Addr,
        }
    }
}

pub(crate) struct Shard<N: NodeLogic, T> {
    pub(crate) id: usize,
    /// First global address owned by this shard.
    pub(crate) base: Addr,
    /// The only shard of its engine: sends go straight into `queue`
    /// instead of `wire_buf`, and no per-shard diagnostics are emitted.
    pub(crate) inline: bool,
    pub(crate) topo: T,
    /// Local node state; local index = global address - `base`.
    pub(crate) nodes: NodeSlots<N>,
    /// Per-node protocol RNGs (global address order).
    pub(crate) rngs: Vec<Rng>,
    /// Per-node fault RNGs, independent of the protocol streams.
    pub(crate) fault_rngs: Vec<Rng>,
    /// Per-node event sequence counters (the key tie-break).
    pub(crate) seqs: Vec<u64>,
    pub(crate) queue: TimerWheel<ShardEvent>,
    pub(crate) arena: Arena<N::Msg>,
    pub(crate) stats: NetStats,
    /// Shard-local trace sink: message-plane events recorded here and
    /// protocol records written by node logic through [`Ctx`] both land
    /// shard-locally; `Engine::take_tracer` merges every shard's
    /// records in canonical order. Off by default.
    pub(crate) tracer: Tracer,
    /// Emissions tagged `(time, event key, per-event index)` so a
    /// global merge is order-deterministic.
    pub(crate) outputs: Vec<(u64, u128, u32, Addr, N::Out)>,
    /// Outbound wires accumulated during the current window (threaded
    /// mode only; an inline shard queues them directly).
    pub(crate) wire_buf: Vec<Wire<N::Msg>>,
    pub(crate) now: u64,
    pub(crate) faults: FaultConfig,
    pub(crate) fp: u64,
    pub(crate) events: u64,
    scratch_effects: Vec<Effect<N::Msg>>,
    scratch_emitted: Vec<N::Out>,
}

impl<N: NodeLogic, T: Topology> Shard<N, T> {
    pub(crate) fn new(id: usize, base: Addr, inline: bool, topo: T) -> Shard<N, T> {
        Shard {
            id,
            base,
            inline,
            topo,
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
        }
    }

    pub(crate) fn next_seq(&mut self, local: usize) -> u64 {
        let s = self.seqs[local];
        self.seqs[local] = s
            .checked_add(1)
            .unwrap_or_else(|| panic!("per-node event sequence wrapped u64"));
        s
    }

    /// Enqueues an already-keyed event whose payload is in hand.
    pub(crate) fn receive_wire(&mut self, w: Wire<N::Msg>) {
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

    /// Hands an inter-node event to its destination: straight into the
    /// wheel when this shard is the whole engine, else into `wire_buf`
    /// for the window exchange.
    fn post(&mut self, w: Wire<N::Msg>) {
        if self.inline {
            self.receive_wire(w);
        } else {
            self.wire_buf.push(w);
        }
    }

    /// Sender-side half of a message send: accounting, fault draws and
    /// scheduling. Self-sends go straight into the local queue;
    /// anything inter-node is [`post`](Shard::post)ed. Faults are drawn
    /// from the sender's private fault stream.
    pub(crate) fn dispatch(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
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
            self.post(Wire {
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
        // Per-field gating: an inactive fault class draws nothing from
        // the node's fault stream, so a partially-enabled config stays
        // reproducible field by field.
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
            self.post(Wire {
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
        self.post(Wire {
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
        // Move the shard-owned scratch buffers into the context for the
        // duration of the handler, then drain and restore them, so the
        // per-event cost is a pointer swap rather than two allocations.
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

    /// Flight-recorder engine gauges, sampled at a window's start
    /// `gmin` — the global earliest pending event, the same instant
    /// under any shard count. The shard queues and arenas partition the
    /// global pending set at that point, so equal-time samples sum on
    /// merge into the global queue depth and in-flight count.
    fn sample_gauges(&mut self, gmin: u64) {
        if !self.tracer.series_enabled() {
            return;
        }
        let (q, a) = (self.queue.len() as u64, self.arena.len() as u64);
        let (me, diagnostics) = (self.id, !self.inline);
        if let Some(srs) = self.tracer.series_mut() {
            srs.gauge(gmin, "queue_depth", q);
            srs.gauge(gmin, "in_flight_msgs", a);
            if diagnostics {
                srs.shard_gauge(gmin, me, "queue_depth", q);
            }
        }
    }

    /// Runs the whole simulation on the caller's thread: the window
    /// loop of [`worker`] with the barriers, mailboxes and global-min
    /// reduction taken out (this shard's queue *is* the global queue).
    /// Stops when the queue drains, the next event lies past
    /// `deadline`, or at least `max_events` have run (checked per
    /// window). Returns the events executed.
    pub(crate) fn run_inline(&mut self, window_us: u64, max_events: u64, deadline: u64) -> u64 {
        debug_assert!(self.inline && self.wire_buf.is_empty());
        let mut total = 0u64;
        while total < max_events {
            let Some(gmin) = self.queue.peek_time() else {
                break;
            };
            if gmin > deadline {
                break;
            }
            self.sample_gauges(gmin);
            total += self.run_window(window_end(gmin, window_us, deadline));
        }
        total
    }

    /// Executes every local event strictly before `window_end`;
    /// returns the number executed.
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
                        // sender one further delay later (a round trip
                        // in total). The (possibly remote) sender's
                        // liveness is not consulted here; the notice is
                        // dropped on arrival if the sender is dead.
                        if from != to {
                            let back = self.topo.delay_us(to, from);
                            let seq = self.next_seq(li);
                            self.post(Wire {
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

/// End of the window starting at `gmin`: one window width on, cut short
/// so no event after `deadline` runs.
fn window_end(gmin: u64, window_us: u64, deadline: u64) -> u64 {
    gmin.saturating_add(window_us)
        .min(deadline.saturating_add(1))
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

/// Runs every shard on its own worker thread until the simulation
/// quiesces, the next event lies past `deadline`, or at least
/// `max_events` have executed (checked at window boundaries). Returns
/// the events executed.
pub(crate) fn run_threaded<N, T>(
    shards: &mut [Shard<N, T>],
    chunk: usize,
    window_us: u64,
    max_events: u64,
    deadline: u64,
) -> u64
where
    N: NodeLogic,
    T: Topology,
{
    let s = shards.len();
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
    std::thread::scope(|scope| {
        for shard in shards.iter_mut() {
            let shared = &shared;
            scope.spawn(move || {
                worker(shard, shared, chunk, window_us, max_events, deadline);
            });
        }
    });
    // A worker panic (window violation, node-logic bug) is caught in
    // the worker so its peers can leave the barrier protocol cleanly;
    // surface it here on the caller's thread.
    let poison = shared
        .poison
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(p) = poison {
        std::panic::resume_unwind(p);
    }
    shared.total.into_inner()
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
    deadline: u64,
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
        if gmin == u64::MAX || gmin > deadline || total >= max_events || poisoned {
            break;
        }
        // Every shard samples at the global minimum `gmin`; mailboxes
        // were absorbed above, so the samples sum to the global value.
        shard.sample_gauges(gmin);
        // Skip ahead: the window starts at the global minimum, so idle
        // stretches cost one barrier round, not one round per window.
        let window_end = window_end(gmin, window_us, deadline);
        // The window body can panic (window-safety violation, a bug in
        // node logic). Catch it so the peers can leave the barrier
        // protocol instead of deadlocking on a dead thread; the payload
        // is re-thrown by `run_threaded` on the caller's thread.
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
        sorted[w.dest() / chunk].push(w);
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
