//! Deterministic structured tracing for the PAST simulator.
//!
//! The simulator's results used to be computed from end-state snapshots
//! and flat traffic counters; this crate gives it an *execution
//! history*. Three pieces:
//!
//! - a [`Tracer`] sink recording typed [`TraceEvent`]s (message
//!   send/recv/drop/duplicate, route hops with prefix-match depth, join
//!   phases, suspicion, operation lifecycle) stamped with **simulated
//!   time** — never wall clock — and a causal [`OpId`] so one client
//!   insert can be reconstructed hop by hop across nodes;
//! - the [`TimeSeries`] flight recorder: counters, gauges and
//!   fixed-bucket integer [`Histogram`]s (exact rank-based
//!   percentiles) bucketed by simulated-time window;
//! - the analyzer ([`analyze`] + the `tracecheck` binary) that rebuilds
//!   per-operation timelines from a JSONL trace and reports stuck
//!   operations, replica fan-out vs. `k`, and the hop distribution vs.
//!   the `⌈log₂ᵇN⌉` bound.
//!
//! Determinism contract: with tracing **off** (the [`TraceConfig::off`]
//! default) every record method is a branch-and-return — no allocation,
//! no RNG draw, no behavioral change — so golden fingerprints stay
//! bit-identical. With tracing **on** the tracer still never draws
//! randomness or alters event order, so the same seed yields the same
//! trace ([`Tracer::fingerprint`]) and the same simulation outcome as
//! an untraced run.

pub mod analyze;
pub mod json;
pub mod timeseries;

pub use timeseries::{SeriesConfig, TimeSeries};

/// A causal operation identifier threaded through message envelopes.
///
/// `OpId(0)` ([`OpId::NONE`]) means "not part of a client operation":
/// analyzer passes ignore it. Ids are allocated unconditionally by the
/// harness (a plain counter, no RNG), so enabling tracing never changes
/// id assignment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl OpId {
    /// The "no operation" id.
    pub const NONE: OpId = OpId(0);

    /// True for [`OpId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Which event classes a [`Tracer`] records.
///
/// The all-false default records nothing. Run totals live in the
/// engine's `NetStats`; finer counts come from these records or from an
/// attached [`TimeSeries`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-message events: send, recv, drop, duplicate, dead-dest fail.
    pub messages: bool,
    /// Per-hop routing events: hop (with prefix depth), deliver, drop.
    pub routes: bool,
    /// Overlay maintenance events: join phases, suspicion.
    pub overlay: bool,
    /// Operation lifecycle: start, retry, end, replica stored.
    pub ops: bool,
}

impl TraceConfig {
    /// Records nothing (the default).
    pub fn off() -> TraceConfig {
        TraceConfig::default()
    }

    /// Records every event class.
    pub fn full() -> TraceConfig {
        TraceConfig {
            messages: true,
            routes: true,
            overlay: true,
            ops: true,
        }
    }

    /// Operation lifecycle plus routing events — what `tracecheck`
    /// needs to judge liveness, fan-out and the hop bound.
    pub fn lifecycle() -> TraceConfig {
        TraceConfig {
            routes: true,
            ops: true,
            ..TraceConfig::default()
        }
    }

    /// True if any class is enabled.
    pub fn any(&self) -> bool {
        self.messages || self.routes || self.overlay || self.ops
    }
}

/// One typed trace event. Message kinds are stored as indices into the
/// engine's `Message::KINDS` table (the [`Tracer`] holds the table for
/// name resolution at serialization time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was accounted and scheduled.
    MsgSend {
        /// Sender address.
        from: usize,
        /// Destination address.
        to: usize,
        /// `Message::kind_id()`.
        kind: usize,
        /// Wire size in bytes.
        bytes: u64,
    },
    /// A message reached a live destination's handler.
    MsgRecv {
        /// Sender address.
        from: usize,
        /// Destination address.
        to: usize,
        /// `Message::kind_id()`.
        kind: usize,
    },
    /// Fault injection silently dropped a message.
    MsgDrop {
        /// Sender address.
        from: usize,
        /// Destination address.
        to: usize,
        /// `Message::kind_id()`.
        kind: usize,
    },
    /// Fault injection scheduled an extra delivery.
    MsgDup {
        /// Sender address.
        from: usize,
        /// Destination address.
        to: usize,
        /// `Message::kind_id()`.
        kind: usize,
    },
    /// A message reached a dead destination (send-failure bounce).
    MsgFail {
        /// Sender address.
        from: usize,
        /// Destination address.
        to: usize,
        /// `Message::kind_id()`.
        kind: usize,
    },
    /// A node forwarded a routed message one hop closer to the key.
    RouteHop {
        /// The forwarding node.
        node: usize,
        /// Destination key.
        key: u128,
        /// Hop count so far (before this forward).
        hop: u32,
        /// Shared-prefix length (in digits) between node id and key.
        depth: u32,
    },
    /// A routed message reached its root and was delivered.
    RouteDeliver {
        /// The delivering node.
        node: usize,
        /// Destination key.
        key: u128,
        /// Total overlay hops taken.
        hops: u32,
        /// Accumulated path latency in microseconds.
        lat_us: u64,
    },
    /// A routed message exhausted its TTL and was dropped.
    RouteDrop {
        /// The dropping node.
        node: usize,
        /// Destination key.
        key: u128,
    },
    /// A node's join protocol changed phase
    /// (`start`/`retry`/`complete`/`failed`).
    JoinPhase {
        /// The joining node.
        node: usize,
        /// Phase label.
        phase: &'static str,
    },
    /// A node declared a peer failed after missed heartbeat acks.
    Suspect {
        /// The suspecting node.
        node: usize,
        /// The suspected peer.
        peer: usize,
        /// Consecutive heartbeat rounds without an ack.
        missed: u32,
    },
    /// A client operation (insert/lookup/reclaim) was issued.
    OpStart {
        /// The client node.
        node: usize,
        /// Operation kind label.
        kind: &'static str,
        /// The key the operation targets.
        key: u128,
        /// Requested replication factor (0 where not applicable).
        k: u32,
    },
    /// A client operation was retransmitted.
    OpRetry {
        /// The client node.
        node: usize,
        /// Operation kind label.
        kind: &'static str,
        /// Attempt number (1 = first retry).
        attempt: u32,
    },
    /// A client operation terminated explicitly.
    OpEnd {
        /// The client node.
        node: usize,
        /// Operation kind label.
        kind: &'static str,
        /// Success or explicit failure.
        ok: bool,
        /// Replicas confirmed (inserts; 0 where not applicable).
        fanout: u32,
    },
    /// A node accepted a replica of a file (directly or via diversion).
    ReplicaStored {
        /// The storing node.
        node: usize,
        /// The file's routing key.
        key: u128,
        /// True if stored through replica diversion.
        diverted: bool,
    },
}

/// A timestamped, operation-attributed trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time in microseconds.
    pub t: u64,
    /// The operation this record belongs to ([`OpId::NONE`] if none).
    pub op: OpId,
    /// The event.
    pub ev: TraceEvent,
}

/// A fixed-bucket integer histogram with a saturating last bucket.
///
/// Values land in bucket `min(v / width, n - 1)`; the final bucket
/// absorbs everything at or above `width * (n - 1)`. Percentiles are
/// rank-based — [`Histogram::percentile`] returns the lower bound of
/// the bucket containing the `⌈p/100 · count⌉`-th smallest sample,
/// which is *exact* for width-1 histograms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new(1, 1)
    }
}

impl Histogram {
    /// A histogram of `nbuckets` buckets of `width` each.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `nbuckets` is zero.
    pub fn new(width: u64, nbuckets: usize) -> Histogram {
        assert!(width > 0, "bucket width must be positive");
        assert!(nbuckets > 0, "need at least one bucket");
        Histogram {
            width,
            buckets: vec![0; nbuckets],
            count: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let i = ((v / self.width) as usize).min(self.buckets.len() - 1);
        self.buckets[i] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Bucket width.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Raw bucket counts (last bucket saturates).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// True if any sample landed in the saturating last bucket, i.e.
    /// reported upper percentiles may be clipped.
    pub fn saturated(&self) -> bool {
        self.buckets.last().is_some_and(|&c| c > 0)
    }

    /// Lower bound of the bucket holding the `⌈p/100 · count⌉`-th
    /// smallest sample (`p` in `1..=100`); `None` on an empty
    /// histogram.
    pub fn percentile(&self, p: u32) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // Rank in u128: `count * p` overflows u64 once count exceeds
        // u64::MAX / 100, which a long-lived aggregated histogram can
        // legitimately reach.
        let p = u128::from(p.clamp(1, 100));
        let rank = (u128::from(self.count) * p).div_ceil(100).max(1);
        let mut cum = 0u128;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += u128::from(c);
            if cum >= rank {
                return Some(i as u64 * self.width);
            }
        }
        Some((self.buckets.len() as u64 - 1) * self.width)
    }

    /// Folds another histogram into this one (summing buckets).
    ///
    /// Shape mismatches (different bucket width or count) are a
    /// caller bug — mixing scales would silently corrupt every
    /// percentile — so they surface as a typed [`ShapeMismatch`]
    /// error instead of blending; `self` is left untouched on error.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), ShapeMismatch> {
        if self.width != other.width || self.buckets.len() != other.buckets.len() {
            return Err(ShapeMismatch {
                expected: (self.width, self.buckets.len()),
                got: (other.width, other.buckets.len()),
            });
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        Ok(())
    }
}

/// Two histograms with different bucket geometry were asked to merge
/// (see [`Histogram::merge`]). Shapes are `(bucket_width, buckets)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// Shape of the receiving histogram.
    pub expected: (u64, usize),
    /// Shape of the histogram being merged in.
    pub got: (u64, usize),
}

impl std::fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot merge histograms with different shapes: \
             width {} x {} buckets vs width {} x {} buckets",
            self.expected.0, self.expected.1, self.got.0, self.got.1
        )
    }
}

impl std::error::Error for ShapeMismatch {}

/// FNV-1a 64-bit hash (trace fingerprints).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The trace sink: an append-only record buffer gated by a
/// [`TraceConfig`], plus an optional [`TimeSeries`]. Owned by the
/// engine; all record methods take the simulated time explicitly so the
/// tracer can never consult a wall clock.
#[derive(Debug, Default)]
pub struct Tracer {
    cfg: TraceConfig,
    kinds: &'static [&'static str],
    records: Vec<TraceRecord>,
    /// The flight recorder, when sampling is enabled. Fed by the same
    /// hooks as the record buffer, but gated only on its own presence
    /// — a series can run with every trace class off.
    series: Option<TimeSeries>,
    /// Per-kind mask: true for repair-plane message kinds (kind name
    /// contains `repair`), so the series can count repair traffic
    /// without string-matching on the hot path.
    series_repair: Vec<bool>,
}

/// Formats into the output string. `fmt::Write` for `String` is
/// infallible, so this swallows no real error — it exists so the
/// serializer never discards a `Result` with `let _ =` (rule E1).
pub(crate) fn wfmt(out: &mut String, args: std::fmt::Arguments<'_>) {
    use std::fmt::Write as _;
    out.write_fmt(args)
        .expect("formatting into a String cannot fail");
}

impl Tracer {
    /// A disabled tracer bound to a message-kind table.
    pub fn for_kinds(kinds: &'static [&'static str]) -> Tracer {
        Tracer {
            cfg: TraceConfig::off(),
            kinds,
            records: Vec::new(),
            series: None,
            series_repair: Vec::new(),
        }
    }

    /// Sets which event classes are recorded (existing records are
    /// kept; use [`Tracer::clear`] to reset).
    pub fn configure(&mut self, cfg: TraceConfig) {
        self.cfg = cfg;
    }

    /// The configuration in force.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// True if any event class is enabled or a series is attached —
    /// engines use this to gate their instrumentation hook calls, so
    /// a series-only tracer (all classes off) must still count as
    /// enabled or the flight recorder would see no message plane.
    pub fn enabled(&self) -> bool {
        self.cfg.any() || self.series.is_some()
    }

    /// Attaches a flight recorder with the given window. An existing
    /// series (and its windows) is replaced.
    pub fn set_series(&mut self, cfg: SeriesConfig) {
        self.series = Some(TimeSeries::new(cfg));
        self.series_repair = self.kinds.iter().map(|k| k.contains("repair")).collect();
    }

    /// The attached flight recorder, if any.
    pub fn series(&self) -> Option<&TimeSeries> {
        self.series.as_ref()
    }

    /// Mutable access to the flight recorder (harness-side samplers
    /// record store/overlay gauges through this).
    pub fn series_mut(&mut self) -> Option<&mut TimeSeries> {
        self.series.as_mut()
    }

    /// True if a flight recorder is attached.
    pub fn series_enabled(&self) -> bool {
        self.series.is_some()
    }

    /// All records so far.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Drops all records and empties the series windows (keeping the
    /// series configuration).
    pub fn clear(&mut self) {
        self.records.clear();
        if let Some(s) = &mut self.series {
            s.clear();
        }
    }

    // -- message plane -------------------------------------------------

    /// A message was accounted and scheduled.
    #[inline]
    pub fn msg_send(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize, bytes: u64) {
        if let Some(s) = &mut self.series {
            s.bump(t, "sent", 1);
            s.bump(t, "sent_bytes", bytes);
            if self.series_repair.get(kind).copied().unwrap_or(false) {
                s.bump(t, "repair_msgs", 1);
                s.bump(t, "repair_bytes", bytes);
            }
        }
        if self.cfg.messages {
            self.push(
                t,
                op,
                TraceEvent::MsgSend {
                    from,
                    to,
                    kind,
                    bytes,
                },
            );
        }
    }

    /// A message reached a live destination.
    #[inline]
    pub fn msg_recv(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize) {
        if let Some(s) = &mut self.series {
            s.bump(t, "recv", 1);
        }
        if self.cfg.messages {
            self.push(t, op, TraceEvent::MsgRecv { from, to, kind });
        }
    }

    /// Fault injection dropped a message.
    #[inline]
    pub fn msg_drop(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize) {
        if let Some(s) = &mut self.series {
            s.bump(t, "dropped", 1);
        }
        if self.cfg.messages {
            self.push(t, op, TraceEvent::MsgDrop { from, to, kind });
        }
    }

    /// Fault injection duplicated a message.
    #[inline]
    pub fn msg_dup(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize) {
        if let Some(s) = &mut self.series {
            s.bump(t, "duplicated", 1);
        }
        if self.cfg.messages {
            self.push(t, op, TraceEvent::MsgDup { from, to, kind });
        }
    }

    /// A message hit a dead destination.
    #[inline]
    pub fn msg_fail(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize) {
        if let Some(s) = &mut self.series {
            s.bump(t, "failed_sends", 1);
        }
        if self.cfg.messages {
            self.push(t, op, TraceEvent::MsgFail { from, to, kind });
        }
    }

    // -- routing plane -------------------------------------------------

    /// A node forwarded a routed message.
    #[inline]
    pub fn route_hop(&mut self, t: u64, op: OpId, node: usize, key: u128, hop: u32, depth: u32) {
        if self.cfg.routes {
            self.push(
                t,
                op,
                TraceEvent::RouteHop {
                    node,
                    key,
                    hop,
                    depth,
                },
            );
        }
    }

    /// A routed message was delivered at its root.
    #[inline]
    pub fn route_deliver(
        &mut self,
        t: u64,
        op: OpId,
        node: usize,
        key: u128,
        hops: u32,
        lat_us: u64,
    ) {
        if let Some(s) = &mut self.series {
            s.bump(t, "delivered", 1);
            s.hist(t, "route_latency_us", lat_us);
        }
        if self.cfg.routes {
            self.push(
                t,
                op,
                TraceEvent::RouteDeliver {
                    node,
                    key,
                    hops,
                    lat_us,
                },
            );
        }
    }

    /// A routed message exhausted its TTL.
    #[inline]
    pub fn route_drop(&mut self, t: u64, op: OpId, node: usize, key: u128) {
        if self.cfg.routes {
            self.push(t, op, TraceEvent::RouteDrop { node, key });
        }
    }

    // -- overlay plane -------------------------------------------------

    /// A join protocol phase transition.
    #[inline]
    pub fn join_phase(&mut self, t: u64, node: usize, phase: &'static str) {
        if self.cfg.overlay {
            self.push(t, OpId::NONE, TraceEvent::JoinPhase { node, phase });
        }
    }

    /// A peer was declared failed after missed heartbeat acks.
    #[inline]
    pub fn suspect(&mut self, t: u64, node: usize, peer: usize, missed: u32) {
        if let Some(s) = &mut self.series {
            s.bump(t, "suspicions", 1);
        }
        if self.cfg.overlay {
            self.push(t, OpId::NONE, TraceEvent::Suspect { node, peer, missed });
        }
    }

    // -- operation plane -----------------------------------------------

    /// A client operation was issued.
    #[inline]
    pub fn op_start(
        &mut self,
        t: u64,
        op: OpId,
        node: usize,
        kind: &'static str,
        key: u128,
        k: u32,
    ) {
        if self.cfg.ops && !op.is_none() {
            self.push(t, op, TraceEvent::OpStart { node, kind, key, k });
        }
    }

    /// A client operation was retransmitted.
    #[inline]
    pub fn op_retry(&mut self, t: u64, op: OpId, node: usize, kind: &'static str, attempt: u32) {
        if let Some(s) = &mut self.series {
            s.bump(t, "retries", 1);
        }
        if self.cfg.ops && !op.is_none() {
            self.push(
                t,
                op,
                TraceEvent::OpRetry {
                    node,
                    kind,
                    attempt,
                },
            );
        }
    }

    /// A client operation terminated explicitly.
    #[inline]
    pub fn op_end(
        &mut self,
        t: u64,
        op: OpId,
        node: usize,
        kind: &'static str,
        ok: bool,
        fanout: u32,
    ) {
        if self.cfg.ops && !op.is_none() {
            self.push(
                t,
                op,
                TraceEvent::OpEnd {
                    node,
                    kind,
                    ok,
                    fanout,
                },
            );
        }
    }

    /// A node stored a replica on behalf of an insert.
    #[inline]
    pub fn replica_stored(&mut self, t: u64, op: OpId, node: usize, key: u128, diverted: bool) {
        if let Some(s) = &mut self.series {
            s.bump(t, "replicas_stored", 1);
            if diverted {
                s.bump(t, "diversions", 1);
            }
        }
        if self.cfg.ops && !op.is_none() {
            self.push(
                t,
                op,
                TraceEvent::ReplicaStored {
                    node,
                    key,
                    diverted,
                },
            );
        }
    }

    /// Folds another tracer's records and series into this one. The
    /// combined record buffer is a concatenation; call
    /// [`Tracer::sort_canonical`] afterwards if a deterministic order
    /// is needed (e.g. after merging per-shard tracers).
    pub fn absorb(&mut self, mut other: Tracer) {
        self.records.append(&mut other.records);
        if let Some(theirs) = other.series.take() {
            match &mut self.series {
                Some(mine) => mine.merge(&theirs),
                None => {
                    self.series = Some(theirs);
                    self.series_repair = std::mem::take(&mut other.series_repair);
                }
            }
        }
    }

    /// Sorts the record buffer into the canonical order `(t, causal
    /// rank, serialized line)`. Records with equal time and equal
    /// content are identical, so this order depends only on the
    /// *multiset* of records — two runs that produced the same records
    /// in different interleavings (e.g. one shard vs. many) serialize
    /// and fingerprint identically after this call.
    ///
    /// The causal rank keeps same-microsecond lifecycles analyzable:
    /// `op_start` sorts before the records it caused and `op_end` after
    /// them (a lookup satisfied from the local store starts and ends at
    /// the same `t`; plain lexicographic order would put the end first
    /// and the analyzer would call the op stuck).
    pub fn sort_canonical(&mut self) {
        fn rank(ev: &TraceEvent) -> u8 {
            match ev {
                TraceEvent::OpStart { .. } => 0,
                TraceEvent::OpEnd { .. } => 2,
                _ => 1,
            }
        }
        let records = std::mem::take(&mut self.records);
        let mut keyed: Vec<(String, TraceRecord)> = records
            .into_iter()
            .map(|r| {
                let mut line = String::new();
                self.write_line(&mut line, &r);
                (line, r)
            })
            .collect();
        keyed.sort_by(|a, b| {
            (a.1.t, rank(&a.1.ev), a.0.as_str()).cmp(&(b.1.t, rank(&b.1.ev), b.0.as_str()))
        });
        self.records = keyed.into_iter().map(|(_, r)| r).collect();
    }

    fn push(&mut self, t: u64, op: OpId, ev: TraceEvent) {
        self.records.push(TraceRecord { t, op, ev });
    }

    fn kind_name(&self, kind: usize) -> &'static str {
        self.kinds.get(kind).copied().unwrap_or("?")
    }

    /// Serializes the record stream as JSONL (one flat object per
    /// line, stable field order — the fingerprint hashes these bytes).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            self.write_line(&mut out, r);
            out.push('\n');
        }
        out
    }

    fn write_line(&self, out: &mut String, r: &TraceRecord) {
        let head = |out: &mut String, ev: &str| {
            wfmt(
                out,
                format_args!("{{\"t\":{},\"op\":{},\"ev\":\"{ev}\"", r.t, r.op.0),
            );
        };
        let msg = |out: &mut String, ev: &str, from: usize, to: usize, kind: usize| {
            head(out, ev);
            wfmt(
                out,
                format_args!(
                    ",\"from\":{from},\"to\":{to},\"kind\":\"{}\"",
                    self.kind_name(kind)
                ),
            );
        };
        match &r.ev {
            TraceEvent::MsgSend {
                from,
                to,
                kind,
                bytes,
            } => {
                msg(out, "send", *from, *to, *kind);
                wfmt(out, format_args!(",\"bytes\":{bytes}"));
            }
            TraceEvent::MsgRecv { from, to, kind } => msg(out, "recv", *from, *to, *kind),
            TraceEvent::MsgDrop { from, to, kind } => msg(out, "drop", *from, *to, *kind),
            TraceEvent::MsgDup { from, to, kind } => msg(out, "dup", *from, *to, *kind),
            TraceEvent::MsgFail { from, to, kind } => msg(out, "fail", *from, *to, *kind),
            TraceEvent::RouteHop {
                node,
                key,
                hop,
                depth,
            } => {
                head(out, "hop");
                wfmt(
                    out,
                    format_args!(
                        ",\"node\":{node},\"key\":\"{key:032x}\",\"hop\":{hop},\"depth\":{depth}"
                    ),
                );
            }
            TraceEvent::RouteDeliver {
                node,
                key,
                hops,
                lat_us,
            } => {
                head(out, "deliver");
                wfmt(
                    out,
                    format_args!(",\"node\":{node},\"key\":\"{key:032x}\",\"hops\":{hops},\"lat_us\":{lat_us}"),
                );
            }
            TraceEvent::RouteDrop { node, key } => {
                head(out, "route_drop");
                wfmt(out, format_args!(",\"node\":{node},\"key\":\"{key:032x}\""));
            }
            TraceEvent::JoinPhase { node, phase } => {
                head(out, "join");
                wfmt(out, format_args!(",\"node\":{node},\"phase\":\"{phase}\""));
            }
            TraceEvent::Suspect { node, peer, missed } => {
                head(out, "suspect");
                wfmt(
                    out,
                    format_args!(",\"node\":{node},\"peer\":{peer},\"missed\":{missed}"),
                );
            }
            TraceEvent::OpStart { node, kind, key, k } => {
                head(out, "op_start");
                wfmt(
                    out,
                    format_args!(
                        ",\"node\":{node},\"kind\":\"{kind}\",\"key\":\"{key:032x}\",\"k\":{k}"
                    ),
                );
            }
            TraceEvent::OpRetry {
                node,
                kind,
                attempt,
            } => {
                head(out, "op_retry");
                wfmt(
                    out,
                    format_args!(",\"node\":{node},\"kind\":\"{kind}\",\"attempt\":{attempt}"),
                );
            }
            TraceEvent::OpEnd {
                node,
                kind,
                ok,
                fanout,
            } => {
                head(out, "op_end");
                wfmt(
                    out,
                    format_args!(
                        ",\"node\":{node},\"kind\":\"{kind}\",\"ok\":{ok},\"fanout\":{fanout}"
                    ),
                );
            }
            TraceEvent::ReplicaStored {
                node,
                key,
                diverted,
            } => {
                head(out, "replica");
                wfmt(
                    out,
                    format_args!(",\"node\":{node},\"key\":\"{key:032x}\",\"diverted\":{diverted}"),
                );
            }
        }
        out.push('}');
    }

    /// FNV-1a 64 fingerprint of the JSONL serialization: the
    /// same-seed-same-trace determinism check compares these.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.to_jsonl().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: &[&str] = &["ping", "pong"];

    // -- histogram -----------------------------------------------------

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new(10, 4);
        // 0..=9 → bucket 0, 10..=19 → bucket 1, 29/30 straddle bucket 2/3,
        // and everything ≥ 30 saturates into the last bucket.
        for v in [0, 9, 10, 19, 20, 29, 30, 31, 1_000] {
            h.record(v);
        }
        assert_eq!(h.buckets(), &[2, 2, 2, 3]);
        assert_eq!(h.count(), 9);
        assert!(h.saturated());
    }

    #[test]
    fn percentile_on_empty_histogram_is_none() {
        let h = Histogram::new(1, 8);
        assert_eq!(h.percentile(50), None);
        assert_eq!(h.percentile(99), None);
        assert!(!h.saturated());
    }

    #[test]
    fn percentile_on_single_element() {
        let mut h = Histogram::new(1, 8);
        h.record(5);
        for p in [1, 50, 95, 99, 100] {
            assert_eq!(h.percentile(p), Some(5));
        }
    }

    #[test]
    fn percentiles_are_exact_at_width_one() {
        let mut h = Histogram::new(1, 101);
        for v in 1..=100u64 {
            h.record(v);
        }
        // Rank-based: p-th percentile of 1..=100 is exactly p.
        assert_eq!(h.percentile(50), Some(50));
        assert_eq!(h.percentile(95), Some(95));
        assert_eq!(h.percentile(99), Some(99));
        assert_eq!(h.percentile(100), Some(100));
    }

    #[test]
    fn percentile_on_saturated_histogram_clips_to_last_bucket() {
        let mut h = Histogram::new(10, 3);
        for _ in 0..10 {
            h.record(500); // all land in the saturating bucket at 20+
        }
        assert!(h.saturated());
        assert_eq!(h.percentile(50), Some(20));
        assert_eq!(h.percentile(99), Some(20));
    }

    #[test]
    fn percentile_rank_survives_huge_counts() {
        // A count near u64::MAX used to overflow `count * p` and
        // panic (debug) or mis-rank (release); rank math is u128 now.
        let mut h = Histogram::new(1, 4);
        h.buckets = vec![u64::MAX / 2, u64::MAX / 2 - 2, 2, 1];
        h.count = u64::MAX;
        // rank(50) = 2^63, one past the first bucket's 2^63 - 1.
        assert_eq!(h.percentile(50), Some(1));
        assert_eq!(h.percentile(99), Some(1));
        assert_eq!(h.percentile(100), Some(3));
    }

    // -- tracer gating -------------------------------------------------

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::for_kinds(KINDS);
        t.msg_send(1, OpId(1), 0, 1, 0, 64);
        t.route_deliver(2, OpId(1), 1, 42, 3, 999);
        t.op_start(3, OpId(1), 0, "insert", 42, 5);
        assert!(t.records().is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn class_filters_gate_independently() {
        let mut t = Tracer::for_kinds(KINDS);
        t.configure(TraceConfig::lifecycle());
        t.msg_send(1, OpId::NONE, 0, 1, 0, 64); // messages: off
        t.route_hop(2, OpId(7), 3, 42, 0, 1); // routes: on
        t.op_start(3, OpId(7), 0, "insert", 42, 5); // ops: on
        t.join_phase(4, 9, "start"); // overlay: off
        assert_eq!(t.records().len(), 2);
    }

    #[test]
    fn op_events_with_no_op_id_are_skipped() {
        let mut t = Tracer::for_kinds(KINDS);
        t.configure(TraceConfig::full());
        t.op_start(1, OpId::NONE, 0, "reclaim", 42, 0);
        t.op_end(2, OpId::NONE, 0, "reclaim", true, 0);
        t.replica_stored(3, OpId::NONE, 1, 42, false);
        assert!(t.records().is_empty());
    }

    // -- serialization -------------------------------------------------

    #[test]
    fn jsonl_lines_are_valid_json_and_fingerprint_is_stable() {
        let build = || {
            let mut t = Tracer::for_kinds(KINDS);
            t.configure(TraceConfig::full());
            t.msg_send(10, OpId(1), 0, 1, 0, 64);
            t.msg_recv(20, OpId(1), 0, 1, 0);
            t.route_hop(20, OpId(1), 1, 0xfeed_beef, 0, 2);
            t.route_deliver(30, OpId(1), 2, 0xfeed_beef, 1, 12_345);
            t.join_phase(40, 7, "complete");
            t.suspect(50, 7, 8, 3);
            t.op_start(60, OpId(1), 0, "insert", 0xfeed_beef, 5);
            t.op_retry(70, OpId(1), 0, "insert", 1);
            t.op_end(80, OpId(1), 0, "insert", true, 5);
            t.replica_stored(80, OpId(1), 2, 0xfeed_beef, true);
            t
        };
        let t = build();
        for line in t.to_jsonl().lines() {
            json::validate(line).expect("every trace line must be valid JSON");
        }
        assert_eq!(t.fingerprint(), build().fingerprint());
        assert_ne!(t.fingerprint(), fnv1a(b""));
    }

    // -- merging -------------------------------------------------------

    #[test]
    fn histogram_merge_sums_buckets_and_count() {
        let mut a = Histogram::new(10, 4);
        let mut b = Histogram::new(10, 4);
        for v in [0, 15, 500] {
            a.record(v);
        }
        for v in [5, 15] {
            b.record(v);
        }
        a.merge(&b).expect("same-shape merge must succeed");
        assert_eq!(a.buckets(), &[2, 2, 0, 1]);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn histogram_merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(10, 4);
        a.record(7);
        let err = a
            .merge(&Histogram::new(5, 4))
            .expect_err("width mismatch must be rejected");
        assert_eq!(err.expected, (10, 4));
        assert_eq!(err.got, (5, 4));
        assert!(err.to_string().contains("different shapes"));
        let err = a
            .merge(&Histogram::new(10, 8))
            .expect_err("bucket-count mismatch must be rejected");
        assert_eq!(err.got, (10, 8));
        // The receiver is untouched on error.
        assert_eq!(a.count(), 1);
        assert_eq!(a.buckets(), &[1, 0, 0, 0]);
    }

    /// Splitting one record stream across two tracers, absorbing, and
    /// canonically sorting must reproduce the single-tracer
    /// serialization bit for bit — the property the sharded engine's
    /// per-shard tracers rely on.
    #[test]
    fn absorb_plus_canonical_sort_is_partition_independent() {
        let record = |t: &mut Tracer, which: usize| {
            if which == 0 {
                t.msg_send(10, OpId(1), 0, 1, 0, 64);
                t.route_hop(20, OpId(1), 1, 42, 0, 1);
                t.op_start(20, OpId(1), 0, "insert", 42, 3);
            } else {
                t.msg_send(10, OpId(2), 2, 3, 1, 32);
                t.msg_recv(20, OpId(2), 2, 3, 1);
                t.join_phase(30, 3, "start");
            }
        };
        let mut whole = Tracer::for_kinds(KINDS);
        whole.configure(TraceConfig::full());
        record(&mut whole, 0);
        record(&mut whole, 1);
        whole.sort_canonical();
        // Partitioned: each half in its own tracer, absorbed in the
        // opposite order.
        let mut half_a = Tracer::for_kinds(KINDS);
        half_a.configure(TraceConfig::full());
        record(&mut half_a, 1);
        let mut half_b = Tracer::for_kinds(KINDS);
        half_b.configure(TraceConfig::full());
        record(&mut half_b, 0);
        half_a.absorb(half_b);
        half_a.sort_canonical();
        assert_eq!(whole.to_jsonl(), half_a.to_jsonl());
        assert_eq!(whole.fingerprint(), half_a.fingerprint());
    }

    /// A same-microsecond lifecycle (op served from the local store)
    /// must stay `op_start` → work → `op_end` after the canonical sort,
    /// even though "op_end" < "op_start" lexicographically.
    #[test]
    fn canonical_sort_keeps_same_time_lifecycles_causal() {
        let mut t = Tracer::for_kinds(KINDS);
        t.configure(TraceConfig::full());
        t.op_end(50, OpId(1), 0, "lookup", true, 0);
        t.msg_send(50, OpId(1), 0, 1, 0, 64);
        t.op_start(50, OpId(1), 0, "lookup", 42, 1);
        t.sort_canonical();
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().map(|l| l.trim()).collect();
        assert!(lines[0].contains("op_start"), "got {:?}", lines[0]);
        assert!(lines[1].contains("send"), "got {:?}", lines[1]);
        assert!(lines[2].contains("op_end"), "got {:?}", lines[2]);
    }

    /// A series-only tracer (all trace classes off) still reports
    /// enabled, collects windowed counters from the hooks, and merges
    /// across tracers in `absorb` — the sharded-engine path.
    #[test]
    fn series_flows_through_hooks_and_absorb() {
        let mk = || {
            let mut t = Tracer::for_kinds(KINDS);
            t.set_series(SeriesConfig::new(1_000));
            t
        };
        let mut a = mk();
        assert!(a.enabled(), "series-only tracer must count as enabled");
        assert!(!a.config().any());
        a.msg_send(10, OpId(1), 0, 1, 0, 64);
        a.route_deliver(30, OpId(1), 2, 42, 1, 12_345);
        let mut b = mk();
        b.msg_send(1_500, OpId(2), 2, 3, 1, 32);
        b.msg_drop(1_600, OpId(2), 2, 3, 1);
        a.absorb(b);
        assert!(a.records().is_empty(), "no classes on, no records");
        let s = a.series().expect("series survives absorb");
        let w: Vec<(u64, u64, u64, u64)> = s
            .windows()
            .map(|(t, w)| {
                (
                    t,
                    w.counter("sent"),
                    w.counter("dropped"),
                    w.counter("delivered"),
                )
            })
            .collect();
        assert_eq!(w, vec![(0, 1, 0, 1), (1_000, 1, 1, 0)]);
    }

    #[test]
    fn clear_resets_records_and_series() {
        let mut t = Tracer::for_kinds(KINDS);
        t.configure(TraceConfig::full());
        t.set_series(SeriesConfig::new(1_000));
        t.msg_send(1, OpId(1), 0, 1, 0, 64);
        t.clear();
        assert!(t.records().is_empty());
        let s = t.series().expect("clear keeps the series attached");
        assert_eq!(s.windows().count(), 0);
        // Still bound to the kind table after a clear.
        t.msg_send(2, OpId(1), 0, 1, 1, 32);
        assert!(t.to_jsonl().contains("\"kind\":\"pong\""));
    }
}
