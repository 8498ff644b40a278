//! Deterministic discrete-event network simulator.
//!
//! This crate is the substrate the PAST reproduction runs on: the paper's
//! own evaluation numbers are simulation results (the companion Pastry and
//! SOSP'01 papers simulate networks of up to 100 000 nodes), so a faithful
//! reproduction needs a simulator with:
//!
//! - pluggable [`topology`] models supplying the *proximity metric* the
//!   paper defines ("a scalar metric, such as the number of IP hops,
//!   geographic distance, or a combination of these"),
//! - a message [`engine`] with per-link latency, silent node failure and
//!   timeout notifications, link-fault injection, and per-kind traffic
//!   accounting, which runs inline on one shard or in parallel on many,
//! - full determinism (per-node seeded RNG streams, events totally
//!   ordered by `(time, source, per-node seq)`), so every experiment in
//!   EXPERIMENTS.md reproduces bit-for-bit under any shard count.

pub mod arena;
pub mod engine;
mod shard;
pub mod soa;
pub mod time;
pub mod topology;
pub mod wheel;

pub use engine::{
    Ctx, Engine, FaultConfig, Message, NetStats, NodeLogic, ShardConfig, SimBackend, WindowTooWide,
};
pub use soa::NodeIo;
pub use time::SimTime;
pub use topology::{Addr, Plane, Sphere, Topology, TransitStub, UniformRandom};
// The trace layer's core handles, re-exported so node logic written
// against this engine can name them without a separate dependency.
pub use past_trace::{OpId, SeriesConfig, TimeSeries, TraceConfig, Tracer};
