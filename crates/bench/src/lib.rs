//! Benchmark harness for the PAST reproduction.
//!
//! - [`timing`] is a minimal in-tree measurement harness (no external
//!   bench framework, so `cargo bench` needs no registry access).
//! - `benches/paper_tables.rs` regenerates every experiment table
//!   (E1–E13) at bench scale; run with `cargo bench -p past-bench`.
//! - `src/bin/bench_micro.rs` holds microbenchmarks of the hot
//!   primitives (hashing, signatures, routing steps, cache ops) and
//!   publishes them as `BENCH_micro.json`.
//! - `src/bin/exp_*.rs` run individual experiments at paper scale.

pub use past_trace::json;
pub mod timing;

pub use timing::{Bench, Measurement};
