#!/usr/bin/env bash
# Tier-1 entry point: everything a change must pass before merging.
#
# Runs fully offline — the workspace has no registry dependencies, and
# `cargo run -p xtask -- check` (rule H1) keeps it that way.
set -euo pipefail
cd "$(dirname "$0")/.."

# Warnings are errors in the workspace. Every workspace step sees the
# same flags, so they all share one build cache.
export RUSTFLAGS="-D warnings"

echo "== cargo fmt --check"
cargo fmt --check

# Lint first so violations fail fast, before the release build; the
# JSON diagnostics are archived as a build artifact either way.
echo "== xtask check (hermeticity / determinism / layering / message hygiene)"
mkdir -p target
if ! cargo run --offline -q -p xtask -- check --format json > target/xtask_check.json; then
  echo "xtask check failed; diagnostics (also in target/xtask_check.json):"
  cargo run --offline -q -p xtask -- check || true
  exit 1
fi

echo "== invariant gate (I1-I5 over bulk-join / churn / quota-reclaim / lossy-churn, 1 shard + 4 shards)"
mkdir -p target
cargo run --offline -q -p past-invariants --bin invariants -- \
  --emit-trace target/trace_lossy.jsonl \
  --emit-trace-sharded target/trace_lossy_sharded.jsonl \
  --emit-series target/series_lossy.jsonl \
  --emit-series-sharded target/series_lossy_sharded.jsonl

# The two lossy-churn runs share seed and topology and differ only in
# shard count (1 inline, 4 worker threads), so their trace and series
# files must match byte for byte: the 1 ≡ N shard identity.
echo "== shard identity (lossy-churn trace + series: 1 shard vs 4 shards, byte for byte)"
cmp target/trace_lossy.jsonl target/trace_lossy_sharded.jsonl
cmp target/series_lossy.jsonl target/series_lossy_sharded.jsonl

echo "== tracecheck (no stuck ops, insert fan-out == k, hops vs log2^b N)"
cargo run --offline -q -p past-trace --bin tracecheck -- --require-clean target/trace_lossy.jsonl
cargo run --offline -q -p past-trace --bin tracecheck -- --require-clean target/trace_lossy_sharded.jsonl

echo "== obsreport (flight-recorder SLO gate: no stalled windows, rejection/utilization in bounds)"
cargo run --offline -q -p past-trace --bin obsreport -- --require-slo target/series_lossy.jsonl
cargo run --offline -q -p past-trace --bin obsreport -- --require-slo target/series_lossy_sharded.jsonl

echo "== cargo build --release"
cargo build --offline --release --workspace

# The operations benchmark is its own workspace, so the workspace build
# above does not compile it; build it here so an API change that breaks
# it fails CI rather than the benchmark run. The benchmark keeps an
# unused import, so its steps run without the workspace's deny-warnings
# flags (it has its own target directory, so no cache is shared).
echo "== cargo build --release (pastbench)"
env -u RUSTFLAGS cargo build --offline --release --manifest-path pastbench/Cargo.toml

echo "== cargo test -q"
cargo test --offline -q --workspace

# The benchmark's own unit tests (its statistics and JSON helpers) live
# outside the workspace, so `--workspace` does not reach them.
echo "== cargo test -q (pastbench)"
env -u RUSTFLAGS cargo test --offline -q --manifest-path pastbench/Cargo.toml

echo "== codec fuzz smoke (wire decode must be total on mutated frames)"
cargo test --offline -q -p past --test wire decode_never_panics_on_mutated_frames

echo "== bench smoke (binaries run and emit valid BENCH_*.json)"
./target/release/bench_micro --smoke --out target/BENCH_micro.smoke.json
./target/release/bench_macro --smoke --out target/BENCH_macro.smoke.json \
  --series target/BENCH_series.json
./target/release/bench_loss --smoke --out target/BENCH_loss.smoke.json
grep -q '"schema": "past-bench/v1"' target/BENCH_micro.smoke.json
grep -q '"schema": "past-bench/v1"' target/BENCH_macro.smoke.json
grep -q '"schema": "past-bench/v1"' target/BENCH_loss.smoke.json
grep -q '"schema": "past-series/v1"' target/BENCH_series.json

# Scale gate: a 100k-node overlay must build, route, and survive churn
# on the sharded backend inside the wall-clock budget (the budget only
# catches order-of-magnitude regressions in the event loop). The run
# also repeats the churn phase at 1 shard in-process and asserts the
# simulation counters are identical — shard-count independence at
# 100k-node scale on every CI run. The JSON (with the 1-shard churn
# reference and speedup) is archived in target/.
echo "== bench macro 100k sharded scale gate (budget ${BENCH_MACRO_BUDGET_S:-120}s)"
timeout "${BENCH_MACRO_BUDGET_S:-120}" \
  ./target/release/bench_macro --nodes 100000 --smoke --shards 4 --out target/BENCH_macro.100k.json
grep -q '"schema": "past-bench/v1"' target/BENCH_macro.100k.json

echo "tier-1: all green"
