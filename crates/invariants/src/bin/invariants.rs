//! CI gate: run the canned scenarios and fail on any invariant violation.
//!
//! Each violation is reported as `<invariant> @node <addr>: <detail>`.
//!
//! With `--emit-trace PATH`, the lossy-churn scenario runs with the
//! operation-lifecycle trace classes enabled and its trace is written to
//! `PATH` as JSONL, ready for `tracecheck --require-clean`.
//! `--emit-trace-sharded PATH` does the same for the 4-shard run of the
//! same scenario and seed. `--emit-series PATH` /
//! `--emit-series-sharded PATH` additionally write the flight-recorder
//! series of those traced runs as canonical JSONL (no per-shard
//! diagnostics), ready for `obsreport --require-slo`. Both pairs of
//! files are byte-identical when the 1 ≡ N shard identity holds.

use past_invariants::scenarios::{
    bulk_join, churn, lossy_churn, lossy_churn_traced, quota_reclaim, wheel_horizon,
};
use past_netsim::{TraceConfig, Tracer};

/// Writes the tracer's flight-recorder series to `path` as JSONL.
fn write_series(tracer: &Tracer, path: &str) {
    let Some(series) = tracer.series() else {
        eprintln!("invariants: traced run produced no series for {path}");
        std::process::exit(2);
    };
    let jsonl = series.canonical_jsonl();
    if let Err(e) = std::fs::write(path, &jsonl) {
        eprintln!("invariants: cannot write series to {path}: {e}");
        std::process::exit(2);
    }
    println!(
        "invariants: wrote {} series window(s) to {path}",
        jsonl.lines().count() - 1
    );
}

fn main() {
    let mut emit_trace: Option<String> = None;
    let mut emit_trace_sharded: Option<String> = None;
    let mut emit_series: Option<String> = None;
    let mut emit_series_sharded: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--emit-trace" => {
                let Some(path) = args.next() else {
                    eprintln!("invariants: --emit-trace needs a path");
                    std::process::exit(2);
                };
                emit_trace = Some(path);
            }
            "--emit-trace-sharded" => {
                let Some(path) = args.next() else {
                    eprintln!("invariants: --emit-trace-sharded needs a path");
                    std::process::exit(2);
                };
                emit_trace_sharded = Some(path);
            }
            "--emit-series" => {
                let Some(path) = args.next() else {
                    eprintln!("invariants: --emit-series needs a path");
                    std::process::exit(2);
                };
                emit_series = Some(path);
            }
            "--emit-series-sharded" => {
                let Some(path) = args.next() else {
                    eprintln!("invariants: --emit-series-sharded needs a path");
                    std::process::exit(2);
                };
                emit_series_sharded = Some(path);
            }
            other => {
                eprintln!("invariants: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut results = vec![
        ("bulk-join", bulk_join(1)),
        ("churn", churn(2)),
        ("quota-reclaim", quota_reclaim(3)),
    ];
    // The lossy-churn scenario runs twice with the same seed: inline on
    // one shard, then on four worker shards. The two runs must match
    // record for record, which CI checks by comparing the emitted files.
    for (name, shards, trace_path, series_path) in [
        ("lossy-churn", 1, &emit_trace, &emit_series),
        (
            "lossy-churn-sharded",
            4,
            &emit_trace_sharded,
            &emit_series_sharded,
        ),
    ] {
        if trace_path.is_none() && series_path.is_none() {
            results.push((name, lossy_churn(4, shards)));
            continue;
        }
        let (violations, tracer) = lossy_churn_traced(4, shards, TraceConfig::lifecycle());
        if let Some(path) = trace_path {
            if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
                eprintln!("invariants: cannot write trace to {path}: {e}");
                std::process::exit(2);
            }
            println!(
                "invariants: wrote {} trace record(s) to {path}",
                tracer.records().len()
            );
        }
        if let Some(path) = series_path {
            write_series(&tracer, path);
        }
        results.push((name, violations));
    }
    results.push(("wheel-horizon", wheel_horizon(5)));

    let mut failed = false;
    for (name, violations) in results {
        if violations.is_empty() {
            println!("invariants: scenario {name:<14} ok (I1-I5 hold at every quiesce point)");
        } else {
            failed = true;
            println!(
                "invariants: scenario {name:<14} FAILED with {} violation(s):",
                violations.len()
            );
            for v in &violations {
                println!("  {v}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
