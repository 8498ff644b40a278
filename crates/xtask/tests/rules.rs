//! Fixture tests for every lint rule family: one fixture that must
//! trigger the rule and one that must pass. Fixtures live in raw
//! strings (the lexer strips literals, so this file cannot flag
//! itself when the workspace is scanned).
//!
//! The workflow for adding a rule is documented in EXPERIMENTS.md:
//! write the trigger fixture first, watch it fail, implement the
//! rule, then add the pass fixture to pin down the false-positive
//! boundary.

use xtask::{analyze_sources, check_manifest, AnalyzeOpts, Diagnostic};

/// Run the analyzer on a single fixture file.
fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
    analyze_sources(&[(path, src)], &AnalyzeOpts::default())
}

/// Rule IDs reported for a fixture.
fn rules(path: &str, src: &str) -> Vec<&'static str> {
    diags(path, src).into_iter().map(|d| d.rule).collect()
}

fn assert_clean(path: &str, src: &str) {
    let found = diags(path, src);
    assert!(found.is_empty(), "expected clean, got: {found:?}");
}

// ------------------------------------------------------------------ H1

#[test]
fn h1_triggers_on_registry_dependency() {
    let src = "[package]\nname = \"demo\"\n\n[dependencies]\nserde = \"1\"\n";
    let v = check_manifest("crates/demo/Cargo.toml", src);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "H1");
    assert_eq!(v[0].line, 5);
}

#[test]
fn h1_passes_path_and_workspace_deps() {
    let src = "[dependencies]\npast-core = { path = \"../core\" }\n\
               past-trace.workspace = true\n\n[dependencies.past-netsim]\n\
               workspace = true\n";
    assert!(check_manifest("crates/demo/Cargo.toml", src).is_empty());
}

// ------------------------------------------------------------------ D1

#[test]
fn d1_triggers_on_wall_clock() {
    let src = "use std::time::Instant;\nfn f() -> u64 { let t = Instant::now(); 0 }\n";
    let r = rules("crates/netsim/src/x.rs", src);
    assert_eq!(r, vec!["D1", "D1"]);
}

#[test]
fn d1_passes_comments_strings_and_sim_time() {
    let src = "// std::time::Instant is banned here\n\
               fn f(now: SimTime) -> &'static str { \"Instant::now\" }\n";
    assert_clean("crates/netsim/src/x.rs", src);
}

// ------------------------------------------------------------------ D2

#[test]
fn d2_triggers_on_os_entropy() {
    let src = "fn f() { let mut r = rand::thread_rng(); }\nfn g() { OsRng.fill(); }\n";
    let r = rules("crates/sim/src/x.rs", src);
    assert_eq!(r, vec!["D2", "D2"]);
}

#[test]
fn d2_passes_seeded_rng() {
    let src = "fn f(rng: &mut SimRng) -> u64 { rng.next_u64() }\n";
    assert_clean("crates/sim/src/x.rs", src);
}

// ------------------------------------------------------------------ D3

#[test]
fn d3_triggers_on_hash_iteration_in_decision_crate() {
    let src = "use std::collections::HashMap;\n\
               struct S { entries: HashMap<u64, u64> }\n\
               impl S {\n\
                   fn total(&self) -> u64 { self.entries.values().sum() }\n\
                   fn walk(&self) { for (k, v) in &self.entries {} }\n\
               }\n";
    let r = rules("crates/pastry/src/x.rs", src);
    assert_eq!(r, vec!["D3", "D3"]);
}

/// The motivating case for the token-level engine: a method chain
/// split across lines, invisible to a line-oriented scanner.
#[test]
fn d3_triggers_on_multiline_chain() {
    let src = "use std::collections::HashMap;\n\
               struct S { pending: HashMap<u64, u64> }\n\
               impl S {\n\
                   fn total(&self) -> u64 {\n\
                       self.pending\n\
                           .values()\n\
                           .map(|v| v + 1)\n\
                           .sum()\n\
                   }\n\
               }\n";
    let d = diags("crates/core/src/x.rs", src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].rule, "D3");
    assert_eq!(d[0].line, 5, "diagnostic points at the chain head");
}

#[test]
fn d3_passes_btree_iteration_and_keyed_hash_access() {
    let src = "use std::collections::{BTreeMap, HashMap};\n\
               struct S { a: BTreeMap<u64, u64>, b: HashMap<u64, u64> }\n\
               impl S {\n\
                   fn total(&self) -> u64 { self.a.values().sum() }\n\
                   fn get(&self, k: u64) -> Option<&u64> { self.b.get(&k) }\n\
               }\n";
    assert_clean("crates/pastry/src/x.rs", src);
}

#[test]
fn d3_ignores_cfg_test_modules() {
    let src = "use std::collections::HashMap;\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn f(m: HashMap<u64, u64>) -> u64 { m.values().sum() }\n\
               }\n";
    assert_clean("crates/pastry/src/x.rs", src);
}

// ------------------------------------------------------------------ D4

#[test]
fn d4_triggers_on_hash_iteration_in_library_crate() {
    // trace is a library crate but not a decision crate: hash
    // iteration there is D4, not D3.
    let src = "use std::collections::HashMap;\n\
               struct S { m: HashMap<u64, u64> }\n\
               impl S { fn all(&self) -> u64 { self.m.values().sum() } }\n";
    let r = rules("crates/trace/src/x.rs", src);
    assert_eq!(r, vec!["D4"]);
}

#[test]
fn d4_triggers_on_partial_cmp_comparator() {
    let src = "fn f(mut v: Vec<f64>) -> Vec<f64> {\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   v\n\
               }\n";
    let r = rules("crates/trace/src/x.rs", src);
    assert_eq!(r, vec!["D4"]);
}

#[test]
fn d4_triggers_on_multiline_partial_cmp() {
    let src = "fn pick(v: &[(f64, u32)]) -> Option<&(f64, u32)> {\n\
                   v.iter().min_by(|a, b| {\n\
                       a.0\n\
                           .partial_cmp(&b.0)\n\
                           .unwrap()\n\
                   })\n\
               }\n";
    let r = rules("crates/workload/src/x.rs", src);
    assert_eq!(r, vec!["D4"]);
}

#[test]
fn d4_triggers_on_bare_instant_field() {
    // A struct field of type Instant, with no `Instant::now()` call:
    // D1's path patterns miss it, the taint rule does not.
    let src = "pub struct Timer { started: Instant }\n";
    let r = rules("crates/trace/src/x.rs", src);
    assert_eq!(r, vec!["D4"]);
}

#[test]
fn d4_passes_total_cmp_and_btree() {
    let src = "use std::collections::BTreeMap;\n\
               fn f(mut v: Vec<f64>, m: &BTreeMap<u64, u64>) -> u64 {\n\
                   v.sort_by(f64::total_cmp);\n\
                   m.values().sum()\n\
               }\n";
    assert_clean("crates/trace/src/x.rs", src);
}

#[test]
fn d4_does_not_double_report_d1_matches() {
    // `Instant::now()` is D1; the taint rule must not stack a second
    // diagnostic on the same tokens.
    let src = "fn f() { let t = Instant::now(); }\n";
    let r = rules("crates/trace/src/x.rs", src);
    assert_eq!(r, vec!["D1"]);
}

// ------------------------------------------------------------------ P1

#[test]
fn p1_triggers_on_panics_in_protocol_core() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
               fn g(x: Option<u32>) -> u32 { x.expect(\"set\") }\n\
               fn h() { panic!(\"no\"); }\n";
    let r = rules("crates/core/src/x.rs", src);
    assert_eq!(r, vec!["P1", "P1", "P1"]);
}

#[test]
fn p1_passes_outside_scope_and_in_tests() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_clean("crates/netsim/src/x.rs", src);
    let src = "#[cfg(test)]\nmod tests {\n    fn f() { panic!(\"fine\"); }\n}\n";
    assert_clean("crates/core/src/x.rs", src);
}

// ------------------------------------------------------------------ U1

#[test]
fn u1_triggers_on_unsafe_anywhere_even_tests() {
    let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    assert_eq!(rules("crates/netsim/tests/x.rs", src), vec!["U1"]);
}

#[test]
fn u1_passes_mentions_in_strings() {
    let src = "const NOTE: &str = \"unsafe is banned\";\n";
    assert_clean("crates/netsim/src/x.rs", src);
}

// ------------------------------------------------------------------ O1

#[test]
fn o1_triggers_on_println_in_library_code() {
    let src = "fn f() { println!(\"debug\"); }\nfn g() { dbg!(42); }\n";
    assert_eq!(rules("crates/core/src/x.rs", src), vec!["O1", "O1"]);
}

#[test]
fn o1_passes_bins_tests_and_main() {
    let src = "fn main() { println!(\"report\"); }\n";
    assert_clean("crates/sim/src/bin/tool.rs", src);
    assert_clean("crates/sim/src/main.rs", src);
    assert_clean("crates/sim/tests/t.rs", src);
}

// ------------------------------------------------------------------ E1

#[test]
fn e1_triggers_on_discarded_call_result() {
    let src = "fn f(s: &mut Store) { let _ = s.insert(1, 2); }\n";
    assert_eq!(rules("crates/trace/src/x.rs", src), vec!["E1"]);
}

#[test]
fn e1_triggers_on_multiline_discard() {
    let src = "fn f(s: &mut Store) {\n\
                   let _ = s\n\
                       .insert(1, 2);\n\
               }\n";
    assert_eq!(rules("crates/trace/src/x.rs", src), vec!["E1"]);
}

#[test]
fn e1_passes_pure_binds_and_tests() {
    // Destructuring-style discards with no call are deliberate.
    let src = "fn f(k: u32, v: u32) { let _ = (k, v); let _ = k; }\n";
    assert_clean("crates/trace/src/x.rs", src);
    let src = "#[cfg(test)]\nmod tests {\n    fn f(s: &mut Store) { let _ = s.insert(1, 2); }\n}\n";
    assert_clean("crates/trace/src/x.rs", src);
}

// ------------------------------------------------------------------ L1

#[test]
fn l1_triggers_on_engine_reach_through() {
    let src = "fn step(sim: &mut PastrySim<App, Mesh>) { sim.engine.step(); }\n";
    assert_eq!(rules("crates/core/src/x.rs", src), vec!["L1"]);
}

#[test]
fn l1_triggers_on_engine_types_and_module_paths() {
    let src = "use past_netsim::engine::Engine;\n";
    let r = rules("crates/pastry/src/x.rs", src);
    assert_eq!(r, vec!["L1"], "one diagnostic per line, not per pattern");
    let src = "pub struct Sim { eng: Engine<Node, Mesh> }\n";
    assert_eq!(rules("crates/pastry/src/x.rs", src), vec!["L1"]);
}

#[test]
fn l1_triggers_on_shard_internals_and_wheel() {
    let src = "use past_netsim::shard::Shard;\n";
    assert_eq!(rules("crates/pastry/src/x.rs", src), vec!["L1"]);
    let src = "fn f(cfg: ShardConfig) -> ShardConfig { cfg }\n";
    assert_eq!(rules("crates/core/src/x.rs", src), vec!["L1"]);
    let src = "use past_netsim::wheel::TimerWheel;\n";
    assert_eq!(rules("crates/pastry/src/x.rs", src), vec!["L1"]);
}

#[test]
fn l1_passes_vocabulary_types_and_other_crates() {
    // Addr/SimTime/OpId/Message are the sanctioned sans-io surface.
    let src = "use past_netsim::{Addr, Message, OpId, SimTime};\n\
               fn f(a: Addr, t: SimTime) -> Addr { a }\n";
    assert_clean("crates/pastry/src/x.rs", src);
    // The same engine-driving code is fine outside the protocol crates.
    let src = "fn step(sim: &mut Harness) { sim.engine.step(); }\n";
    assert_clean("crates/sim/src/x.rs", src);
}

#[test]
fn l1_passes_backend_abstraction_reexports() {
    // Backend-generic protocol code is sanctioned as long as it goes
    // through the crate-root re-exports, not a module path.
    let src = "use past_netsim::{SimBackend, WindowTooWide};\n\
               fn f<E: SimBackend<N>>(e: &E) -> SimTime { e.now() }\n";
    assert_clean("crates/pastry/src/x.rs", src);
    let src = "use past_netsim::WindowTooWide;\n\
               fn floor(e: WindowTooWide) -> u64 { e.min_delay_us }\n";
    assert_clean("crates/core/src/x.rs", src);
}

// ------------------------------------------------------------------ M1

/// A complete, hygienic message enum: every variant named in every
/// covering fn (the codec triple plus `kind_id`), KINDS arity matches.
const M1_CLEAN: &str = "pub enum ChordMsg { Lookup(Q), Probe }\n\
    impl Message for ChordMsg {\n\
        const KINDS: &'static [&'static str] = &[\"lookup\", \"probe\"];\n\
        fn kind_id(&self) -> usize {\n\
            match self { ChordMsg::Lookup(_) => 0, ChordMsg::Probe => 1 }\n\
        }\n\
    }\n\
    impl Wire for ChordMsg {\n\
        fn encode(&self, out: &mut Vec<u8>) {\n\
            match self { ChordMsg::Lookup(_) => out.push(0), ChordMsg::Probe => out.push(1) }\n\
        }\n\
        fn decode(buf: &[u8]) -> Result<(ChordMsg, usize), DecodeError> {\n\
            match buf[1] { 0 => Ok((ChordMsg::Lookup(q()), 2)), _ => Ok((ChordMsg::Probe, 2)) }\n\
        }\n\
        fn encoded_len(&self) -> u64 {\n\
            match self { ChordMsg::Lookup(_) => 39, ChordMsg::Probe => 2 }\n\
        }\n\
    }\n";

#[test]
fn m1_passes_full_coverage() {
    assert_clean("crates/baselines/src/x.rs", M1_CLEAN);
}

#[test]
fn m1_triggers_on_wildcard_hidden_variant() {
    // Wildcard hides `Probe` from `kind_id`; everything else is covered.
    let src = M1_CLEAN.replace(
        "ChordMsg::Lookup(_) => 0, ChordMsg::Probe => 1",
        "ChordMsg::Lookup(_) => 0, _ => 1",
    );
    let d = diags("crates/baselines/src/x.rs", &src);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].rule, "M1");
    assert!(d[0].msg.contains("ChordMsg::Probe"), "{}", d[0].msg);
    assert!(d[0].msg.contains("kind_id"), "{}", d[0].msg);
}

#[test]
fn m1_triggers_on_variant_missing_from_codec_fn() {
    // A decode that never constructs `Probe` (e.g. maps its tag onto
    // `Lookup`) is exactly the drift the codec obligation exists to
    // catch: the variant would encode but silently stop decoding.
    let src = M1_CLEAN.replace(
        "_ => Ok((ChordMsg::Probe, 2))",
        "_ => Ok((ChordMsg::Lookup(q()), 2))",
    );
    let d = diags("crates/baselines/src/x.rs", &src);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].rule, "M1");
    assert!(d[0].msg.contains("ChordMsg::Probe"), "{}", d[0].msg);
    assert!(d[0].msg.contains("decode"), "{}", d[0].msg);
}

#[test]
fn m1_triggers_on_missing_covering_fn() {
    // Strip the whole `impl Wire` block: all three codec obligations
    // (`encode`, `decode`, `encoded_len`) are reported missing.
    let src = &M1_CLEAN[..M1_CLEAN.find("impl Wire").unwrap()];
    let d = diags("crates/baselines/src/x.rs", src);
    assert_eq!(d.len(), 3, "{d:?}");
    for (x, fname) in d.iter().zip(["encode", "decode", "encoded_len"]) {
        assert_eq!(x.rule, "M1");
        assert!(x.msg.contains(fname), "{}", x.msg);
    }
}

#[test]
fn m1_triggers_on_kinds_arity_mismatch() {
    let src = M1_CLEAN.replace("&[\"lookup\", \"probe\"]", "&[\"lookup\"]");
    let d = diags("crates/baselines/src/x.rs", &src);
    assert_eq!(d.len(), 1);
    assert!(d[0].msg.contains("1 labels"), "{}", d[0].msg);
    assert!(d[0].msg.contains("2 variants"), "{}", d[0].msg);
}

/// M1 is cross-file: the enum and its impls may live in different
/// files, and `Self::Variant` paths count as coverage.
#[test]
fn m1_is_cross_file_and_accepts_self_paths() {
    let enum_file = "pub enum ChordMsg { Lookup(Q), Probe }\n";
    let impl_file = "impl Message for ChordMsg {\n\
        const KINDS: &'static [&'static str] = &[\"lookup\", \"probe\"];\n\
        fn kind_id(&self) -> usize {\n\
            match self { Self::Lookup(_) => 0, Self::Probe => 1 }\n\
        }\n\
    }\n\
    impl Wire for ChordMsg {\n\
        fn encode(&self, out: &mut Vec<u8>) {\n\
            match self { Self::Lookup(_) => out.push(0), Self::Probe => out.push(1) }\n\
        }\n\
        fn decode(buf: &[u8]) -> Result<(ChordMsg, usize), DecodeError> {\n\
            match buf[1] { 0 => Ok((Self::Lookup(q()), 2)), _ => Ok((Self::Probe, 2)) }\n\
        }\n\
        fn encoded_len(&self) -> u64 {\n\
            match self { Self::Lookup(_) => 39, Self::Probe => 2 }\n\
        }\n\
    }\n";
    let d = analyze_sources(
        &[
            ("crates/baselines/src/chord.rs", enum_file),
            ("crates/baselines/src/chord_impl.rs", impl_file),
        ],
        &AnalyzeOpts::default(),
    );
    assert!(d.is_empty(), "expected clean, got: {d:?}");
}

#[test]
fn m1_requires_tracked_enums_in_workspace_mode() {
    let d = analyze_sources(
        &[("crates/baselines/src/x.rs", "fn f() {}\n")],
        &AnalyzeOpts {
            require_enums: true,
        },
    );
    // All four tracked enums are missing from this tiny "workspace".
    assert_eq!(d.len(), 4);
    assert!(d.iter().all(|x| x.rule == "M1"));
}

// ---------------------------------------------------- spans & ordering

#[test]
fn diagnostics_carry_spans_and_sort_stably() {
    let src = "fn f() { let t = Instant::now(); }\nfn g() { unsafe {} }\n";
    let d = diags("crates/netsim/src/x.rs", src);
    assert_eq!(d.len(), 2);
    assert_eq!((d[0].rule, d[0].line, d[0].col), ("D1", 1, 18));
    assert_eq!((d[1].rule, d[1].line), ("U1", 2));
    assert!(d[1].col > 1);
}
