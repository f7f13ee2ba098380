//! The compiled-MiniF half of the static fuel-bound certification.
//!
//! `crates/core/tests/fuel_bounds.rs` certifies [`funtal::infer_fuel`]
//! — a fast-machine run under a static loop gate, with a 1 000 000-fuel
//! budget — against the span profiler on every loop-free paper figure;
//! this suite extends the same exactness claim across the §6 compiler:
//! for the loop-free `examples/poly.mf`, the inferred bound of every
//! compiled call equals the profiler's dynamically measured total
//! *exactly*, while the recursive `examples/fact.mf` is refused with
//! `Unknown` (the gate refuses its compiled T code, which has back
//! edges), never mis-measured.

use std::path::Path;
use std::sync::Arc;

use funtal::machine::{run, EvalStrategy, RunCfg};
use funtal::{infer_fuel, prelower, FuelBound};
use funtal_driver::Pipeline;
use funtal_syntax::build::{app, fint_e};
use funtal_syntax::span::SpanTable;
use funtal_syntax::{Component, FExpr};
use funtal_tal::machine::Memory;
use funtal_tal::{Profiler, RootLang};

fn example(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
        .join("examples")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The dynamically measured fuel total, via the span profiler (every
/// tick is charged to exactly one span, so the attributed total is the
/// run's step count).
fn measured_total(e: &FExpr) -> u64 {
    let mut profiler = Profiler::new(Arc::new(SpanTable::default()), RootLang::F);
    let mut mem = Memory::new();
    run(
        &mut mem,
        &Component::F(e.clone()),
        RunCfg::with_fuel(10_000_000).with_strategy(EvalStrategy::Bytecode),
        &mut profiler,
    )
    .unwrap();
    profiler.total()
}

#[test]
fn compiled_poly_calls_get_exact_bounds() {
    let bundle = Pipeline::new()
        .compile_minif_source(&example("poly.mf"))
        .unwrap();
    let f = bundle.wrapped_fexpr("poly").unwrap();
    for (a, b) in [(0i64, 0i64), (3, 4), (-2, 5), (10, -10), (100, 1)] {
        let call = app(f.clone(), vec![fint_e(a), fint_e(b)]);
        let inferred = infer_fuel(&prelower(&call));
        let measured = measured_total(&call);
        assert_eq!(
            inferred,
            FuelBound::Exact(measured),
            "poly({a}, {b}): inferred bound != profiled total"
        );
    }
}

#[test]
fn compiled_recursion_is_refused() {
    for tco in [false, true] {
        let bundle = Pipeline::new()
            .with_codegen(funtal_compile::codegen::CodegenOpts { tail_call_opt: tco })
            .compile_minif_source(&example("fact.mf"))
            .unwrap();
        let f = bundle.wrapped_fexpr("fact").unwrap();
        let call = app(f.clone(), vec![fint_e(5)]);
        assert_eq!(
            infer_fuel(&prelower(&call)),
            FuelBound::Unknown,
            "fact(5) tco={tco}: a looping module must not get a static bound"
        );
    }
}

/// The `.mf` lint path: each wrapped definition embeds the whole
/// compiled heap, so sibling definitions must not be flagged as
/// unreachable (a finding only stands when every entry point agrees),
/// and the loop-free example carries its certified-bound note.
#[test]
fn minif_lint_does_not_flag_sibling_definitions() {
    let p = Pipeline::new();
    let diags = p
        .lint_minif_source("examples/fact.mf", &example("fact.mf"))
        .unwrap();
    assert!(
        diags.iter().all(|d| d.severity < funtal::Severity::Warning),
        "fact.mf should lint clean at warning level: {diags:?}"
    );
    let diags = p
        .lint_minif_source("examples/poly.mf", &example("poly.mf"))
        .unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "static-fuel-bound" && d.severity == funtal::Severity::Note),
        "poly.mf should carry its certified static fuel bound: {diags:?}"
    );
}
