//! Certification of static fuel-bound inference against the profiler.
//!
//! [`funtal::infer_fuel`] runs the program on the fast machine — one of
//! FT's two machines, next to the Fig 8 oracle — under a static loop
//! gate that refuses every T module with a back edge the run enters,
//! and claims *exactness*: when it returns [`FuelBound::Exact(n)`],
//! the program consumes precisely `n` fuel (the budget is 1 000 000
//! fuel). This suite holds it to that claim on three fronts:
//!
//! 1. every loop-free paper figure gets an `Exact` bound equal to the
//!    dynamically measured total of the span profiler (which is itself
//!    certified equal to the minimal sufficient fuel) — including a
//!    program that holds a looping module on a branch it never takes,
//!    since the gate judges the modules entered, not those present;
//! 2. programs that enter static T loops (the Fig 17 T factorial, the
//!    compiled MiniF programs) are refused with `Unknown` — never a
//!    wrong number;
//! 3. on a generated corpus, *whenever* inference commits to `Exact`
//!    the number is right (soundness under fresh seeds), and the
//!    loop-free seeds do commit (the analysis is not vacuous).

use std::sync::Arc;

use funtal::figures::*;
use funtal::machine::{run, run_fexpr, EvalStrategy, FtOutcome, RunCfg};
use funtal::{infer_fuel, prelower, FuelBound};
use funtal_equiv::gen::{gen_context, gen_value, SplitMix};
use funtal_syntax::build::*;
use funtal_syntax::span::SpanTable;
use funtal_syntax::{Component, FExpr, FTy};
use funtal_tal::machine::Memory;
use funtal_tal::trace::NullTracer;
use funtal_tal::{Profiler, RootLang};

/// The dynamically measured fuel total for an F program, via the span
/// profiler (every tick is charged to exactly one span, so the
/// attributed total is the run's step count).
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

/// The least fuel under which the bytecode tier completes.
fn minimal_fuel(e: &FExpr) -> u64 {
    let done = |fuel: u64| {
        !matches!(
            run_fexpr(
                e,
                RunCfg::with_fuel(fuel).with_strategy(EvalStrategy::Bytecode),
                &mut NullTracer,
            ),
            Ok(FtOutcome::OutOfFuel)
        )
    };
    if done(0) {
        return 0;
    }
    let mut hi = 1u64;
    while !done(hi) {
        hi *= 2;
        assert!(hi < 1 << 32, "program does not terminate");
    }
    let mut lo = 0u64;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if done(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn loop_free_figures() -> Vec<(String, FExpr)> {
    let mut out: Vec<(String, FExpr)> = Vec::new();
    for n in [-3i64, 0, 5] {
        out.push((format!("fig16_f1({n})"), app(fig16_f1(), vec![fint_e(n)])));
        out.push((format!("fig16_f2({n})"), app(fig16_f2(), vec![fint_e(n)])));
    }
    // The F-side factorial recurses through closures, not through T
    // back edges: inference unrolls it concretely.
    for n in [0i64, 1, 5, 7] {
        out.push((format!("factF({n})"), app(fig17_fact_f(), vec![fint_e(n)])));
    }
    out.push(("fig11_jit".to_string(), fig11_jit()));
    out.push(("push7".to_string(), push7()));
    out.push((
        "mutref_cell_demo".to_string(),
        funtal::mutref::cell_demo(-3, 3),
    ));
    // The gate judges the modules a run enters, not the modules
    // present: the looping factT component sits on the branch not
    // taken, so only the if0 is charged.
    out.push((
        "if0 0 {7} {factT(6)}".to_string(),
        if0(fint_e(0), fint_e(7), app(fig17_fact_t(), vec![fint_e(6)])),
    ));
    out
}

/// Tentpole certificate: on every loop-free figure the statically
/// inferred bound equals the profiler's dynamic measurement *exactly*
/// (and both equal the minimal sufficient fuel).
#[test]
fn loop_free_figures_get_exact_bounds() {
    for (name, e) in loop_free_figures() {
        let lp = prelower(&e);
        let inferred = infer_fuel(&lp);
        let measured = measured_total(&e);
        assert_eq!(
            inferred,
            FuelBound::Exact(measured),
            "{name}: inferred bound != profiled total"
        );
        assert_eq!(
            measured,
            minimal_fuel(&e),
            "{name}: profiled total != minimal sufficient fuel"
        );
    }
}

/// Static T loops are refused, never mis-measured: the Fig 17 T
/// factorial jumps backwards under a `bnz`, so no finite unrolling is
/// certifiable.
#[test]
fn t_loops_are_refused() {
    for n in [0i64, 5] {
        let e = app(fig17_fact_t(), vec![fint_e(n)]);
        assert_eq!(
            infer_fuel(&prelower(&e)),
            FuelBound::Unknown,
            "factT({n}): a looping module must not get a static bound"
        );
    }
    let e = if0(fint_e(1), fint_e(7), app(fig17_fact_t(), vec![fint_e(6)]));
    assert_eq!(
        infer_fuel(&prelower(&e)),
        FuelBound::Unknown,
        "if0 1 {{7}} {{factT(6)}}: the taken branch enters a looping module"
    );
}

/// Generated-corpus certification: the same generators as the
/// differential suite; every seed on which inference commits to
/// `Exact` must match the dynamic measurement, and the corpus must
/// contain committed seeds (the analysis is not vacuously `Unknown`).
#[test]
fn generated_corpus_bounds_are_sound() {
    let tys: Vec<FTy> = vec![
        fint(),
        funit(),
        ftuple_ty(vec![fint(), fint()]),
        arrow(vec![fint()], fint()),
        arrow(vec![fint(), fint()], fint()),
        fmu("a", ftuple_ty(vec![fint(), funit()])),
    ];
    let mut exact = 0usize;
    let mut total = 0usize;
    for seed in 0u64..192 {
        let mut rng = SplitMix::new(seed);
        let ty = tys[rng.below(tys.len())].clone();
        let value = gen_value(&ty, &mut rng, 3);
        let ctx = gen_context(&ty, &mut rng, 3);
        let prog = ctx.plug(&value);
        if funtal::typecheck(&prog).is_err() {
            continue;
        }
        total += 1;
        let lp = prelower(&prog);
        match infer_fuel(&lp) {
            FuelBound::Exact(n) => {
                exact += 1;
                assert_eq!(
                    n,
                    measured_total(&prog),
                    "seed {seed} ({}): exact bound is wrong",
                    ctx.describe
                );
            }
            FuelBound::Unknown => {
                // Refusal is always sound; the counter below keeps it
                // from becoming the only answer.
            }
        }
    }
    assert!(
        total >= 64,
        "corpus generator produced too few typed programs ({total})"
    );
    assert!(
        exact * 2 >= total,
        "inference committed on only {exact}/{total} corpus programs"
    );
}
