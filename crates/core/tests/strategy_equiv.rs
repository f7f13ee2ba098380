//! Differential testing of the oracle against the fast machine.
//!
//! The substitution machine is the executable form of Fig 8; the fast
//! machine (CEK for F, bytecode VM for T) is what programs run on. This
//! suite pins the two together on three axes:
//!
//! 1. **Outcomes** — every paper figure, the compiled MiniF programs,
//!    and a proptest-generated corpus produce *identical*
//!    [`FtOutcome`]s (including heap labels inside halt words and the
//!    exact shape of returned values).
//! 2. **Events** — the traced event streams coincide, so step counts
//!    and control-flow diagrams are machine-independent.
//! 3. **Fuel** — the minimal sufficient fuel is the same, i.e. the
//!    machines agree step-for-step, not just in the limit; in
//!    particular both report `OutOfFuel` under exactly the same
//!    bounds.

use std::sync::Arc;

use funtal::figures::*;
use funtal::machine::{run, run_fexpr, EvalStrategy, FtOutcome, RunCfg};
use funtal_compile::codegen::{compile_program, CodegenOpts};
use funtal_compile::lang::{factorial_program, fib_program};
use funtal_equiv::gen::{gen_context, gen_value, SplitMix};
use funtal_syntax::build::*;
use funtal_syntax::span::SpanTable;
use funtal_syntax::{Component, FExpr, FTy};
use funtal_tal::machine::Memory;
use funtal_tal::trace::{CountTracer, Event, NullTracer, Tracer, VecTracer};
use funtal_tal::{Profiler, RootLang};
use proptest::prelude::*;

/// The fast machine (`Bytecode` is another name for it).
const FAST: EvalStrategy = EvalStrategy::Environment;

fn run_with(
    comp: &Component,
    strategy: EvalStrategy,
    fuel: u64,
) -> (Result<FtOutcome, String>, Vec<funtal_tal::trace::Event>) {
    let mut mem = Memory::new();
    let mut tracer = VecTracer::new();
    let cfg = RunCfg::with_fuel(fuel).with_strategy(strategy);
    let out = run(&mut mem, comp, cfg, &mut tracer).map_err(|e| e.to_string());
    (out, tracer.events)
}

/// The step counts a `CountTracer` folds from an event stream.
fn fold_counts(events: &[Event]) -> CountTracer {
    let mut c = CountTracer::new();
    events.iter().for_each(|e| c.event(e));
    c
}

/// Asserts the fast machine agrees with the oracle on outcome and
/// event stream.
fn assert_agree(name: &str, comp: &Component, fuel: u64) {
    let (sub, sub_events) = run_with(comp, EvalStrategy::Substitution, fuel);
    let (out, events) = run_with(comp, FAST, fuel);
    assert_eq!(sub, out, "{name}: outcome disagrees");
    assert_eq!(sub_events, events, "{name}: event stream disagrees");
}

/// The least fuel under which the strategy completes (binary search).
fn minimal_fuel(comp: &Component, strategy: EvalStrategy) -> u64 {
    let done = |fuel: u64| {
        let mut mem = Memory::new();
        !matches!(
            run(
                &mut mem,
                comp,
                RunCfg::with_fuel(fuel).with_strategy(strategy),
                &mut NullTracer,
            ),
            Ok(FtOutcome::OutOfFuel)
        )
    };
    let mut hi = 1u64;
    while !done(hi) {
        hi *= 2;
        assert!(hi < 1 << 32, "program does not terminate");
    }
    let mut lo = 0u64; // invariant: !done(lo) (fuel 0 never completes a non-value)
    if done(0) {
        return 0;
    }
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

fn figure_programs() -> Vec<(String, Component)> {
    let mut out: Vec<(String, Component)> = Vec::new();
    for n in [-3i64, 0, 5] {
        out.push((
            format!("fig16_f1({n})"),
            Component::F(app(fig16_f1(), vec![fint_e(n)])),
        ));
        out.push((
            format!("fig16_f2({n})"),
            Component::F(app(fig16_f2(), vec![fint_e(n)])),
        ));
    }
    for n in [0i64, 1, 5, 7] {
        out.push((
            format!("factF({n})"),
            Component::F(app(fig17_fact_f(), vec![fint_e(n)])),
        ));
        out.push((
            format!("factT({n})"),
            Component::F(app(fig17_fact_t(), vec![fint_e(n)])),
        ));
    }
    out.push(("fig11_jit".to_string(), Component::F(fig11_jit())));
    out.push((
        "mutref_cell_demo".to_string(),
        Component::F(funtal::mutref::cell_demo(-3, 3)),
    ));
    out.push((
        "fig3_pure_T".to_string(),
        Component::T(funtal_tal::figures::fig3_call_to_call()),
    ));
    out.push(("capturing_closure".to_string(), capturing_closure()));
    out.push((
        "capturing_closure_called_in_T".to_string(),
        capturing_closure_called_in_t(),
    ));
    out
}

/// `(lam[za](x: int). lam[zb](y: int). x + y)(1)`: the value is a
/// closure whose body refers to its environment, so reifying it must
/// substitute `x`.
fn capturing_closure() -> Component {
    let inner = lam_z(vec![("y", fint())], "zb", fadd(var("x"), var("y")));
    Component::F(app(
        lam_z(vec![("x", fint())], "za", inner),
        vec![fint_e(1)],
    ))
}

/// Figure 11's compiled `f` applied to a `g` that captures `k = 5`:
/// `g` crosses into T at an arrow type, so the boundary reifies the
/// closure into a glue block, and T calls it (`h(5) = 10`).
fn capturing_closure_called_in_t() -> Component {
    let FExpr::App {
        func: compiled_f, ..
    } = fig11_jit()
    else {
        unreachable!("Figure 11 is an application")
    };
    let g = lam_z(
        vec![("h", arrow(vec![fint()], fint()))],
        "zg",
        app(var("h"), vec![var("k")]),
    );
    Component::F(app(
        lam_z(vec![("k", fint())], "zk", app(*compiled_f, vec![g])),
        vec![fint_e(5)],
    ))
}

#[test]
fn figures_agree_on_outcomes_and_events() {
    for (name, comp) in figure_programs() {
        assert_agree(&name, &comp, 1_000_000);
    }
}

#[test]
fn figures_agree_on_minimal_fuel() {
    for (name, comp) in figure_programs() {
        let sub = minimal_fuel(&comp, EvalStrategy::Substitution);
        let fast = minimal_fuel(&comp, FAST);
        assert_eq!(sub, fast, "{name}: minimal sufficient fuel differs");
        // And right below the bound, both machines must report
        // OutOfFuel.
        if sub > 0 {
            let (s, _) = run_with(&comp, EvalStrategy::Substitution, sub - 1);
            assert_eq!(s, Ok(FtOutcome::OutOfFuel), "{name}");
            let (o, _) = run_with(&comp, FAST, sub - 1);
            assert_eq!(s, o, "{name}: sub-minimal fuel differs");
        }
    }
}

#[test]
fn compiled_programs_agree() {
    for (pname, p, fname, args) in [
        ("fact", factorial_program(), "fact", vec![6i64]),
        ("fib", fib_program(), "fib", vec![10]),
        ("fib", fib_program(), "double_fib", vec![8]),
    ] {
        for tco in [false, true] {
            let compiled = compile_program(&p, CodegenOpts { tail_call_opt: tco });
            let call = app(
                compiled.wrap(fname),
                args.iter().map(|n| fint_e(*n)).collect(),
            );
            let comp = Component::F(call);
            assert_agree(&format!("{pname}::{fname} tco={tco}"), &comp, 10_000_000);
            let sub = minimal_fuel(&comp, EvalStrategy::Substitution);
            let fast = minimal_fuel(&comp, FAST);
            assert_eq!(sub, fast, "{pname}::{fname} tco={tco}: fuel differs");
        }
    }
}

/// Generated corpus: closed programs assembled from the bounded
/// logical relation's input/context generators at a spread of types.
fn corpus_program(seed: u64) -> Option<(String, FExpr)> {
    let mut rng = SplitMix::new(seed);
    let tys: Vec<FTy> = vec![
        fint(),
        funit(),
        ftuple_ty(vec![fint(), fint()]),
        ftuple_ty(vec![fint(), ftuple_ty(vec![funit(), fint()])]),
        arrow(vec![fint()], fint()),
        arrow(vec![fint(), fint()], fint()),
        arrow(vec![arrow(vec![fint()], fint())], fint()),
        fmu("a", ftuple_ty(vec![fint(), funit()])),
    ];
    let ty = tys[rng.below(tys.len())].clone();
    let value = gen_value(&ty, &mut rng, 3);
    let ctx = gen_context(&ty, &mut rng, 3);
    let prog = ctx.plug(&value);
    // The generators target well-typed experiments; skip the rare
    // combination that falls outside the checker's fragment.
    funtal::typecheck(&prog).ok()?;
    Some((format!("seed {seed}: {}", ctx.describe), prog))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generated_corpus_agrees(seed in 0u32..u32::MAX) {
        let seed = u64::from(seed);
        if let Some((name, prog)) = corpus_program(seed) {
            let comp = Component::F(prog);
            let (sub, sub_events) = run_with(&comp, EvalStrategy::Substitution, 100_000);
            let msub = minimal_fuel(&comp, EvalStrategy::Substitution);
            let (out, events) = run_with(&comp, FAST, 100_000);
            prop_assert_eq!(&sub, &out, "{}: outcomes disagree", name);
            prop_assert_eq!(&sub_events, &events, "{}: events disagree", name);
            let mfast = minimal_fuel(&comp, FAST);
            prop_assert_eq!(msub, mfast, "{}: minimal fuel differs", name);
        }
    }
}

#[test]
fn guarded_runs_agree() {
    // The dynamic type-safety guard must not change behavior on
    // well-typed programs on either machine.
    for (name, comp) in figure_programs() {
        let guarded = |strategy| {
            let cfg = RunCfg {
                fuel: 1_000_000,
                guard: true,
                strategy,
            };
            run(&mut Memory::new(), &comp, cfg, &mut NullTracer).map_err(|e| e.to_string())
        };
        let sub = guarded(EvalStrategy::Substitution);
        assert_eq!(sub, guarded(FAST), "{name}: guarded outcome disagrees");
        assert!(sub.is_ok(), "{name}: guard tripped on well-typed code");
    }
}

#[test]
fn final_memories_agree() {
    // Not just outcomes: the final memory (heap labels, register file,
    // stack) must match, since callers can inspect it after `run`.
    for (name, comp) in figure_programs() {
        let cfg = RunCfg::with_fuel(1_000_000);
        let mut mem_sub = Memory::new();
        let a = run(
            &mut mem_sub,
            &comp,
            cfg.with_strategy(EvalStrategy::Substitution),
            &mut NullTracer,
        )
        .map_err(|e| e.to_string());
        let mut mem = Memory::new();
        let b = run(&mut mem, &comp, cfg.with_strategy(FAST), &mut NullTracer)
            .map_err(|e| e.to_string());
        assert_eq!(a, b, "{name}");
        assert_eq!(mem_sub.heap, mem.heap, "{name}: heap differs");
        assert_eq!(mem_sub.regs, mem.regs, "{name}: register file differs");
        assert_eq!(mem_sub.stack, mem.stack, "{name}: stack differs");
    }
}

#[test]
fn merged_blocks_with_captured_imports_write_back_substituted() {
    // A β-substituted variable reaching an `import` body inside a
    // component-local heap block: the substitution machine substitutes
    // before merging, so the fast machine must write the merged block
    // back in substituted form — and a fresh run on the final memory
    // must still agree.
    let comp = tcomp(
        seq(vec![], jmp(loc("l"))),
        vec![(
            "l",
            code_block(
                vec![],
                chi([]),
                nil(),
                q_end(int(), nil()),
                seq(
                    vec![import(r1(), "zi", nil(), fint(), var("x"))],
                    halt(int(), nil(), r1()),
                ),
            ),
        )],
    );
    let lam_e = lam(vec![("x", fint())], boundary(fint(), comp));
    let prog = Component::F(app(lam_e, vec![fint_e(5)]));

    let mut mem_sub = Memory::new();
    let mut mem_fast = Memory::new();
    let cfg = RunCfg::with_fuel(10_000);
    for (mem, strategy) in [
        (&mut mem_sub, EvalStrategy::Substitution),
        (&mut mem_fast, FAST),
    ] {
        let out = run(mem, &prog, cfg.with_strategy(strategy), &mut NullTracer).unwrap();
        assert_eq!(out, FtOutcome::Value(fint_e(5)), "{strategy:?}");
    }
    assert_eq!(mem_sub.heap, mem_fast.heap, "written-back heaps differ");

    // Re-running another component on the final memories must agree
    // too (the merged block collides and is freshened identically).
    for (mem, strategy) in [
        (&mut mem_sub, EvalStrategy::Substitution),
        (&mut mem_fast, FAST),
    ] {
        let out = run(mem, &prog, cfg.with_strategy(strategy), &mut NullTracer).unwrap();
        assert_eq!(out, FtOutcome::Value(fint_e(5)), "re-run {strategy:?}");
    }
    assert_eq!(mem_sub.heap, mem_fast.heap, "re-run heaps differ");
}

#[test]
fn prelowered_programs_match_environment_trace() {
    // `prelower` + `run_prelowered` (the batch engine's path) must
    // replay exactly the same outcome and event stream as a cold
    // `run_fexpr` on the oracle — for every figure program, reused
    // across runs to exercise the cached-module path.
    for (name, comp) in figure_programs() {
        let Component::F(e) = comp else { continue };
        let cfg = RunCfg::with_fuel(1_000_000);
        let mut tracer = VecTracer::new();
        let oracle = run_fexpr(
            &e,
            cfg.with_strategy(EvalStrategy::Substitution),
            &mut tracer,
        )
        .map_err(|err| err.to_string());
        let lp = funtal::prelower(&e);
        for round in 0..2 {
            let mut bc_tracer = VecTracer::new();
            let out =
                funtal::run_prelowered(&lp, cfg, &mut bc_tracer).map_err(|err| err.to_string());
            assert_eq!(oracle, out, "{name}: prelowered outcome (round {round})");
            assert_eq!(
                tracer.events, bc_tracer.events,
                "{name}: prelowered events (round {round})"
            );
        }
    }
}

/// Runs a component under a [`Profiler`] and returns the attribution
/// state. The span table is empty — bucket names are still the real
/// block labels, so byte-equality of the renderings is exactly as
/// strong a claim as with recorded spans (the driver's tests cover
/// span-resolved output).
fn profile_with(comp: &Component, strategy: EvalStrategy, fuel: u64) -> Profiler {
    let root = match comp {
        Component::F(_) => RootLang::F,
        Component::T(_) => RootLang::T,
    };
    let mut profiler = Profiler::new(Arc::new(SpanTable::default()), root);
    let mut mem = Memory::new();
    run(
        &mut mem,
        comp,
        RunCfg::with_fuel(fuel).with_strategy(strategy),
        &mut profiler,
    )
    .unwrap();
    profiler
}

/// The cost-accounting certificate the profiler ships with: per-span
/// attribution sums exactly to the run's total step count (= the
/// minimal sufficient fuel), and the rendered profile is byte-identical
/// on the oracle and the fast machine.
#[test]
fn profiles_are_certified_across_tiers() {
    let mut programs = figure_programs();
    for (pname, p, fname, args) in [
        ("fact", factorial_program(), "fact", vec![6i64]),
        ("fib", fib_program(), "fib", vec![10]),
    ] {
        for tco in [false, true] {
            let compiled = compile_program(&p, CodegenOpts { tail_call_opt: tco });
            let call = app(
                compiled.wrap(fname),
                args.iter().map(|n| fint_e(*n)).collect(),
            );
            programs.push((
                format!("compiled {pname}::{fname} tco={tco}"),
                Component::F(call),
            ));
        }
    }
    for (name, comp) in programs {
        let minimal = minimal_fuel(&comp, EvalStrategy::Substitution);
        let oracle = profile_with(&comp, EvalStrategy::Substitution, 10_000_000);
        // Every fuel tick is charged to exactly one span: the
        // attributed total IS the minimal sufficient fuel...
        assert_eq!(
            oracle.total(),
            minimal,
            "{name}: profiled total != minimal sufficient fuel"
        );
        // ...the buckets partition it...
        let bucket_sum: u64 = oracle.entries().iter().map(|r| r.ticks).sum();
        assert_eq!(bucket_sum, oracle.total(), "{name}: buckets do not sum");
        let folded_sum: u64 = oracle
            .folded_lines()
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(folded_sum, oracle.total(), "{name}: folded does not sum");
        // ...and both renderings are byte-identical on both machines.
        let p = profile_with(&comp, FAST, 10_000_000);
        assert_eq!(
            oracle.render_table(),
            p.render_table(),
            "{name}: profile table differs"
        );
        assert_eq!(
            oracle.render_folded(),
            p.render_folded(),
            "{name}: folded profile differs"
        );
    }
}

/// Sweep **every** fuel bound from 0 to the minimal sufficient fuel on
/// compiled programs (whose lowered form carries fused heads), with
/// tracing both on (the VM steps through every head's followers) and
/// off (heads take their net-effect routes while the fuel covers
/// them). Outcomes, event streams and step counts must agree at every
/// bound — in particular at `minimal - 1`, the exhaustion boundary a
/// fused multi-step charge could mis-handle. The untraced run counts
/// through a `CountTracer`, which leaves the VM untraced: its counts
/// must equal those folded from the traced run's and the oracle's
/// events, runs that end `OutOfFuel` included.
#[test]
fn fuel_exhaustion_at_every_bound_agrees_across_tiers() {
    for (pname, p, fname, args) in [
        ("fact", factorial_program(), "fact", vec![4i64]),
        ("fib", fib_program(), "fib", vec![7]),
    ] {
        for tco in [false, true] {
            let compiled = compile_program(&p, CodegenOpts { tail_call_opt: tco });
            let call = app(
                compiled.wrap(fname),
                args.iter().map(|n| fint_e(*n)).collect(),
            );
            let comp = Component::F(call);
            let minimal = minimal_fuel(&comp, EvalStrategy::Substitution);
            for fuel in 0..=minimal {
                let (sub, sub_events) = run_with(&comp, EvalStrategy::Substitution, fuel);
                assert_eq!(
                    sub == Ok(FtOutcome::OutOfFuel),
                    fuel < minimal,
                    "{pname} tco={tco}: exhaustion boundary off at fuel {fuel}"
                );
                let (out, events) = run_with(&comp, FAST, fuel);
                assert_eq!(sub, out, "{pname} tco={tco} fuel={fuel}: outcome differs");
                assert_eq!(
                    sub_events, events,
                    "{pname} tco={tco} fuel={fuel}: events differ"
                );
                let mut counts = CountTracer::new();
                let untraced = run(
                    &mut Memory::new(),
                    &comp,
                    RunCfg::with_fuel(fuel).with_strategy(FAST),
                    &mut counts,
                )
                .map_err(|e| e.to_string());
                assert_eq!(
                    sub, untraced,
                    "{pname} tco={tco} fuel={fuel}: untraced outcome differs"
                );
                assert_eq!(
                    counts,
                    fold_counts(&events),
                    "{pname} tco={tco} fuel={fuel}: untraced counts differ from traced"
                );
                assert_eq!(
                    counts,
                    fold_counts(&sub_events),
                    "{pname} tco={tco} fuel={fuel}: untraced counts differ from the oracle's"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fresh-seed certification: the profile of a generated program is
    /// byte-identical on both machines and its total equals the minimal
    /// sufficient fuel.
    #[test]
    fn generated_corpus_profiles_agree(seed in 0u32..u32::MAX) {
        let seed = u64::from(seed);
        if let Some((name, prog)) = corpus_program(seed) {
            let comp = Component::F(prog);
            let minimal = minimal_fuel(&comp, EvalStrategy::Substitution);
            let oracle = profile_with(&comp, EvalStrategy::Substitution, minimal);
            prop_assert_eq!(
                oracle.total(), minimal,
                "{}: profiled total != minimal sufficient fuel", name
            );
            let p = profile_with(&comp, FAST, minimal);
            prop_assert_eq!(
                oracle.render_table(), p.render_table(),
                "{}: profile table differs", name
            );
            prop_assert_eq!(
                oracle.render_folded(), p.render_folded(),
                "{}: folded profile differs", name
            );
        }
    }

    /// Random fuel bounds over larger compiled programs: the sweep
    /// above is exhaustive on small inputs; this samples the same
    /// property where the sweep would be quadratic.
    #[test]
    fn random_fuel_bounds_agree_on_compiled_programs(fuel in 0u32..3_000, pick in 0usize..2) {
        let fuel = u64::from(fuel);
        let (p, fname, args) = if pick == 0 {
            (factorial_program(), "fact", vec![6i64])
        } else {
            (fib_program(), "fib", vec![10])
        };
        let compiled = compile_program(&p, CodegenOpts { tail_call_opt: true });
        let call = app(compiled.wrap(fname), args.iter().map(|n| fint_e(*n)).collect());
        let comp = Component::F(call);
        let (sub, sub_events) = run_with(&comp, EvalStrategy::Substitution, fuel);
        let (out, events) = run_with(&comp, FAST, fuel);
        prop_assert_eq!(&sub, &out, "fuel={}: outcome differs", fuel);
        prop_assert_eq!(&sub_events, &events, "fuel={}: events differ", fuel);
    }
}

#[test]
fn run_fexpr_defaults_to_environment_and_matches_oracle() {
    let e = app(fig17_fact_f(), vec![fint_e(6)]);
    let default_out = run_fexpr(&e, RunCfg::with_fuel(100_000), &mut NullTracer).unwrap();
    let oracle = run_fexpr(
        &e,
        RunCfg::with_fuel(100_000).with_strategy(EvalStrategy::Substitution),
        &mut NullTracer,
    )
    .unwrap();
    assert_eq!(default_out, oracle);
    assert_eq!(default_out, FtOutcome::Value(fint_e(720)));
}
