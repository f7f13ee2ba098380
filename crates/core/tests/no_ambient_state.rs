//! No ambient state: a run on the fast machine depends on its arguments
//! alone.
//!
//! The fast machine memoizes only inside artifacts its caller owns:
//! each boundary node of a [`LoweredProgram`] keeps its lowered module
//! and, at arrow type, one wrapper slot, and a [`Compiled`] keeps one
//! lowered program per definition. Nothing survives on the thread. This
//! suite pins the consequence: for every program, what a run shows —
//! outcome (or error text), traced events, untraced step counts and,
//! where the entry point exposes it, the final memory — is the same
//!
//! 1. on the first run of a fresh artifact on a fresh thread;
//! 2. on the 2nd and 3rd runs of the same artifact;
//! 3. on runs interleaved, on one thread, with other programs;
//! 4. on runs of one artifact on two threads at once, while its memos
//!    fill.
//!
//! The corpus holds the paper figures, compiled `fib` and `fact` calls,
//! and programs whose arrow-typed boundary is left twice at different
//! fresh-counter states, so its wrapper slot holds the first exit and
//! misses on the second.

use funtal::figures::*;
use funtal::machine::{run, EvalStrategy, FtOutcome, RunCfg};
use funtal::{prelower, run_prelowered, LoweredProgram};
use funtal_compile::codegen::{compile_program, CodegenOpts, Compiled};
use funtal_compile::lang::{factorial_program, fib_program};
use funtal_parser::parse_fexpr;
use funtal_syntax::build::*;
use funtal_syntax::{Component, FExpr};
use funtal_tal::machine::Memory;
use funtal_tal::trace::{CountTracer, Event, Tracer, VecTracer};

/// What a program is run from.
enum Artifact {
    /// Through `run_prelowered`, which reads and fills the program's
    /// wrapper slots (the expression is what the oracle runs).
    Lowered(FExpr, LoweredProgram),
    /// A compiled definition called on integers, through the lowering
    /// `Compiled` keeps for it.
    Call(Compiled, &'static str, Vec<i64>),
    /// Through `run`, which exposes the final memory.
    Comp(Component),
}

/// Everything one run shows.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<FtOutcome, String>,
    /// The events of a traced run (empty for an untraced one).
    events: Vec<Event>,
    /// The counts of an untraced run (zero for a traced one).
    counts: CountTracer,
    /// The final memory, rendered, when the entry point exposes it.
    memory: Option<String>,
}

/// The Fig 9 translation of `(int) -> int`, as halt annotations spell it.
const CODE_TY: &str = "box forall[z: stk, e: ret]{ra: box forall[]{r1: int; z} e; int :: z} ra";

/// `mk : (int) -> (int) -> int` bound to a function whose boundary
/// exports F's adder `λx. x + k` to T and back through the Fig 10
/// wrapper. The component has no heap, so every exit reaches the same
/// boundary unrenamed, each time with a fresh code word.
fn with_adder(body: &str) -> String {
    format!(
        "(lam[z0](mk: (int) -> (int) -> int). {body})(lam[z1](k: int). \
         FT[(int) -> int](protect ., zp; \
         import r1, z2 = zp, TF[(int) -> int](lam[z3](x: int). x + k); \
         halt {CODE_TY}, zp {{r1}}))"
    )
}

/// `mk(0)(5) + mk(0)(6)` = 13, where `mk`'s boundary exports the same
/// T block `ladd` both times: the two exits differ only in the fresh
/// counter, which names their `ℓend` blocks (`lend$0`, then `lend$1`).
const FIXED_LABEL_TWICE: &str = "FT[int](protect ., zp;
    import r1, z2 = zp, TF[int]((lam[z0](mk: (int) -> (int) -> int). mk(0)(5) + mk(0)(6))
        (lam[z1](k: int). FT[(int) -> int](protect ., zq; mv r1, ladd;
            halt box forall[z: stk, e: ret]{ra: box forall[]{r1: int; z} e; int :: z} ra, zq {r1})));
    halt int, zp {r1},
    {ladd -> code[z: stk, e: ret]{ra: box forall[]{r1: int; z} e; int :: z} ra.
        sld r1, 0; add r1, r1, 1; sfree 1; ret ra {r1}})";

/// Every program, as fresh artifacts (no slot filled yet).
fn artifacts() -> Vec<(String, Artifact)> {
    let mut exprs: Vec<(String, FExpr)> = Vec::new();
    for n in [0i64, 5] {
        exprs.push((format!("fig16_f1({n})"), app(fig16_f1(), vec![fint_e(n)])));
        exprs.push((format!("fig16_f2({n})"), app(fig16_f2(), vec![fint_e(n)])));
        exprs.push((format!("factF({n})"), app(fig17_fact_f(), vec![fint_e(n)])));
        exprs.push((format!("factT({n})"), app(fig17_fact_t(), vec![fint_e(n)])));
    }
    exprs.push(("fig11_jit".into(), fig11_jit()));
    exprs.push(("push7".into(), push7()));
    // Each boundary below is left twice at different fresh-counter
    // states, so its wrapper slot keeps the first exit and misses on
    // the second. The last one returns the second wrapper itself, so
    // the outcome names its code word and `ℓend` label.
    for (name, src) in [
        ("adder_twice", with_adder("mk(1)(5) + mk(2)(5)")),
        ("fixed_label_twice", FIXED_LABEL_TWICE.to_string()),
        (
            "adder_returned",
            with_adder("(lam[z4](u: int). mk(2))(mk(1)(5))"),
        ),
    ] {
        exprs.push((name.into(), parse_fexpr(&src).expect(name)));
    }

    let mut out = Vec::new();
    for (name, e) in &exprs {
        out.push((
            format!("{name} lowered"),
            Artifact::Lowered(e.clone(), prelower(e)),
        ));
        out.push((
            format!("{name} run"),
            Artifact::Comp(Component::F(e.clone())),
        ));
    }
    out.push((
        "fig3 run".into(),
        Artifact::Comp(Component::T(funtal_tal::figures::fig3_call_to_call())),
    ));
    for tco in [false, true] {
        let opts = CodegenOpts { tail_call_opt: tco };
        let fib = compile_program(&fib_program(), opts);
        let fact = compile_program(&factorial_program(), opts);
        out.push((
            format!("fib(10) tco={tco}"),
            Artifact::Call(fib, "fib", vec![10]),
        ));
        out.push((
            format!("fact(5) tco={tco}"),
            Artifact::Call(fact, "fact", vec![5]),
        ));
    }
    out
}

impl Artifact {
    /// The program as the oracle runs it.
    fn program(&self) -> Component {
        match self {
            Artifact::Lowered(e, _) => Component::F(e.clone()),
            Artifact::Call(compiled, name, args) => Component::F(app(
                compiled.wrap(name),
                args.iter().map(|n| fint_e(*n)).collect(),
            )),
            Artifact::Comp(comp) => comp.clone(),
        }
    }
}

/// Runs `a` on the fast machine, or its program on the Fig 8 oracle.
fn observe_on(a: &Artifact, traced: bool, strategy: EvalStrategy) -> Observed {
    let cfg = RunCfg::with_fuel(100_000).with_strategy(strategy);
    let mut events = VecTracer::new();
    let mut counts = CountTracer::new();
    let tracer: &mut dyn Tracer = if traced { &mut events } else { &mut counts };
    let (outcome, memory) = match a {
        _ if strategy == EvalStrategy::Substitution => {
            let mut mem = Memory::new();
            let out = run(&mut mem, &a.program(), cfg, tracer);
            let memory = matches!(a, Artifact::Comp(_)).then(|| format!("{mem:?}"));
            (out, memory)
        }
        Artifact::Lowered(_, lp) => (run_prelowered(lp, cfg, tracer), None),
        Artifact::Call(compiled, name, args) => {
            let lp = compiled.lowered(name).expect("a compiled definition");
            (run_prelowered(&lp.call(args), cfg, tracer), None)
        }
        Artifact::Comp(comp) => {
            let mut mem = Memory::new();
            let out = run(&mut mem, comp, cfg, tracer);
            (out, Some(format!("{mem:?}")))
        }
    };
    Observed {
        outcome: outcome.map_err(|e| e.to_string()),
        events: events.events,
        counts,
        memory,
    }
}

fn observe(a: &Artifact, traced: bool) -> Observed {
    observe_on(a, traced, EvalStrategy::Environment)
}

/// Case 1 for every program: the first run of a fresh artifact, each on
/// a thread of its own, traced and untraced. Each must match the
/// oracle, so a memo that changes what a run computes is caught even
/// when it does so the same way every time.
fn first_runs() -> Vec<(Observed, Observed)> {
    let arts = artifacts();
    (0..arts.len())
        .map(|i| {
            let first = |traced| {
                let got = std::thread::spawn(move || observe(&artifacts()[i].1, traced))
                    .join()
                    .expect("observing thread");
                let (name, a) = &arts[i];
                let want = observe_on(a, traced, EvalStrategy::Substitution);
                assert_eq!(
                    got, want,
                    "{name}: first run vs the oracle, traced={traced}"
                );
                got
            };
            (first(true), first(false))
        })
        .collect()
}

#[test]
fn repeated_runs_of_one_artifact_match_the_first() {
    let reference = first_runs();
    for traced in [true, false] {
        for ((name, a), (want_traced, want_untraced)) in artifacts().iter().zip(&reference) {
            let want = if traced { want_traced } else { want_untraced };
            for run in 1..=3 {
                assert_eq!(
                    &observe(a, traced),
                    want,
                    "{name}: run {run}, traced={traced}"
                );
            }
        }
    }
}

#[test]
fn interleaved_runs_match_the_first() {
    let reference = first_runs();
    let arts = artifacts();
    // Round-robin over every program, alternating traced and untraced
    // runs, so each run follows a different program's.
    for round in 0..3 {
        for (i, ((name, a), (want_traced, want_untraced))) in
            arts.iter().zip(&reference).enumerate()
        {
            let traced = (round + i) % 2 == 0;
            let want = if traced { want_traced } else { want_untraced };
            assert_eq!(
                &observe(a, traced),
                want,
                "{name}: round {round}, traced={traced}"
            );
        }
    }
    // The values the corpus was built around.
    let value = |name: &str| {
        let i = arts.iter().position(|(n, _)| n == name).expect(name);
        reference[i].0.outcome.clone()
    };
    assert_eq!(
        value("adder_twice lowered"),
        Ok(FtOutcome::Value(fint_e(13)))
    );
    assert_eq!(value("fib(10) tco=false"), Ok(FtOutcome::Value(fint_e(55))));
    assert_eq!(value("fact(5) tco=true"), Ok(FtOutcome::Value(fint_e(120))));
    assert!(
        matches!(
            value("adder_returned lowered"),
            Ok(FtOutcome::Value(FExpr::Lam(_)))
        ),
        "the second wrapper is the result"
    );
}

#[test]
fn concurrent_runs_of_one_artifact_match_the_first() {
    let want: Vec<Observed> = first_runs()
        .into_iter()
        .flat_map(|(traced, untraced)| [traced, untraced])
        .collect();
    // Fresh artifacts, so two threads race to fill every memo. They meet
    // at the barrier before each run and compare only once both are
    // done, so a mismatch cannot leave one of them waiting.
    let arts = artifacts();
    let barrier = std::sync::Barrier::new(2);
    let run_all = || {
        let runs = arts.iter().flat_map(|(_, a)| [(a, true), (a, false)]);
        let run = |(a, traced)| {
            barrier.wait();
            observe(a, traced)
        };
        runs.map(run).collect::<Vec<_>>()
    };
    let seen = std::thread::scope(|s| {
        let other = s.spawn(run_all);
        [run_all(), other.join().expect("observing thread")]
    });
    let names = arts.iter().flat_map(|(n, _)| [(n, true), (n, false)]);
    for (thread, seen) in seen.iter().enumerate() {
        for ((got, want), (name, traced)) in seen.iter().zip(&want).zip(names.clone()) {
            assert_eq!(got, want, "{name}: thread {thread}, traced={traced}");
        }
    }
}
