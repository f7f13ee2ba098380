//! Driver-level differential property tests.
//!
//! The core crate already proves (in `strategy_equiv.rs`) that the
//! Fig 8 substitution oracle and the fast machine (CEK for F, bytecode
//! VM for T) agree on the figures. This suite pushes that property up
//! through the driver over a *generated* corpus of well-typed programs
//! — pure F, pure-T boundaries, Fig 9/10-style import/export lambdas,
//! and the paper's figures at sampled inputs
//! (`funtal_equiv::gen::gen_program`) — and adds the batch engine as a
//! further contender:
//!
//! - **Oracle vs fast machine** through [`Pipeline::trace`]: identical
//!   outcomes, identical event streams, identical step/fuel accounting.
//! - **Untraced vs traced counts**: [`Pipeline::run`]'s step counts
//!   come from the fast machine's untraced loop, and must equal the
//!   counts folded from both traced runs at every sampled fuel bound,
//!   bounds the run exhausts included.
//! - **Batch vs sequential**: the batch engine consumes each program's
//!   canonical *rendering* as a source job, runs it through the
//!   lowered-artifact cache, and must reproduce the in-memory
//!   pipeline's outcome, type, and counts exactly — and its rendered
//!   result lines must be byte-identical across worker counts.
//!
//! The committed corpus (`tests/corpus/differential_seeds.txt`) keeps a
//! fixed seed list so failures reproduce; the proptest below samples
//! fresh seeds on every run.

use funtal::machine::{EvalStrategy, FtOutcome};
use funtal_driver::{Batch, Job, JobSuccess, Pipeline};
use funtal_equiv::gen::{gen_program, GenProgram, SplitMix};
use proptest::prelude::*;

const FUEL: u64 = 300_000;

/// Programs per seed drawn from the generator grammar.
const PROGRAMS_PER_SEED: usize = 8;

fn base_pipeline() -> Pipeline {
    Pipeline::new().with_fuel(FUEL)
}

/// The three-way differential assertion for one generated program.
fn assert_differential_clean(p: &GenProgram) {
    let subst = base_pipeline()
        .with_strategy(EvalStrategy::Substitution)
        .trace(&p.expr)
        .unwrap_or_else(|e| panic!("{}: substitution failed: {e}\n{}", p.describe, p.expr));
    let fast = base_pipeline()
        .with_strategy(EvalStrategy::Environment)
        .trace(&p.expr)
        .unwrap_or_else(|e| panic!("{}: fast machine failed: {e}\n{}", p.describe, p.expr));

    // Machine equivalence at the driver level: outcome, event stream,
    // and fuel accounting all match the oracle.
    assert_eq!(
        subst.outcome, fast.outcome,
        "{}: outcomes diverge\n{}",
        p.describe, p.expr
    );
    assert_eq!(
        subst.events, fast.events,
        "{}: event streams diverge\n{}",
        p.describe, p.expr
    );
    assert_eq!(
        subst.counts(),
        fast.counts(),
        "{}: step counts diverge\n{}",
        p.describe,
        p.expr
    );

    // The batch engine consumes the canonical rendering as source and
    // must agree with the in-memory pipeline...
    let jobs = vec![Job::run("p", p.expr.to_string())];
    let one = Batch::new(base_pipeline()).run(&jobs);
    let (ty, outcome, counts) = match &one.outcomes[0].result {
        Ok(JobSuccess::Ran {
            ty,
            outcome,
            counts,
            profile: _,
        }) => (ty.clone(), outcome.clone(), *counts),
        other => panic!("{}: batch failed: {other:?}\n{}", p.describe, p.expr),
    };
    assert_eq!(ty, fast.ty.to_string(), "{}: batch type", p.describe);
    assert_eq!(outcome, fast.outcome, "{}: batch outcome", p.describe);
    assert_eq!(counts, fast.counts(), "{}: batch fuel", p.describe);

    // ...and its report must be byte-identical across worker counts
    // (here over copies of the same job; the stress test covers big
    // mixed corpora).
    let many: Vec<Job> = (0..6)
        .map(|i| Job::run(format!("p{i}"), p.expr.to_string()))
        .collect();
    let seq_lines = Batch::new(base_pipeline()).run(&many).result_lines();
    let par_lines = Batch::new(base_pipeline())
        .with_workers(8)
        .run(&many)
        .result_lines();
    assert_eq!(
        seq_lines, par_lines,
        "{}: parallel batch diverged from sequential",
        p.describe
    );
}

/// Fuel bounds for the count sweep: early exhaustion points, then
/// enough fuel to finish.
const COUNT_BOUNDS: [u64; 12] = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, FUEL];

/// The counts of an engine run (a `CountTracer`, which leaves the fast
/// machine on its untraced loop) equal the counts folded from a traced
/// fast run and from the oracle at `fuel`, whatever the outcome.
fn assert_counts_agree(p: &GenProgram, fuel: u64) {
    let at = |s| Pipeline::new().with_fuel(fuel).with_strategy(s);
    let fail = |what: &str, e: funtal_driver::FunTalError| -> ! {
        panic!("{}: {what} failed: {e}\n{}", p.describe, p.expr)
    };
    let counted = at(EvalStrategy::Environment)
        .run(&p.expr)
        .unwrap_or_else(|e| fail("counted run", e));
    let traced = at(EvalStrategy::Environment)
        .trace(&p.expr)
        .unwrap_or_else(|e| fail("traced run", e));
    let oracle = at(EvalStrategy::Substitution)
        .trace(&p.expr)
        .unwrap_or_else(|e| fail("oracle run", e));
    assert_eq!(
        counted.outcome, oracle.outcome,
        "{} fuel={fuel}",
        p.describe
    );
    assert_eq!(
        counted.counts,
        traced.counts(),
        "{} fuel={fuel}: untraced counts differ from traced",
        p.describe
    );
    assert_eq!(
        counted.counts,
        oracle.counts(),
        "{} fuel={fuel}: untraced counts differ from the oracle's",
        p.describe
    );
}

/// A cheap sanity floor: every generated program the corpus relies on
/// converges to a value (never halts in T at the top level, never runs
/// out of the generous test fuel).
fn assert_converges(p: &GenProgram) {
    let report = base_pipeline()
        .run(&p.expr)
        .unwrap_or_else(|e| panic!("{}: {e}", p.describe));
    assert!(
        matches!(report.outcome, FtOutcome::Value(_)),
        "{}: non-value outcome {:?}",
        p.describe,
        report.outcome
    );
}

#[test]
fn committed_corpus_is_differential_clean() {
    let seeds: Vec<u64> = include_str!("corpus/differential_seeds.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus seeds are integers"))
        .collect();
    assert!(seeds.len() >= 16, "corpus shrank: {} seeds", seeds.len());
    for seed in seeds {
        let mut rng = SplitMix::new(seed);
        for _ in 0..PROGRAMS_PER_SEED {
            let p = gen_program(&mut rng, 2);
            assert_converges(&p);
            assert_differential_clean(&p);
            for fuel in COUNT_BOUNDS {
                assert_counts_agree(&p, fuel);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fresh seeds every run: the differential property is not an
    /// artifact of the committed corpus.
    #[test]
    fn random_programs_are_differential_clean(seed in 0i64..1_000_000_000) {
        let mut rng = SplitMix::new(seed as u64);
        let p = gen_program(&mut rng, 2);
        assert_differential_clean(&p);
        for fuel in COUNT_BOUNDS {
            assert_counts_agree(&p, fuel);
        }
    }
}
