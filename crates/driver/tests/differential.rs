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
    }
}
