//! Property tests for the bytecode verifier: everything the lowerer
//! emits is accepted.
//!
//! The mutation half of the story (seeded opcode/offset/register
//! flips are rejected with specific errors) lives next to the
//! verifier in `src/bc_verify.rs`; this integration suite covers the
//! acceptance half over the shared generator grammar — the committed
//! differential seed corpus plus fresh seeds every run — and checks
//! that `lint` runs cleanly and deterministically on the same
//! programs.

use funtal::{lint_program, prelower, verify_lowered};
use funtal_equiv::gen::{gen_program, SplitMix};
use funtal_syntax::span::SpanTable;
use proptest::prelude::*;

/// Programs drawn per seed (matches the differential suite's reuse of
/// one rng across draws).
const PROGRAMS_PER_SEED: usize = 4;

#[test]
fn committed_corpus_is_verifier_accepted() {
    let seeds: Vec<u64> = include_str!("../../driver/tests/corpus/differential_seeds.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("corpus seeds are integers"))
        .collect();
    assert!(seeds.len() >= 16, "corpus shrank: {} seeds", seeds.len());
    for seed in seeds {
        let mut rng = SplitMix::new(seed);
        for i in 0..PROGRAMS_PER_SEED {
            let p = gen_program(&mut rng, 2);
            let lp = prelower(&p.expr);
            verify_lowered(&lp)
                .unwrap_or_else(|e| panic!("seed {seed} program {i} ({}): {e}", p.describe));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fresh seeds every run: acceptance is a property of the
    /// lowerer, not of a fixed corpus.
    #[test]
    fn generated_programs_are_verifier_accepted(seed in 0i64..1_000_000_000) {
        let mut rng = SplitMix::new(seed as u64);
        let p = gen_program(&mut rng, 2);
        let lp = prelower(&p.expr);
        prop_assert!(
            verify_lowered(&lp).is_ok(),
            "{}: {:?}", p.describe, verify_lowered(&lp)
        );
        // Lint must neither panic nor flap on generated programs.
        let spans = SpanTable::new();
        let a = lint_program("gen.ft", &p.expr, &lp, &spans);
        let b = lint_program("gen.ft", &p.expr, &lp, &spans);
        prop_assert_eq!(a, b, "lint output is not deterministic");
    }
}
