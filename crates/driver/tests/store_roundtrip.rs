//! Serialize → deserialize identity for what the store persists. Every
//! typecheck verdict is written as `ty.to_string()` and served as
//! `parse_fty` of that text, so for every type the pipeline produces
//! the text must parse back to the *same* type — not merely an
//! alpha-equivalent one — and re-render byte for byte, and the store's
//! decode gate must accept it.
//!
//! Types come from the equivalence generators (`gen_type`, and the
//! checked types of `gen_program` outputs), the paper figures, and
//! every compiled `examples/*.mf` definition under both codegen modes.

use std::path::Path;

use funtal_driver::artifact::{self, Verdict};
use funtal_driver::wire;
use funtal_driver::Pipeline;
use funtal_equiv::gen::{gen_program, gen_type, SplitMix};
use funtal_parser::parse_fty;
use funtal_store::Stage;
use funtal_syntax::FTy;
use proptest::prelude::*;

/// Asserts `ty`'s canonical text round-trips exactly, through the
/// parser and through the check stage's decode gate.
fn assert_round_trips(ty: &FTy, what: &str) {
    let text = ty.to_string();
    let back = parse_fty(&text).unwrap_or_else(|e| panic!("{what}: {e}: {text}"));
    assert_eq!(&back, ty, "{what}: {text}");
    assert_eq!(back.to_string(), text, "{what}: re-rendering differs");
    match artifact::decode(Stage::Check, b"key", text.as_bytes()) {
        Ok(Verdict::Check(served)) => assert_eq!(&served, ty, "{what}"),
        other => panic!("{what}: decode gate refused {text}: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn generated_artifacts_round_trip(seed in 0i64..1_000_000_000) {
        let mut rng = SplitMix::new(seed as u64);
        for depth in 0..4 {
            let ty = gen_type(&mut rng, depth);
            assert_round_trips(&ty, &format!("gen_type seed {seed} depth {depth}"));
        }
        let gp = gen_program(&mut rng, 2);
        let checked = Pipeline::new().check(&gp.expr).expect("generated programs typecheck");
        assert_round_trips(&checked, &gp.describe);
        assert_round_trips(&gp.ty, &gp.describe);
    }
}

#[test]
fn paper_figure_types_round_trip() {
    use funtal::figures;
    let p = Pipeline::new();
    for (name, e) in [
        ("fig16_f1", figures::fig16_f1()),
        ("fig16_f2", figures::fig16_f2()),
        ("fig17_fact_f", figures::fig17_fact_f()),
        ("fig17_fact_t", figures::fig17_fact_t()),
        ("fig11_jit", figures::fig11_jit()),
        ("push7", figures::push7()),
    ] {
        assert_round_trips(&p.check(&e).expect(name), name);
    }
    assert_round_trips(&figures::fact_mu_ty(), "fact_mu_ty");
    for (name, src) in funtal_driver::corpus::paper_corpus() {
        let ty = p.check(&p.parse(&src).expect(&name)).expect(&name);
        assert_round_trips(&ty, &name);
    }
}

#[test]
fn compiled_example_types_round_trip() {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut sources: Vec<_> = std::fs::read_dir(&examples)
        .expect("examples/")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mf"))
        .collect();
    sources.sort();
    assert!(sources.len() >= 2, "{sources:?}");
    for path in sources {
        let src = std::fs::read_to_string(&path).expect("read");
        for tco in [false, true] {
            let what = format!("{} (tco {tco})", path.display());
            let bundle = Pipeline::new()
                .with_codegen(funtal_compile::codegen::CodegenOpts { tail_call_opt: tco })
                .compile_minif_source(&src)
                .expect(&what);
            for (name, _, ty) in &bundle.wrapped {
                assert_round_trips(ty, &format!("{what} {name}"));
            }
            let payload = wire::encode_types(bundle.wrapped.iter().map(|(_, _, t)| t));
            let key = artifact::compile_key(&src, tco);
            match artifact::decode(Stage::Compile, &key, &payload) {
                Ok(Verdict::Compile { types, .. }) => {
                    let want: Vec<&FTy> = bundle.wrapped.iter().map(|(_, _, t)| t).collect();
                    assert_eq!(types.iter().collect::<Vec<_>>(), want, "{what}");
                }
                other => panic!("{what}: decode gate refused: {other:?}"),
            }
        }
    }
}
