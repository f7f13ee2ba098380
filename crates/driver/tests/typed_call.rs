//! The typed call of a compiled MiniF definition.
//!
//! `Pipeline::run_compiled` types a call from the wrapper's boundary
//! annotation when it matches the bundle's recorded type, instead of
//! re-checking the whole boundary-wrapped component. These tests pin
//! that the shortcut is invisible: for every definition of every
//! `examples/*.mf` program, with and without tail-call optimisation,
//! over several argument vectors (wrong arities included), it returns
//! what the full check plus run of `app(wrapped, ints)` returns, in
//! value, type, step counts and error text. The same holds for a
//! bundle rebuilt from a store verdict. A bundle whose recorded type
//! disagrees with the annotation takes the full check; one whose
//! recorded type agrees does not.

use std::path::Path;
use std::sync::Arc;

use funtal::machine::FtOutcome;
use funtal_compile::codegen::CodegenOpts;
use funtal_driver::{ArtifactCache, CompiledMiniF, DiskStore, FunTalError, Pipeline, RunReport};
use funtal_syntax::build::{
    add, app, arrow, chi, code_block, fint, fint_e, halt, int, int_v, nil, q_end, r1, seq,
};
use funtal_syntax::{FExpr, FTy, Label};
use funtal_tal::trace::CountTracer;

/// What a caller can observe of a run: type, outcome and step counts,
/// or the rendered error (which names the stage).
type Observed = Result<(String, FtOutcome, CountTracer), String>;

fn observe(r: Result<RunReport, FunTalError>) -> Observed {
    r.map(|r| (r.ty.to_string(), r.outcome, r.counts))
        .map_err(|e| e.to_string())
}

/// `(file name, source)` of every MiniF example.
fn minif_examples() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mf"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("reading example"))
        })
        .collect();
    out.sort();
    assert!(out.len() >= 2, "expected the MiniF examples");
    out
}

/// Argument vectors for a definition of `arity` parameters: the right
/// arity with small, zero, negative and extreme values, plus one too
/// few and one too many.
fn arg_vectors(arity: usize) -> Vec<Vec<i64>> {
    let mut out = vec![
        (1..=arity as i64).collect(),
        vec![0; arity],
        (0..arity as i64).map(|i| 6 - i).collect(),
        vec![-1; arity],
        vec![i64::MAX; arity],
        vec![3; arity + 1],
    ];
    if arity > 0 {
        out.push(vec![2; arity - 1]);
    }
    out
}

fn pipeline(tco: bool) -> Pipeline {
    // A small fuel bound keeps the diverging calls (a recursive
    // definition on a negative or huge argument) quick.
    Pipeline::new()
        .with_fuel(20_000)
        .with_codegen(CodegenOpts { tail_call_opt: tco })
}

/// The full-check reference: `run` on `app(wrapped, ints)`.
fn reference(p: &Pipeline, bundle: &CompiledMiniF, name: &str, args: &[i64]) -> Observed {
    let f = bundle.wrapped_fexpr(name).expect("definition");
    observe(p.run(&app(f.clone(), args.iter().map(|n| fint_e(*n)).collect())))
}

/// Every definition × argument vector of `bundle`: `run_compiled`
/// equals the reference. Returns the number of calls compared.
fn assert_calls_match(p: &Pipeline, bundle: &CompiledMiniF, what: &str) -> usize {
    let mut compared = 0;
    for (name, _, ty) in &bundle.wrapped {
        let FTy::Arrow { params, .. } = ty else {
            panic!("{what}: {name} is not a function: {ty}");
        };
        for args in arg_vectors(params.len()) {
            let want = reference(p, bundle, name, &args);
            let got = observe(p.run_compiled(bundle, name, &args));
            assert_eq!(got, want, "{what}: {name}{args:?}");
            compared += 1;
        }
    }
    compared
}

#[test]
fn typed_call_matches_the_full_check_on_every_example() {
    let mut compared = 0;
    for (file, src) in minif_examples() {
        for tco in [false, true] {
            let p = pipeline(tco);
            let bundle = p.compile_minif_source(&src).expect("example compiles");
            compared += assert_calls_match(&p, &bundle, &format!("{file} tco={tco}"));
        }
    }
    assert!(compared >= 40, "only {compared} calls compared");
}

#[test]
fn typed_call_matches_on_bundles_rebuilt_from_the_store() {
    let dir = std::env::temp_dir().join(format!("funtal_typed_call_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = || ArtifactCache::with_store(Arc::new(DiskStore::open(&dir, 0).expect("store")));
    for (file, src) in minif_examples() {
        for tco in [false, true] {
            let p = pipeline(tco);
            let fresh = engine()
                .compile(&src, tco, || p.compile_minif_source(&src))
                .expect("cold compile");
            // A second engine on the same directory: a disk hit, so
            // the bundle's types come from the stored verdict.
            let warm = engine();
            let rebuilt = warm
                .compile(&src, tco, || -> Result<CompiledMiniF, FunTalError> {
                    panic!("{file}: expected a store hit")
                })
                .expect("warm compile");
            assert_eq!(warm.store_stats().expect("store").compile.hits, 1);
            assert_eq!(rebuilt.wrapped, fresh.wrapped, "{file} tco={tco}");
            assert_calls_match(&p, &rebuilt, &format!("{file} tco={tco} (store)"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An example compiled without tail-call optimisation.
fn compiled_example(file: &str) -> (Pipeline, CompiledMiniF) {
    let p = pipeline(false);
    let (_, src) = minif_examples()
        .into_iter()
        .find(|(f, _)| f == file)
        .expect("example");
    let bundle = p.compile_minif_source(&src).expect("example compiles");
    (p, bundle)
}

#[test]
fn recorded_type_disagreeing_with_the_annotation_takes_the_full_check() {
    // `fact`'s wrapper re-annotated as a two-argument function: the
    // component still returns a one-argument code pointer, so it is
    // ill-typed. The recorded type is still `(int) -> int`, so the
    // annotation is not trusted: the call is checked, and the check
    // rejects it.
    let (p, mut bundle) = compiled_example("fact.mf");
    let (_, f, _) = bundle
        .wrapped
        .iter_mut()
        .find(|(n, _, _)| n == "fact")
        .expect("fact");
    let FExpr::Boundary { ty, .. } = f else {
        panic!("wrapper is a boundary");
    };
    *ty = arrow(vec![fint(), fint()], fint());
    let got = observe(p.run_compiled(&bundle, "fact", &[1, 2]));
    assert_eq!(got, reference(&p, &bundle, "fact", &[1, 2]));
    let err = got.expect_err("the full check rejects the wrapper");
    assert!(err.starts_with("error[typecheck]"), "{err}");
}

#[test]
fn recorded_type_matching_the_annotation_skips_the_check() {
    // An unreachable ill-typed block makes the full check fail while
    // leaving the run unchanged, so the two paths can be told apart.
    let (p, mut bundle) = compiled_example("poly.mf");
    let (_, f, _) = &mut bundle.wrapped[0];
    let FExpr::Boundary { comp, .. } = f else {
        panic!("wrapper is a boundary");
    };
    let junk = code_block(
        vec![],
        chi([]),
        nil(),
        q_end(int(), nil()),
        seq(vec![add(r1(), r1(), int_v(1))], halt(int(), nil(), r1())),
    );
    comp.heap.0.insert(Label::new("junk"), Arc::new(junk));
    let err = reference(&p, &bundle, "poly", &[3, 4]).expect_err("the full check rejects");
    assert!(err.contains("register r1 has no type"), "{err}");
    let report = p
        .run_compiled(&bundle, "poly", &[3, 4])
        .expect("typed call runs");
    assert_eq!(report.ty.to_string(), "int");
    assert_eq!(report.value().expect("value").to_string(), "44");
    // A wrong arity still goes through the checker.
    let err = observe(p.run_compiled(&bundle, "poly", &[3])).expect_err("arity");
    assert!(err.contains("register r1 has no type"), "{err}");
}
