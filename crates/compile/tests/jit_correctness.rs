//! E12: compiler correctness in the paper's §6 form — for every JIT
//! replacement move, the source and its compiled version must be
//! contextually equivalent: `eS ≈ E[ℱ𝒯 eT]`.
//!
//! Checked with the bounded logical relation of `funtal-equiv`, plus a
//! property-based sweep over randomly generated MiniF programs
//! comparing every configuration against the reference interpreter.

use std::collections::BTreeMap;

use funtal_compile::codegen::{compile_program, CodegenOpts};
use funtal_compile::femit::def_to_fexpr;
use funtal_compile::lang::{factorial_program, fib_program, Def, MExpr, Program};
use funtal_equiv::{equivalent, EquivCfg};
use funtal_syntax::build::*;
use funtal_syntax::ArithOp;
use proptest::prelude::*;

// Note: divergent *interpreted* runs cost O(fuel^2) (the redex context
// grows each step), so the step index is kept small; every convergent
// sample terminates well within it.
fn cfg() -> EquivCfg {
    EquivCfg {
        fuel: 1_500,
        samples: 5,
        depth: 2,
        seed: 7,
    }
}

#[test]
fn compiled_factorial_equiv_interpreted() {
    let p = factorial_program();
    let interpreted = def_to_fexpr(&p.defs["fact"], &BTreeMap::new());
    for opts in [
        CodegenOpts {
            tail_call_opt: false,
        },
        CodegenOpts {
            tail_call_opt: true,
        },
    ] {
        let compiled = compile_program(&p, opts).wrap("fact");
        let v = equivalent(
            &interpreted,
            &compiled,
            &arrow(vec![fint()], fint()),
            &cfg(),
        );
        assert!(v.is_equiv(), "{opts:?}: {v}");
    }
}

#[test]
fn tail_call_ablation_is_semantics_preserving() {
    // The two codegen configurations must be equivalent to each other.
    let p = factorial_program();
    let plain = compile_program(
        &p,
        CodegenOpts {
            tail_call_opt: false,
        },
    )
    .wrap("fact");
    let looped = compile_program(
        &p,
        CodegenOpts {
            tail_call_opt: true,
        },
    )
    .wrap("fact");
    let v = equivalent(&plain, &looped, &arrow(vec![fint()], fint()), &cfg());
    assert!(v.is_equiv(), "{v}");
}

#[test]
fn mixed_configuration_equiv() {
    // double_fib interpreted, fib compiled — a genuinely mixed
    // configuration (F code applying a boundary-wrapped component).
    let p = fib_program();
    let compiled = compile_program(
        &p,
        CodegenOpts {
            tail_call_opt: true,
        },
    );
    let mut mat = BTreeMap::new();
    mat.insert("fib".to_string(), compiled.wrap("fib"));
    let mixed = def_to_fexpr(&p.defs["double_fib"], &mat);

    let mut mat2 = BTreeMap::new();
    mat2.insert(
        "fib".to_string(),
        def_to_fexpr(&p.defs["fib"], &BTreeMap::new()),
    );
    let pure = def_to_fexpr(&p.defs["double_fib"], &mat2);

    let v = equivalent(
        &pure,
        &mixed,
        &arrow(vec![fint()], fint()),
        &EquivCfg {
            fuel: 2_000,
            samples: 4,
            depth: 2,
            seed: 13,
        },
    );
    assert!(v.is_equiv(), "{v}");
}

#[test]
fn jit_ladder_is_observably_equivalent_across_tiers() {
    use funtal::machine::{run_fexpr_threaded, EvalStrategy, FtOutcome, RunCfg};
    use funtal_compile::jit::{Jit, Mode};
    use funtal_tal::trace::CountTracer;
    // Threshold 1: two invocations cover the paper's two-point space —
    // interpreted, then compiled — over the same call.
    let mut jit = Jit::new(
        fib_program(),
        1,
        CodegenOpts {
            tail_call_opt: true,
        },
    );
    let s1 = jit.invoke("fib", &[10], 5_000_000).unwrap();
    let s2 = jit.invoke("fib", &[10], 5_000_000).unwrap();
    assert_eq!(s1.mode, Mode::Interpreted);
    assert_eq!(s2.mode, Mode::Compiled);
    // Both points compute the same value.
    assert_eq!(s1.result, s2.result);
    // The compiled configuration's step accounting on the fast machine
    // is exactly the Fig 8 oracle's.
    let call = app(jit.materialize("fib"), vec![fint_e(10)]);
    let cfg = RunCfg::with_fuel(5_000_000).with_strategy(EvalStrategy::Substitution);
    let (out, tr) = run_fexpr_threaded(&call, cfg, CountTracer::new()).unwrap();
    assert_eq!(out, FtOutcome::Value(fint_e(s2.result)));
    assert_eq!(
        (s2.t_instrs, s2.f_steps, s2.crossings),
        (tr.instrs, tr.f_steps, tr.crossings),
        "fast machine changed observable step counts"
    );
}

// --- property-based sweep over random MiniF programs -----------------------

/// Generates a random call-free or self-recursive MiniF body over `n`
/// parameters. Recursive calls always shrink the first parameter and
/// guard on it, so generated programs terminate on small non-negative
/// inputs.
fn arb_body(n_params: usize, depth: u32) -> BoxedStrategy<MExpr> {
    let params: Vec<String> = (0..n_params).map(|i| format!("p{i}")).collect();
    let leaf = {
        let params = params.clone();
        prop_oneof![
            (-9i64..10).prop_map(MExpr::Int),
            (0..n_params).prop_map(move |i| MExpr::Var(params[i].clone())),
        ]
    };
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_body(n_params, depth - 1);
    prop_oneof![
        leaf,
        (
            sub.clone(),
            sub.clone(),
            prop_oneof![Just(ArithOp::Add), Just(ArithOp::Sub), Just(ArithOp::Mul)]
        )
            .prop_map(|(a, b, op)| MExpr::bin(op, a, b)),
        (sub.clone(), sub.clone(), sub.clone()).prop_map(|(c, t, e)| MExpr::if0(c, t, e)),
    ]
    .boxed()
}

/// Wraps a generated body in a guarded self-recursive skeleton:
/// `f(p0, …) = if0 p0 { body } { f(p0 − 1, body…) + 1 }`.
fn arb_program() -> impl Strategy<Value = Program> {
    (1usize..3, arb_body(2, 3)).prop_map(|(extra, body)| {
        let n = 1 + extra.min(1); // 1 or 2 params
        let body2 = clamp_params(&body, n);
        let rec = MExpr::bin(
            ArithOp::Add,
            MExpr::call(
                "f",
                (0..n)
                    .map(|i| {
                        if i == 0 {
                            MExpr::bin(ArithOp::Sub, MExpr::v("p0"), MExpr::i(1))
                        } else {
                            MExpr::v(&format!("p{i}"))
                        }
                    })
                    .collect(),
            ),
            MExpr::i(1),
        );
        let full = MExpr::if0(MExpr::v("p0"), body2, rec);
        let names: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        Program::new([Def::new("f", &name_refs, full)]).expect("generated program valid")
    })
}

/// Rewrites parameter references above the arity down into range.
fn clamp_params(e: &MExpr, n: usize) -> MExpr {
    match e {
        MExpr::Var(x) => {
            let idx: usize = x.trim_start_matches('p').parse().unwrap_or(0);
            MExpr::v(&format!("p{}", idx % n))
        }
        MExpr::Int(k) => MExpr::Int(*k),
        MExpr::Binop { op, lhs, rhs } => {
            MExpr::bin(*op, clamp_params(lhs, n), clamp_params(rhs, n))
        }
        MExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => MExpr::if0(
            clamp_params(cond, n),
            clamp_params(then_branch, n),
            clamp_params(else_branch, n),
        ),
        MExpr::Call { callee, args } => MExpr::Call {
            callee: callee.clone(),
            args: args.iter().map(|a| clamp_params(a, n)).collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn compiled_agrees_with_reference(p in arb_program(), x in 0i64..6) {
        let def = &p.defs["f"];
        let n = def.params.len();
        let args: Vec<i64> = (0..n).map(|i| if i == 0 { x } else { x + 1 }).collect();
        let expected = p.eval("f", &args, 64).expect("guarded recursion terminates");

        for opts in [CodegenOpts { tail_call_opt: false }, CodegenOpts { tail_call_opt: true }] {
            let compiled = compile_program(&p, opts).wrap("f");
            let call = app(compiled, args.iter().map(|v| fint_e(*v)).collect());
            let got = funtal::machine::eval_to_value(&call, 5_000_000)
                .expect("compiled program runs");
            prop_assert_eq!(&got, &fint_e(expected), "{:?}", opts);

            // The fast machine computes the same value with the same
            // step counts as the Fig 8 oracle.
            use funtal::machine::{run_fexpr_threaded, EvalStrategy, FtOutcome, RunCfg};
            use funtal_tal::trace::CountTracer;
            let (fast_out, fast_tr) =
                run_fexpr_threaded(&call, RunCfg::with_fuel(5_000_000), CountTracer::new())
                    .expect("fast run");
            let (sub_out, sub_tr) = run_fexpr_threaded(
                &call,
                RunCfg::with_fuel(5_000_000).with_strategy(EvalStrategy::Substitution),
                CountTracer::new(),
            )
            .expect("oracle run");
            prop_assert_eq!(&fast_out, &FtOutcome::Value(fint_e(expected)), "{:?}", opts);
            prop_assert_eq!(&fast_out, &sub_out);
            prop_assert_eq!(
                (fast_tr.instrs, fast_tr.f_steps, fast_tr.crossings, fast_tr.transfers),
                (sub_tr.instrs, sub_tr.f_steps, sub_tr.crossings, sub_tr.transfers),
                "{:?}", opts
            );
        }

        // The interpreted F encoding agrees too.
        let interp = def_to_fexpr(def, &BTreeMap::new());
        let call = app(interp, args.iter().map(|v| fint_e(*v)).collect());
        let got = funtal::machine::eval_to_value(&call, 5_000_000)
            .expect("interpreted program runs");
        prop_assert_eq!(&got, &fint_e(expected));
    }
}
