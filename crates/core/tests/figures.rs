//! E4–E6, E9, E10: the paper's mixed-language figures type-check, run
//! to the right values, and produce the control flow of Fig 12.

use funtal::check::typecheck;
use funtal::figures::*;
use funtal::machine::{eval_to_value, run_fexpr, FtOutcome, RunCfg};
use funtal_syntax::build::*;

use funtal_tal::trace::{Event, NullTracer, VecTracer};

fn apply_int(f: &funtal_syntax::FExpr, n: i64) -> funtal_syntax::FExpr {
    app(f.clone(), vec![fint_e(n)])
}

// --- Figure 16 -----------------------------------------------------------

#[test]
fn fig16_f1_typechecks_and_runs() {
    let f1 = fig16_f1();
    assert_eq!(typecheck(&f1).unwrap(), arrow(vec![fint()], fint()));
    for n in [-3, 0, 5, 40] {
        assert_eq!(
            eval_to_value(&apply_int(&f1, n), 100_000).unwrap(),
            fint_e(n + 2),
            "f1({n})"
        );
    }
}

#[test]
fn fig16_f2_typechecks_and_runs() {
    let f2 = fig16_f2();
    assert_eq!(typecheck(&f2).unwrap(), arrow(vec![fint()], fint()));
    for n in [-3, 0, 5, 40] {
        assert_eq!(
            eval_to_value(&apply_int(&f2, n), 100_000).unwrap(),
            fint_e(n + 2),
            "f2({n})"
        );
    }
}

#[test]
fn fig16_f2_takes_one_more_jump() {
    // The observable difference between f1 and f2 is internal: one extra
    // jmp. The results agree; the traces differ by exactly that jump.
    let count_jumps = |e: &funtal_syntax::FExpr| {
        let mut tr = VecTracer::new();
        run_fexpr(e, RunCfg::with_fuel(100_000), &mut tr).unwrap();
        tr.events
            .iter()
            .filter(|ev| matches!(ev, Event::Jmp { .. }))
            .count()
    };
    let j1 = count_jumps(&apply_int(&fig16_f1(), 10));
    let j2 = count_jumps(&apply_int(&fig16_f2(), 10));
    assert_eq!(j2, j1 + 1);
}

// --- Figure 17 -----------------------------------------------------------

#[test]
fn fig17_fact_f_typechecks_and_runs() {
    let f = fig17_fact_f();
    assert_eq!(typecheck(&f).unwrap(), arrow(vec![fint()], fint()));
    let expected = [1, 1, 2, 6, 24, 120, 720];
    for (n, want) in expected.iter().enumerate() {
        assert_eq!(
            eval_to_value(&apply_int(&f, n as i64), 1_000_000).unwrap(),
            fint_e(*want),
            "factF({n})"
        );
    }
}

#[test]
fn fig17_fact_t_typechecks_and_runs() {
    let f = fig17_fact_t();
    assert_eq!(typecheck(&f).unwrap(), arrow(vec![fint()], fint()));
    let expected = [1, 1, 2, 6, 24, 120, 720];
    for (n, want) in expected.iter().enumerate() {
        assert_eq!(
            eval_to_value(&apply_int(&f, n as i64), 1_000_000).unwrap(),
            fint_e(*want),
            "factT({n})"
        );
    }
}

#[test]
fn fig17_both_diverge_on_negative_input() {
    // factF loops on x−1 forever; factT's bnz never reaches 0 going
    // down from a negative number until wrap-around, which exceeds the
    // fuel. Both are OutOfFuel at any reasonable bound. (The fuel is
    // kept moderate: factF's divergence grows a leftward context whose
    // depth is proportional to the steps taken, and the stepper recurses
    // over that context.)
    let ff = apply_int(&fig17_fact_f(), -1);
    let ft = apply_int(&fig17_fact_t(), -1);
    let (out_f, _) =
        funtal::machine::run_fexpr_threaded(&ff, RunCfg::with_fuel(10_000), NullTracer).unwrap();
    assert_eq!(out_f, FtOutcome::OutOfFuel);
    assert_eq!(
        run_fexpr(&ft, RunCfg::with_fuel(10_000), &mut NullTracer).unwrap(),
        FtOutcome::OutOfFuel
    );
}

#[test]
fn fig17_fact_t_uses_fewer_steps() {
    // The imperative factorial avoids β-reduction entirely once inside
    // the loop; its total step count is strictly below factF's for
    // non-trivial inputs (the "JIT wins" shape of E10).
    use funtal_tal::trace::CountTracer;
    let mut cf = CountTracer::new();
    let mut ct = CountTracer::new();
    run_fexpr(
        &apply_int(&fig17_fact_f(), 10),
        RunCfg::with_fuel(1_000_000),
        &mut cf,
    )
    .unwrap();
    run_fexpr(
        &apply_int(&fig17_fact_t(), 10),
        RunCfg::with_fuel(1_000_000),
        &mut ct,
    )
    .unwrap();
    assert!(
        ct.total_steps() < cf.total_steps(),
        "factT {} steps vs factF {} steps",
        ct.total_steps(),
        cf.total_steps()
    );
}

// --- Figure 11 / Figure 12 ------------------------------------------------

#[test]
fn fig11_typechecks() {
    assert_eq!(typecheck(&fig11_jit()).unwrap(), fint());
}

#[test]
fn fig11_runs_to_two() {
    assert_eq!(eval_to_value(&fig11_jit(), 1_000_000).unwrap(), fint_e(2));
}

#[test]
fn fig12_control_flow_shape() {
    // Fig 12's essential shape on the named blocks: control enters the
    // compiled ℓ, calls back into F (through glue), F calls the compiled
    // ℓh, which returns; the shim ℓgret recovers the saved continuation.
    let mut tr = VecTracer::new();
    run_fexpr(&fig11_jit(), RunCfg::with_fuel(1_000_000), &mut tr).unwrap();
    let named: Vec<String> = tr
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Call { to } | Event::Jmp { to } | Event::BnzTaken { to } => {
                Some(format!("enter {to}"))
            }
            Event::Ret { to, .. } => Some(format!("ret {to}")),
            _ => None,
        })
        .filter(|s| ["enter l", "enter lh", "ret lgret"].iter().any(|k| s == k))
        .collect();
    assert_eq!(
        named,
        vec![
            "enter l".to_string(),
            "enter lh".to_string(),
            "ret lgret".to_string()
        ],
        "full trace: {:?}",
        tr.transfers()
    );
    // The callback structure requires at least: boundary exit for the
    // outer value, an import crossing for g's argument and result.
    let crossings = tr
        .events
        .iter()
        .filter(|e| matches!(e, Event::BoundaryExit { .. } | Event::ImportExit { .. }))
        .count();
    assert!(
        crossings >= 4,
        "expected several boundary crossings, got {crossings}"
    );
}

#[test]
fn fig11_runs_under_guard() {
    let out = run_fexpr(
        &fig11_jit(),
        RunCfg {
            fuel: 1_000_000,
            guard: true,
            ..RunCfg::default()
        },
        &mut NullTracer,
    )
    .unwrap();
    assert_eq!(out, FtOutcome::Value(fint_e(2)));
}

// --- push-7 (§4.2) ---------------------------------------------------------

#[test]
fn push7_typechecks() {
    let t = typecheck(&push7()).unwrap();
    assert_eq!(t, arrow_sm(vec![fint()], vec![], vec![int()], funit()));
}

#[test]
fn push7_pushes_and_can_be_consumed() {
    // push7 followed by the mutref library's get/free: the pushed 7 is
    // observable from F.
    use funtal::mutref::{free_cell, get_cell};
    let prog = app(
        lam_z(
            vec![("d0", funit()), ("res", fint()), ("d1", funit())],
            "zz",
            var("res"),
        ),
        vec![
            app(push7(), vec![fint_e(0)]),
            app(get_cell(), vec![funit_e()]),
            app(free_cell(), vec![funit_e()]),
        ],
    );
    assert_eq!(typecheck(&prog).unwrap(), fint());
    assert_eq!(eval_to_value(&prog, 100_000).unwrap(), fint_e(7));
}

// --- negative controls ------------------------------------------------------

#[test]
fn clobbering_protected_stack_rejected() {
    // A boundary that frees a cell of the protected (abstract) tail must
    // not typecheck: sfree 1 under a bare ζ.
    let bad = lam_z(
        vec![("x", fint())],
        "z",
        boundary(
            funit(),
            tcomp(
                seq(
                    vec![protect(vec![], "z2"), sfree(1), mv(r1(), unit_v())],
                    halt(unit(), zvar("z2"), r1()),
                ),
                vec![],
            ),
        ),
    );
    assert!(typecheck(&bad).is_err());
}

#[test]
fn boundary_type_must_match_halt() {
    // The component halts with int but the boundary claims unit.
    let bad = boundary(
        funit(),
        tcomp(
            seq(vec![mv(r1(), int_v(3))], halt(int(), nil(), r1())),
            vec![],
        ),
    );
    assert!(typecheck(&bad).is_err());
}

#[test]
fn import_requires_marker_in_protected_tail() {
    // An import whose exposed prefix contains the marker slot is
    // rejected: marker at slot 0, exposed prefix of length 1.
    use funtal_syntax::{RegFileTy, RetMarker, StackTy};
    let cont = code_ty(vec![], chi([(r1(), int())]), nil(), q_end(int(), nil()));
    let tctx = funtal_tal::check::TCtx::new(
        funtal_syntax::HeapTyping::new(),
        funtal_tal::wf::Delta::new(),
        RegFileTy::new(),
        StackTy::nil().cons(cont),
        RetMarker::Stack(0),
    );
    let comp = tcomp(
        seq(
            vec![import(r1(), "zi", nil(), fint(), fint_e(1))],
            halt(int(), nil(), r1()),
        ),
        vec![],
    );
    let err = funtal::check::check_tcomp(tctx, &funtal::Gamma::new(), &comp).unwrap_err();
    assert!(
        matches!(err.root(), funtal_tal::TypeError::BadMarker { .. }),
        "{err}"
    );
}

#[test]
fn stack_lambda_body_must_produce_declared_prefix() {
    // Declared φo = int but the body leaves the stack unchanged.
    let bad = lam_sm(vec![("x", fint())], "z", vec![], vec![int()], funit_e());
    assert!(typecheck(&bad).is_err());
}

#[test]
fn application_requires_phi_in_on_stack() {
    // get_cell applied on an empty stack must fail to typecheck.
    let bad = app(funtal::mutref::get_cell(), vec![funit_e()]);
    assert!(typecheck(&bad).is_err());
}

#[test]
fn whole_program_must_clear_stack() {
    // new_cell leaves int :: • — not a valid whole program.
    let bad = app(funtal::mutref::new_cell(), vec![fint_e(1)]);
    assert!(typecheck(&bad).is_err());
}

// --- translation round trips through running programs ------------------------

#[test]
fn boundary_tuple_of_ints() {
    let prog = proj(
        2,
        boundary(
            ftuple_ty(vec![fint(), fint()]),
            tcomp(
                seq(
                    vec![
                        mv(r1(), int_v(4)),
                        mv(r2(), int_v(5)),
                        salloc(2),
                        sst(0, r2()),
                        sst(1, r1()),
                        balloc(r3(), 2),
                    ],
                    halt(box_tuple(vec![int(), int()]), nil(), r3()),
                ),
                vec![],
            ),
        ),
    );
    assert_eq!(typecheck(&prog).unwrap(), fint());
    // Tuple slot 0 = top of stack at balloc = r2 = 5; pi[2] selects the
    // second field = r1's 4.
    assert_eq!(eval_to_value(&prog, 10_000).unwrap(), fint_e(4));
}

#[test]
fn f_function_crosses_into_t_and_back() {
    // Pass an F lambda through a boundary via import, call it from T,
    // and return the result — the full Fig 10 glue in both directions.
    // Note the explicit zeta binder: the checker (conservatively)
    // rejects shadowing, and this lambda sits under a `protect ·, z`.
    let double = lam_z(vec![("x", fint())], "zd", fmul(var("x"), fint_e(2)));
    let arrow_ty = arrow(vec![fint()], fint());
    // T component: import the lambda, park it on the stack (import
    // resets the register file — Fig 7), import the argument, reload
    // the function, install a continuation, call.
    let arrow_t = funtal::fty_to_tty(&arrow_ty);
    let prog = boundary(
        fint(),
        tcomp(
            seq(
                vec![
                    protect(vec![], "z"),
                    import(r1(), "zi", zvar("z"), arrow_ty.clone(), double),
                    salloc(1),
                    sst(0, r1()),
                    import(
                        r1(),
                        "zj",
                        stack(vec![arrow_t], zvar("z")),
                        fint(),
                        fint_e(21),
                    ),
                    sld(r2(), 0),
                    sst(0, r1()),
                    mv(ra(), loc_i("k", vec![i_stk(zvar("z"))])),
                ],
                call(reg(r2()), zvar("z"), q_end(int(), zvar("z"))),
            ),
            vec![(
                "k",
                code_block(
                    vec![d_stk("z2")],
                    chi([(r1(), int())]),
                    zvar("z2"),
                    q_end(int(), zvar("z2")),
                    seq(vec![], halt(int(), zvar("z2"), r1())),
                ),
            )],
        ),
    );
    assert_eq!(typecheck(&prog).unwrap(), fint());
    assert_eq!(eval_to_value(&prog, 100_000).unwrap(), fint_e(42));
}
