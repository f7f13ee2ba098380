//! E12 benches: compiler throughput and the interpreted/compiled gap —
//! the quantitative version of the §6 JIT story — plus the
//! tail-call-optimization ablation.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use funtal::machine::{run_fexpr, RunCfg};
use funtal_compile::codegen::{compile_program, CodegenOpts};
use funtal_compile::femit::def_to_fexpr;
use funtal_compile::lang::{factorial_program, fib_program, Def, MExpr, Program};
use funtal_syntax::ArithOp;

/// A genuinely tail-recursive sum, so the TCO ablation has something to
/// optimize (factorial's recursive call is not in tail position).
fn sum_program() -> Program {
    Program::new([Def::new(
        "sum",
        &["n", "acc"],
        MExpr::if0(
            MExpr::v("n"),
            MExpr::v("acc"),
            MExpr::call(
                "sum",
                vec![
                    MExpr::bin(ArithOp::Sub, MExpr::v("n"), MExpr::i(1)),
                    MExpr::bin(ArithOp::Add, MExpr::v("acc"), MExpr::v("n")),
                ],
            ),
        ),
    )])
    .expect("sum is valid")
}
use funtal_syntax::build::*;
use funtal_tal::trace::{CountTracer, NullTracer};

fn compile_time(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile_time");
    for (name, p) in [("fact", factorial_program()), ("fib", fib_program())] {
        for opts in [
            CodegenOpts {
                tail_call_opt: false,
            },
            CodegenOpts {
                tail_call_opt: true,
            },
        ] {
            let id = format!("{name}_tco_{}", opts.tail_call_opt);
            g.bench_function(BenchmarkId::new("compile", id), |b| {
                b.iter(|| compile_program(&p, opts))
            });
        }
    }
    g.finish();
}

fn interpreted_vs_compiled(c: &mut Criterion) {
    let p = factorial_program();
    let interp = def_to_fexpr(&p.defs["fact"], &Default::default());
    let plain = compile_program(
        &p,
        CodegenOpts {
            tail_call_opt: false,
        },
    )
    .wrap("fact");
    let tco = compile_program(
        &p,
        CodegenOpts {
            tail_call_opt: true,
        },
    )
    .wrap("fact");

    println!("[jit]  n | interpreted steps | compiled steps | compiled+tco steps");
    for n in [4i64, 8, 12] {
        let count = |f: &funtal_syntax::FExpr| {
            let mut ct = CountTracer::new();
            run_fexpr(
                &app(f.clone(), vec![fint_e(n)]),
                RunCfg::with_fuel(10_000_000),
                &mut ct,
            )
            .unwrap();
            ct.total_steps()
        };
        println!(
            "[jit] {n:2} | {:>17} | {:>14} | {:>18}",
            count(&interp),
            count(&plain),
            count(&tco)
        );
    }

    let mut g = c.benchmark_group("interpreted_vs_compiled");
    for n in [8i64, 12] {
        for (name, f) in [
            ("interpreted", interp.clone()),
            ("compiled", plain.clone()),
            ("compiled_tco", tco.clone()),
        ] {
            let prog = app(f, vec![fint_e(n)]);
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| run_fexpr(&prog, RunCfg::with_fuel(10_000_000), &mut NullTracer).unwrap())
            });
        }
    }
    g.finish();

    // The TCO ablation on a tail-recursive sum: the loopified version
    // needs neither per-level stack growth nor return blocks.
    let sp = sum_program();
    let sum_plain = compile_program(
        &sp,
        CodegenOpts {
            tail_call_opt: false,
        },
    )
    .wrap("sum");
    let sum_tco = compile_program(
        &sp,
        CodegenOpts {
            tail_call_opt: true,
        },
    )
    .wrap("sum");
    println!("[tco]  n | sum compiled steps | sum compiled+tco steps");
    for n in [16i64, 64] {
        let count = |f: &funtal_syntax::FExpr| {
            let mut ct = CountTracer::new();
            run_fexpr(
                &app(f.clone(), vec![fint_e(n), fint_e(0)]),
                RunCfg::with_fuel(10_000_000),
                &mut ct,
            )
            .unwrap();
            ct.total_steps()
        };
        println!(
            "[tco] {n:2} | {:>18} | {:>22}",
            count(&sum_plain),
            count(&sum_tco)
        );
    }
    let mut g = c.benchmark_group("tail_call_ablation");
    for n in [64i64] {
        for (name, f) in [("plain", sum_plain.clone()), ("tco", sum_tco.clone())] {
            let prog = app(f, vec![fint_e(n), fint_e(0)]);
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| run_fexpr(&prog, RunCfg::with_fuel(10_000_000), &mut NullTracer).unwrap())
            });
        }
        for (name, f) in [
            ("plain_bytecode", sum_plain.clone()),
            ("tco_bytecode", sum_tco.clone()),
        ] {
            let lowered = funtal::prelower(&app(f, vec![fint_e(n), fint_e(0)]));
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    funtal::run_prelowered(&lowered, RunCfg::with_fuel(10_000_000), &mut NullTracer)
                        .unwrap()
                })
            });
        }
    }
    g.finish();
}

/// Steady-state workloads over the default machine: fib up to 24
/// (interpreted, compiled through `run_fexpr`, and pre-lowered),
/// the evaluation-strategy ablation, deep tuple marshalling across the
/// boundary, and a boundary-crossing ping-pong loop.
fn steady_state(c: &mut Criterion) {
    use funtal::machine::EvalStrategy;

    // fib up to 24 — a genuinely hot recursion, compiled vs interpreted.
    let p = fib_program();
    let interp = def_to_fexpr(&p.defs["fib"], &Default::default());
    let compiled = compile_program(
        &p,
        CodegenOpts {
            tail_call_opt: false,
        },
    )
    .wrap("fib");
    let mut g = c.benchmark_group("fib_steady");
    for n in [16i64, 20, 24] {
        for (name, f) in [("interpreted", &interp), ("compiled", &compiled)] {
            let prog = app(f.clone(), vec![fint_e(n)]);
            g.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| {
                    run_fexpr(&prog, RunCfg::with_fuel(100_000_000), &mut NullTracer).unwrap()
                })
            });
        }
        // The same compiled program pre-lowered: lowering happens once
        // outside the timing loop (that is the cacheable artifact).
        let prog = app(compiled.clone(), vec![fint_e(n)]);
        let lowered = funtal::prelower(&prog);
        g.bench_with_input(BenchmarkId::new("bytecode", n), &n, |b, _| {
            b.iter(|| {
                funtal::run_prelowered(&lowered, RunCfg::with_fuel(100_000_000), &mut NullTracer)
                    .unwrap()
            })
        });
    }
    g.finish();

    // Strategy ablation: the same program under the substitution
    // oracle and the environment machine.
    let fp = factorial_program();
    let fact = compile_program(&fp, CodegenOpts::default()).wrap("fact");
    let prog = app(fact, vec![fint_e(12)]);
    let mut g = c.benchmark_group("strategy_ablation");
    for (name, strategy) in [
        ("substitution", EvalStrategy::Substitution),
        ("environment", EvalStrategy::Environment),
    ] {
        g.bench_with_input(BenchmarkId::new(name, 12), &12, |b, _| {
            b.iter(|| {
                run_fexpr(
                    &prog,
                    RunCfg::with_fuel(10_000_000).with_strategy(strategy),
                    &mut NullTracer,
                )
                .unwrap()
            })
        });
    }
    g.finish();

    // Deep tuple marshalling: a T component exports an increasingly
    // nested tuple, exercising the Fig 10 value translation.
    let mut g = c.benchmark_group("marshalling");
    for depth in [8usize, 12] {
        let prog = nested_tuple_program(depth);
        g.bench_with_input(BenchmarkId::new("tuple_depth", depth), &depth, |b, _| {
            b.iter(|| run_fexpr(&prog, RunCfg::with_fuel(1_000_000), &mut NullTracer).unwrap())
        });
    }
    g.finish();

    // Boundary ping-pong: F applies a boundary-wrapped T identity k
    // times in a row — the §6 multi-language crossing cost.
    let mut g = c.benchmark_group("pingpong");
    for k in [64usize, 256] {
        let prog = pingpong_program(k);
        g.bench_with_input(BenchmarkId::new("crossings", k), &k, |b, _| {
            b.iter(|| run_fexpr(&prog, RunCfg::with_fuel(10_000_000), &mut NullTracer).unwrap())
        });
    }
    g.finish();
}

/// Builds the depth-nested boxed-tuple export used by `marshalling`
/// (same shape as `translation/tuple_depth`, at steady-state depths).
fn nested_tuple_program(depth: usize) -> funtal_syntax::FExpr {
    let mut ty = fint();
    for _ in 0..depth {
        ty = ftuple_ty(vec![fint(), ty]);
    }
    let mut instrs = vec![mv(r1(), int_v(7))];
    for _ in 0..depth {
        instrs.extend([
            mv(r2(), int_v(1)),
            salloc(2),
            sst(0, r2()),
            sst(1, r1()),
            balloc(r1(), 2),
        ]);
    }
    let t_ty = funtal::fty_to_tty(&ty);
    boundary(
        ty.clone(),
        tcomp(seq(instrs, halt(t_ty, nil(), r1())), vec![]),
    )
}

/// `k` crossings of a boundary-wrapped T identity function.
fn pingpong_program(k: usize) -> funtal_syntax::FExpr {
    let ident = boundary(
        arrow(vec![fint()], fint()),
        tcomp(
            seq(
                vec![protect(vec![], "zp"), mv(r1(), loc("id"))],
                halt(
                    funtal::fty_to_tty(&arrow(vec![fint()], fint())),
                    zvar("zp"),
                    r1(),
                ),
            ),
            vec![(
                "id",
                code_block(
                    vec![d_stk("z"), d_ret("e")],
                    chi([(
                        ra(),
                        code_ty(vec![], chi([(r1(), int())]), zvar("z"), q_var("e")),
                    )]),
                    stack(vec![int()], zvar("z")),
                    q_reg(ra()),
                    seq(vec![sld(r1(), 0), sfree(1)], ret(ra(), r1())),
                ),
            )],
        ),
    );
    let mut e = fint_e(1);
    for _ in 0..k {
        e = app(ident.clone(), vec![e]);
    }
    e
}

/// The static bytecode verifier's cost, measured against the lowering
/// that produces its input. Verification happens once per lowered
/// artifact (at `prelower` under debug assertions, on cache load, at
/// JIT promotion, or under `--verify-bytecode`) — never inside the
/// dispatch loop — so this one-time cost is the entire overhead the
/// analysis layer adds to the bytecode VM. The gated
/// `fib_steady/bytecode` rows above prove the dispatch loop itself is
/// untouched.
fn verify_cost(c: &mut Criterion) {
    let p = fib_program();
    let compiled = compile_program(
        &p,
        CodegenOpts {
            tail_call_opt: false,
        },
    )
    .wrap("fib");
    let prog = app(compiled, vec![fint_e(24)]);
    let lowered = funtal::prelower(&prog);
    let mut g = c.benchmark_group("verify_cost");
    g.bench_function(BenchmarkId::new("lower", "fib"), |b| {
        b.iter(|| funtal::prelower(&prog))
    });
    g.bench_function(BenchmarkId::new("verify", "fib"), |b| {
        b.iter(|| funtal::verify_lowered(&lowered).unwrap())
    });
    g.finish();
}

fn translation_depth(c: &mut Criterion) {
    // E8: value-translation cost for increasingly deep tuples crossing
    // the boundary.
    let mut g = c.benchmark_group("translation");
    for depth in [1usize, 4, 8] {
        // Build ⟨1, ⟨1, …⟩⟩ as a T program that re-allocates nested
        // boxed tuples and exports them at a nested tuple type.
        let mut ty = fint();
        for _ in 0..depth {
            ty = ftuple_ty(vec![fint(), ty]);
        }
        let mut instrs = vec![mv(r1(), int_v(7))];
        for _ in 0..depth {
            instrs.extend([
                mv(r2(), int_v(1)),
                salloc(2),
                sst(0, r2()),
                sst(1, r1()),
                balloc(r1(), 2),
            ]);
        }
        // r1 now holds the deepest pointer; its T type is the
        // translation of `ty`... built by the checker itself.
        let t_ty = funtal::fty_to_tty(&ty);
        // Field order: slot0 = r2 = 1 (first field), slot1 = previous.
        let prog = boundary(
            ty.clone(),
            tcomp(seq(instrs, halt(t_ty, nil(), r1())), vec![]),
        );
        funtal::typecheck(&prog).expect("translation bench program typechecks");
        g.bench_with_input(BenchmarkId::new("tuple_depth", depth), &depth, |b, _| {
            b.iter(|| run_fexpr(&prog, RunCfg::with_fuel(1_000_000), &mut NullTracer).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    compile_time,
    interpreted_vs_compiled,
    steady_state,
    verify_cost,
    translation_depth
);
criterion_main!(benches);
