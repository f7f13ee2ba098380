//! E13/E14: scaling and ablation benches.
//!
//! - `typecheck_scaling`: checker time vs program size (block chains);
//! - `stage/check/<program>`: the FT check alone on Fig 11, on
//!   `examples/fact_t.ft`, and on the boundary-wrapped definitions of
//!   compiled `examples/fact.mf` (what `Pipeline::compile_minif` checks);
//! - `machine_throughput`: instructions/second by instruction class;
//! - `boundary_overhead`: cost of F↔T crossings vs staying in one
//!   language (the §6 "Choices in Multi-Language Design" trade-off).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use funtal::check::typecheck;
use funtal::machine::{run_fexpr, RunCfg};
use funtal_compile::codegen::{compile_program, CodegenOpts};
use funtal_driver::{minif::parse_minif, Pipeline};
use funtal_syntax::build::*;
use funtal_syntax::{FExpr, HeapVal, TComp};
use funtal_tal::trace::{CountTracer, NullTracer};

/// A pure-T program that chains `n` blocks, each adding 1 and jumping
/// on.
fn block_chain(n: usize) -> TComp {
    let mut heap: Vec<(String, HeapVal)> = Vec::new();
    for i in 0..n {
        let next: funtal_syntax::Terminator = if i + 1 == n {
            halt(int(), nil(), r1())
        } else {
            jmp(loc(&format!("b{}", i + 1)))
        };
        heap.push((
            format!("b{i}"),
            code_block(
                vec![],
                chi([(r1(), int())]),
                nil(),
                q_end(int(), nil()),
                seq(vec![add(r1(), r1(), int_v(1))], next),
            ),
        ));
    }
    tcomp(
        seq(vec![mv(r1(), int_v(0))], jmp(loc("b0"))),
        heap.iter().map(|(l, h)| (l.as_str(), h.clone())).collect(),
    )
}

fn typecheck_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("typecheck_scaling");
    for n in [8usize, 32, 128, 512] {
        let prog = block_chain(n);
        g.bench_with_input(BenchmarkId::new("blocks", n), &n, |b, _| {
            b.iter(|| funtal_tal::check::check_program(&prog, &int()).unwrap())
        });
    }
    g.finish();
}

fn stage_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage/check");
    let fact_t = Pipeline::new()
        .parse(include_str!("../../../examples/fact_t.ft"))
        .unwrap();
    let fact_mf = parse_minif(include_str!("../../../examples/fact.mf")).unwrap();
    let compiled = compile_program(&fact_mf, CodegenOpts::default());
    let wrapped: Vec<FExpr> = fact_mf.defs.keys().map(|d| compiled.wrap(d)).collect();
    let programs = [
        ("fig11", vec![funtal::figures::fig11_jit()]),
        ("fact_t", vec![fact_t]),
        ("fact_mf", wrapped),
    ];
    for (name, progs) in &programs {
        g.bench_function(*name, |b| {
            b.iter(|| {
                for p in progs {
                    typecheck(p).unwrap();
                }
            })
        });
    }
    g.finish();
}

/// A tight T loop doing `iters` arithmetic round trips.
fn t_loop(iters: i64) -> FExpr {
    let cont = code_ty(vec![], chi([(r1(), int())]), zvar("z"), q_var("e"));
    boundary(
        arrow(vec![fint()], fint()),
        tcomp(
            seq(
                vec![protect(vec![], "zp"), mv(r1(), loc("entry"))],
                halt(
                    funtal::fty_to_tty(&arrow(vec![fint()], fint())),
                    zvar("zp"),
                    r1(),
                ),
            ),
            vec![
                (
                    "entry",
                    code_block(
                        vec![d_stk("z"), d_ret("e")],
                        chi([(ra(), cont.clone())]),
                        stack(vec![int()], zvar("z")),
                        q_reg(ra()),
                        seq(
                            vec![sld(r3(), 0), mv(r7(), int_v(0))],
                            jmp(loc_i("loop", vec![i_stk(zvar("z")), i_ret(q_var("e"))])),
                        ),
                    ),
                ),
                (
                    "loop",
                    code_block(
                        vec![d_stk("z"), d_ret("e")],
                        chi([(r3(), int()), (r7(), int()), (ra(), cont)]),
                        stack(vec![int()], zvar("z")),
                        q_reg(ra()),
                        seq(
                            vec![
                                add(r7(), r7(), int_v(3)),
                                sub(r3(), r3(), int_v(1)),
                                bnz(
                                    r3(),
                                    loc_i("loop", vec![i_stk(zvar("z")), i_ret(q_var("e"))]),
                                ),
                                sfree(1),
                                mv(r1(), reg(r7())),
                            ],
                            ret(ra(), r1()),
                        ),
                    ),
                ),
            ],
        ),
    )
    .pipe_apply(iters)
}

trait PipeApply {
    fn pipe_apply(self, n: i64) -> FExpr;
}
impl PipeApply for FExpr {
    fn pipe_apply(self, n: i64) -> FExpr {
        app(self, vec![fint_e(n)])
    }
}

fn machine_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine_throughput");
    for iters in [100i64, 1_000] {
        let prog = t_loop(iters);
        let mut ct = CountTracer::new();
        run_fexpr(&prog, RunCfg::with_fuel(10_000_000), &mut ct).unwrap();
        println!("[throughput] iters={iters}: {} T instrs", ct.instrs);
        g.bench_with_input(BenchmarkId::new("t_loop", iters), &iters, |b, _| {
            b.iter(|| run_fexpr(&prog, RunCfg::with_fuel(10_000_000), &mut NullTracer).unwrap())
        });
        // The same computation in pure F.
        let f_loop = {
            let mu_ty = fmu("a", arrow(vec![fvar_ty("a"), fint(), fint()], fint()));
            let body = lam_z(
                vec![("f", mu_ty.clone()), ("i", fint()), ("acc", fint())],
                "zf",
                if0(
                    var("i"),
                    var("acc"),
                    app(
                        funfold(var("f")),
                        vec![
                            var("f"),
                            fsub(var("i"), fint_e(1)),
                            fadd(var("acc"), fint_e(3)),
                        ],
                    ),
                ),
            );
            app(
                body.clone(),
                vec![ffold(mu_ty, body), fint_e(iters), fint_e(0)],
            )
        };
        g.bench_with_input(BenchmarkId::new("f_loop", iters), &iters, |b, _| {
            b.iter(|| run_fexpr(&f_loop, RunCfg::with_fuel(10_000_000), &mut NullTracer).unwrap())
        });
    }
    g.finish();
}

fn boundary_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("boundary_overhead");
    for k in [1usize, 4, 16, 64] {
        let prog = funtal_bench::crossings(k);
        let mut ct = CountTracer::new();
        run_fexpr(&prog, RunCfg::with_fuel(10_000_000), &mut ct).unwrap();
        println!(
            "[boundary] k={k}: crossings={} T instrs={} F steps={}",
            ct.crossings, ct.instrs, ct.f_steps
        );
        g.bench_with_input(BenchmarkId::new("crossings", k), &k, |b, _| {
            b.iter(|| run_fexpr(&prog, RunCfg::with_fuel(10_000_000), &mut NullTracer).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    typecheck_scaling,
    stage_check,
    machine_throughput,
    boundary_overhead
);
criterion_main!(benches);
