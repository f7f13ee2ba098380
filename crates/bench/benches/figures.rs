//! E1, E4, E9, E10: one benchmark group per figure of the paper.
//!
//! Besides wall-clock times (Criterion), each group prints the machine
//! step counts that constitute the paper-shape result (see
//! DESIGN.md).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use funtal::figures::{fig11_jit, fig16_f1, fig16_f2, fig17_fact_f, fig17_fact_t};
use funtal::machine::{run_fexpr, RunCfg};
use funtal_syntax::build::*;
use funtal_tal::trace::{CountTracer, NullTracer};

fn steps_of(e: &funtal_syntax::FExpr) -> CountTracer {
    let mut ct = CountTracer::new();
    run_fexpr(e, RunCfg::with_fuel(10_000_000), &mut ct).expect("benchmark program runs");
    ct
}

/// Figure 3 / Figure 4: the pure-T call-to-call component.
fn fig3(c: &mut Criterion) {
    let prog = funtal_tal::figures::fig3_call_to_call();
    let mut ct = CountTracer::new();
    funtal_tal::machine::run_program(&prog, 1_000, &mut ct).unwrap();
    println!(
        "[fig3] instrs={} transfers={} (paper: 2 calls, 1 jmp, 2 rets, halt)",
        ct.instrs, ct.transfers
    );
    let mut g = c.benchmark_group("fig3_call_to_call");
    g.bench_function("typecheck", |b| {
        b.iter(|| funtal_tal::check::check_program(&prog, &int()).unwrap())
    });
    g.bench_function("run", |b| {
        b.iter(|| funtal_tal::machine::run_program(&prog, 1_000, &mut NullTracer).unwrap())
    });
    g.finish();
}

/// Figure 11 / Figure 12: the JIT example with its F↔T callbacks.
fn fig11(c: &mut Criterion) {
    let e = fig11_jit();
    let ct = steps_of(&e);
    println!(
        "[fig11] T instrs={} F steps={} crossings={} (result 2)",
        ct.instrs, ct.f_steps, ct.crossings
    );
    let mut g = c.benchmark_group("fig11_jit");
    g.bench_function("typecheck", |b| b.iter(|| funtal::typecheck(&e).unwrap()));
    g.bench_function("run", |b| {
        b.iter(|| run_fexpr(&e, RunCfg::with_fuel(1_000_000), &mut NullTracer).unwrap())
    });
    g.finish();
}

/// Figure 16: one basic block vs two basic blocks — equivalent
/// observables, one extra jump.
fn fig16(c: &mut Criterion) {
    let f1 = fig16_f1();
    let f2 = fig16_f2();
    let c1 = steps_of(&app(f1.clone(), vec![fint_e(100)]));
    let c2 = steps_of(&app(f2.clone(), vec![fint_e(100)]));
    println!(
        "[fig16] f1: instrs={} transfers={} | f2: instrs={} transfers={} \
         (f2 = f1 + 1 jmp + stack round-trip)",
        c1.instrs, c1.transfers, c2.instrs, c2.transfers
    );
    let mut g = c.benchmark_group("fig16_basic_blocks");
    for (name, f) in [("one_block", f1), ("two_blocks", f2)] {
        let prog = app(f, vec![fint_e(100)]);
        g.bench_function(name, |b| {
            b.iter(|| run_fexpr(&prog, RunCfg::with_fuel(100_000), &mut NullTracer).unwrap())
        });
    }
    g.finish();
}

/// Figure 17: functional vs imperative factorial across an input sweep —
/// the "who wins and how the gap grows" shape.
fn fig17(c: &mut Criterion) {
    let ff = fig17_fact_f();
    let ft = fig17_fact_t();
    println!("[fig17]  n | factF steps | factT steps");
    for n in [2i64, 4, 8, 12, 16] {
        let cf = steps_of(&app(ff.clone(), vec![fint_e(n)]));
        let ct = steps_of(&app(ft.clone(), vec![fint_e(n)]));
        println!(
            "[fig17] {n:2} | {:>11} | {:>11}",
            cf.total_steps(),
            ct.total_steps()
        );
    }
    let mut g = c.benchmark_group("fig17_factorial");
    for n in [4i64, 8, 16] {
        g.bench_with_input(BenchmarkId::new("factF", n), &n, |b, &n| {
            let prog = app(ff.clone(), vec![fint_e(n)]);
            b.iter(|| run_fexpr(&prog, RunCfg::with_fuel(1_000_000), &mut NullTracer).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("factT", n), &n, |b, &n| {
            let prog = app(ft.clone(), vec![fint_e(n)]);
            b.iter(|| run_fexpr(&prog, RunCfg::with_fuel(1_000_000), &mut NullTracer).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, fig3, fig11, fig16, fig17);
criterion_main!(benches);
