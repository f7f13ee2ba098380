//! Allocation pins for the FT checker.
//!
//! A counting global allocator records, per thread, how many times the
//! checker calls the allocator (`alloc`, `alloc_zeroed` and `realloc`)
//! and how many bytes those calls ask for. Checking is single-threaded
//! and its maps are `BTreeMap`s, so both counts repeat exactly from run
//! to run: the pins hold on any host and under any load.
//!
//! - The paper figure and the compiled bundles must stay at or under
//!   half of the counts recorded before the checker threaded its
//!   context by value (`RECORDED`, measured in the test profile).
//! - The `salloc` and tuple-chain inputs must grow at most 5× in both
//!   counts when n grows 4×: both checks are linear in n.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use funtal::check::typecheck;
use funtal::figures::fig11_jit;
use funtal_compile::codegen::{compile_program, CodegenOpts};
use funtal_compile::lang::{fib_program, Def, MExpr, Program};
use funtal_syntax::build::*;
use funtal_syntax::{ArithOp, FExpr, HeapVal, WordVal};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counting touches only const-initialised
// thread-locals without destructors, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls and requested bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Allocs {
    calls: u64,
    bytes: u64,
}

/// The allocations `f` makes on this thread.
fn measure(f: impl FnOnce()) -> Allocs {
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
    f();
    Allocs {
        calls: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Typechecks every program in `progs`, which must all check.
fn check_all(progs: &[FExpr]) -> Allocs {
    measure(|| {
        for p in progs {
            typecheck(p).expect("the program typechecks");
        }
    })
}

/// The boundary-wrapped definitions of a compiled MiniF program, as
/// `Pipeline::compile_minif` checks them.
fn wrapped(program: &Program) -> Vec<FExpr> {
    let compiled = compile_program(program, CodegenOpts::default());
    program
        .defs
        .keys()
        .map(|name| compiled.wrap(name))
        .collect()
}

/// The program of `examples/fact.mf`.
fn fact_mf() -> Program {
    let v = MExpr::v;
    let sub1 = |e| MExpr::bin(ArithOp::Sub, e, MExpr::i(1));
    Program::new([
        Def::new(
            "fact",
            &["n"],
            MExpr::if0(
                v("n"),
                MExpr::i(1),
                MExpr::bin(
                    ArithOp::Mul,
                    MExpr::call("fact", vec![sub1(v("n"))]),
                    v("n"),
                ),
            ),
        ),
        Def::new(
            "sum_to",
            &["n", "acc"],
            MExpr::if0(
                v("n"),
                v("acc"),
                MExpr::call(
                    "sum_to",
                    vec![sub1(v("n")), MExpr::bin(ArithOp::Add, v("acc"), v("n"))],
                ),
            ),
        ),
    ])
    .expect("fact.mf is valid")
}

/// `FT[int](salloc n; sfree n; mv r1, 1; halt int, * {r1})`.
fn salloc_prog(n: usize) -> FExpr {
    boundary(
        fint(),
        tcomp(
            seq(
                vec![salloc(n), sfree(n), mv(r1(), int_v(1))],
                halt(int(), nil(), r1()),
            ),
            vec![],
        ),
    )
}

/// `FT[int]` over a local heap of n chained tuples, `t_i = ⟨t_{i-1}⟩`
/// and `t_0 = ⟨0⟩`, labelled so that label order is chain order.
fn tuple_chain_prog(n: usize) -> FExpr {
    let label = |i: usize| format!("t{i:06}");
    let heap: Vec<(String, HeapVal)> = (0..n)
        .map(|i| {
            let field = match i {
                0 => WordVal::Int(0),
                _ => WordVal::Loc(funtal_syntax::Label::new(label(i - 1))),
            };
            (label(i), boxed_tuple_v(vec![field]))
        })
        .collect();
    boundary(
        fint(),
        tcomp(
            seq(vec![mv(r1(), int_v(1))], halt(int(), nil(), r1())),
            heap.iter().map(|(l, v)| (l.as_str(), v.clone())).collect(),
        ),
    )
}

/// `(program, before, after)`: the counts in the test profile
/// (`cargo test`) before the checker threaded its context by value and
/// shared code types, and after. The pin is `now <= before / 2` on both
/// numbers; `after` is kept for the record.
const RECORDED: [(&str, Allocs, Allocs); 3] = [
    (
        "fig11",
        Allocs {
            calls: 729,
            bytes: 136_032,
        },
        Allocs {
            calls: 153,
            bytes: 21_512,
        },
    ),
    (
        "fib",
        Allocs {
            calls: 2_030,
            bytes: 428_144,
        },
        Allocs {
            calls: 534,
            bytes: 88_992,
        },
    ),
    (
        "fact_mf",
        Allocs {
            calls: 1_770,
            bytes: 376_272,
        },
        Allocs {
            calls: 458,
            bytes: 77_376,
        },
    ),
];

fn pinned(name: &str, progs: &[FExpr]) {
    let now = check_all(progs);
    assert_eq!(check_all(progs), now, "{name}: counts must repeat exactly");
    let (_, before, after) = RECORDED.iter().find(|(n, ..)| *n == name).unwrap();
    println!("{name}: {now:?} (before: {before:?}, recorded after: {after:?})");
    assert!(
        now.calls * 2 <= before.calls && now.bytes * 2 <= before.bytes,
        "{name}: {now:?} is more than half of {before:?}"
    );
}

#[test]
fn fig11_checks_in_half_the_allocations() {
    pinned("fig11", &[fig11_jit()]);
}

#[test]
fn compiled_fib_checks_in_half_the_allocations() {
    pinned("fib", &wrapped(&fib_program()));
}

#[test]
fn fact_mf_checks_in_half_the_allocations() {
    pinned("fact_mf", &wrapped(&fact_mf()));
}

/// Checks `make(n)` and `make(4n)`; both counts may grow at most 5×.
fn linear(name: &str, n: usize, make: fn(usize) -> FExpr) {
    let small = check_all(&[make(n)]);
    let large = check_all(&[make(4 * n)]);
    println!("{name}: n = {n}: {small:?}; n = {}: {large:?}", 4 * n);
    assert!(
        large.calls <= 5 * small.calls && large.bytes <= 5 * small.bytes,
        "{name}: {large:?} at 4n is more than 5x {small:?} at n"
    );
}

#[test]
fn salloc_checks_in_linear_allocations() {
    linear("salloc", 1_000, salloc_prog);
}

#[test]
fn tuple_chain_checks_in_linear_allocations() {
    linear("tuple chain", 100, tuple_chain_prog);
}
