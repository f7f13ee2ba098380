//! The stack bound: `salloc` may grow the stack to
//! [`MAX_STACK_SLOTS`] words and no further.
//!
//! The checker rejects a block whose visible stack would pass the
//! bound, as a per-job `error[typecheck]` naming the instruction. Both
//! machines raise the same `error[run]` when a program the checker
//! never saw passes it, including through the fast machine's fused
//! pushes. A `serve` session answers the job after a hostile one.

use std::io::Write;
use std::process::{Command, Stdio};

use funtal::machine::{run, EvalStrategy, FtOutcome, RunCfg};
use funtal_driver::Pipeline;
use funtal_syntax::build::fint_e;
use funtal_syntax::Component;
use funtal_tal::machine::{Memory, MAX_STACK_SLOTS};
use funtal_tal::trace::NullTracer;

/// `salloc n; sfree n; mv r1, 1; halt`.
fn alloc_free(n: usize) -> String {
    format!("FT[int](salloc {n}; sfree {n}; mv r1, 1; halt int, * {{r1}})")
}

/// Fills the stack to the bound, then pushes one more word through
/// `tail`, which the fast machine fuses.
fn full_then(tail: &str) -> String {
    format!(
        "FT[int](salloc {MAX_STACK_SLOTS}; mv r1, 5; {tail}, \
         {{lk -> code[]{{r1: int; *}} end{{int; *}}. halt int, * {{r1}}}})"
    )
}

/// Runs a parsed program on one machine without checking it.
fn run_unchecked(src: &str, strategy: EvalStrategy) -> Result<FtOutcome, String> {
    let e = Pipeline::new().parse(src).expect("parses");
    let cfg = RunCfg::with_fuel(10_000).with_strategy(strategy);
    run(&mut Memory::new(), &Component::F(e), cfg, &mut NullTracer).map_err(|e| e.to_string())
}

/// The outcome both machines agree on.
fn on_both(src: &str) -> Result<FtOutcome, String> {
    let oracle = run_unchecked(src, EvalStrategy::Substitution);
    assert_eq!(
        run_unchecked(src, EvalStrategy::Environment),
        oracle,
        "{src}"
    );
    oracle
}

#[test]
fn checker_accepts_the_bound_and_rejects_one_past_it() {
    let p = Pipeline::new();
    let at = p
        .run_source(&alloc_free(MAX_STACK_SLOTS))
        .expect("at the bound");
    assert_eq!(at.outcome, FtOutcome::Value(fint_e(1)));
    let over = p
        .run_source(&alloc_free(MAX_STACK_SLOTS + 1))
        .expect_err("past the bound")
        .to_string();
    assert_eq!(
        over,
        format!(
            "error[typecheck]: instruction 0 (salloc {n}): 0 visible stack slots grown by {n} \
             pass the bound of {MAX_STACK_SLOTS} slots",
            n = MAX_STACK_SLOTS + 1
        )
    );
}

#[test]
fn both_machines_stop_at_the_bound() {
    assert_eq!(
        on_both(&alloc_free(MAX_STACK_SLOTS)),
        Ok(FtOutcome::Value(fint_e(1)))
    );
    let overflow = |need: usize, have: usize| {
        Err(format!(
            "stack overflow: salloc {need} on {have} slots passes the bound of \
             {MAX_STACK_SLOTS} slots"
        ))
    };
    assert_eq!(
        on_both(&alloc_free(MAX_STACK_SLOTS + 1)),
        overflow(MAX_STACK_SLOTS + 1, 0)
    );
    assert_eq!(
        on_both(&alloc_free(4_000_000_000)),
        overflow(4_000_000_000, 0)
    );
    // One slot past a full stack, through each fused push (`PushJmp`,
    // `SldPush`, `Push`), which steps into its `salloc 1`.
    for tail in [
        "salloc 1; sst 0, r1; jmp lk",
        "sld r1, 0; salloc 1; sst 0, r1; jmp lk",
        "mv r2, 0; salloc 1; sst 0, r1; halt int, * {r1}",
    ] {
        assert_eq!(
            on_both(&full_then(tail)),
            overflow(1, MAX_STACK_SLOTS),
            "{tail}"
        );
    }
}

#[test]
fn serve_answers_after_a_hostile_salloc() {
    let jobs = [
        r#"{"id":"a","cmd":"run","src":"1 + 2"}"#,
        r#"{"id":"b","cmd":"run","src":"FT[int](salloc 4000000000; sfree 4000000000; mv r1, 1; halt int, * {r1})"}"#,
        r#"{"id":"c","cmd":"run","src":"3 + 4"}"#,
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_funtal"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning funtal serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(format!("{}\n", jobs.join("\n")).as_bytes())
        .expect("writing jobs");
    let out = child.wait_with_output().expect("running funtal serve");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one result per job:\n{stdout}");
    assert!(lines[0].starts_with(r#"{"id":"a","cmd":"run","ok":true,"type":"int","value":"3""#));
    assert!(
        lines[1].starts_with(r#"{"id":"b","cmd":"run","ok":false,"stage":"typecheck""#),
        "{}",
        lines[1]
    );
    assert!(lines[2].starts_with(r#"{"id":"c","cmd":"run","ok":true,"type":"int","value":"7""#));
}
