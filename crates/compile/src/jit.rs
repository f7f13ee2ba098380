//! A JIT-style runtime in the spirit of the paper's §6 "JIT
//! Formalization": the space of configurations is the set of choices of
//! which definitions are *interpreted* (materialized as F lambdas) and
//! which are *compiled* (materialized as boundary-wrapped T
//! components). The runtime counts invocations and flips hot functions
//! from interpreted to compiled, re-wiring callers on the next
//! materialization — the multi-language program moves between
//! configurations exactly as the paper describes.
//!
//! Both points run on the same machine (CEK for F, the bytecode VM for
//! T); only the materialization differs. The interpreted→compiled move
//! is gated on the static bytecode verifier: a definition whose
//! compiled materialization does not lower to verifiable bytecode
//! stays interpreted.
//!
//! Correctness of every move is testable: all configurations must be
//! observationally equivalent (see `tests/jit_correctness.rs` and E12
//! in DESIGN.md).

use std::collections::{BTreeMap, BTreeSet};

use funtal::machine::{run_fexpr_threaded, FtOutcome, RunCfg};
use funtal_syntax::build::*;
use funtal_syntax::FExpr;
use funtal_tal::trace::CountTracer;

use crate::codegen::{compile_program, CodegenOpts, Compiled};
use crate::femit::def_to_fexpr;
use crate::lang::Program;

/// Which implementation a definition currently uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Materialized as an F lambda (self-recursion via fold/unfold).
    Interpreted,
    /// Materialized as a boundary around compiled T blocks.
    Compiled,
}

/// Statistics from one invocation.
#[derive(Clone, Copy, Debug)]
pub struct InvokeStats {
    /// The integer result.
    pub result: i64,
    /// The mode the invocation actually executed under (promotion
    /// affects *future* invocations, so this lags the counter by one).
    pub mode: Mode,
    /// T instructions executed.
    pub t_instrs: u64,
    /// F reduction steps.
    pub f_steps: u64,
    /// Boundary crossings.
    pub crossings: u64,
}

/// The JIT runtime.
#[derive(Clone, Debug)]
pub struct Jit {
    program: Program,
    compiled: Compiled,
    threshold: u64,
    counters: BTreeMap<String, u64>,
    hot: BTreeSet<String>,
}

impl Jit {
    /// Creates a runtime over a validated program. Functions start
    /// interpreted and are compiled after `threshold` invocations.
    pub fn new(program: Program, threshold: u64, opts: CodegenOpts) -> Self {
        let compiled = compile_program(&program, opts);
        Jit {
            program,
            compiled,
            threshold,
            counters: BTreeMap::new(),
            hot: BTreeSet::new(),
        }
    }

    /// The current mode of a definition.
    pub fn mode(&self, name: &str) -> Mode {
        if self.hot.contains(name) {
            Mode::Compiled
        } else {
            Mode::Interpreted
        }
    }

    /// Materializes the F expression for `name` under the current
    /// configuration: compiled definitions become boundary wrappers,
    /// interpreted ones become F lambdas with their callees'
    /// materializations inlined.
    pub fn materialize(&self, name: &str) -> FExpr {
        let mut done: BTreeMap<String, FExpr> = BTreeMap::new();
        for n in self.program.topo_order() {
            let e = if self.hot.contains(&n) {
                self.compiled.wrap(&n)
            } else {
                def_to_fexpr(&self.program.defs[&n], &done)
            };
            done.insert(n, e);
        }
        done.remove(name)
            .expect("materialize of a defined function")
    }

    /// Invokes `name(args)` under the current configuration, bumping
    /// its hotness counter (and promoting it to compiled past the
    /// threshold for *future* invocations, as in a real JIT).
    pub fn invoke(&mut self, name: &str, args: &[i64], fuel: u64) -> Result<InvokeStats, String> {
        let mode = self.mode(name);
        let expr = app(
            self.materialize(name),
            args.iter().map(|n| fint_e(*n)).collect(),
        );
        let (out, tr) = run_fexpr_threaded(&expr, RunCfg::with_fuel(fuel), CountTracer::new())
            .map_err(|e| e.to_string())?;
        let result = match out {
            FtOutcome::Value(FExpr::Int(n)) => n,
            FtOutcome::Value(v) => return Err(format!("non-integer result {v}")),
            FtOutcome::Halted(w) => return Err(format!("unexpected T halt {w}")),
            FtOutcome::OutOfFuel => return Err("out of fuel".to_string()),
        };
        let count = {
            let c = self.counters.entry(name.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        if count >= self.threshold && !self.hot.contains(name) {
            // Promotion is gated on the static verifier: the compiled
            // materialization is lowered once and checked (register
            // initialization, jump-offset bounds, fused-cost table). A
            // definition whose lowering does not verify stays
            // interpreted — a codegen or lowering bug degrades to the
            // F encoding instead of executing unchecked bytecode.
            let lowered = self.compiled.lowered(name).expect("a defined function");
            if funtal::verify_lowered(lowered).is_ok() {
                self.hot.insert(name.to_string());
            }
        }
        Ok(InvokeStats {
            result,
            mode,
            t_instrs: tr.instrs,
            f_steps: tr.f_steps,
            crossings: tr.crossings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::factorial_program;

    #[test]
    fn jit_flips_to_compiled_after_threshold() {
        let mut jit = Jit::new(
            factorial_program(),
            2,
            CodegenOpts {
                tail_call_opt: true,
            },
        );
        assert_eq!(jit.mode("fact"), Mode::Interpreted);
        let s1 = jit.invoke("fact", &[6], 5_000_000).unwrap();
        assert_eq!((s1.result, s1.mode), (720, Mode::Interpreted));
        let s2 = jit.invoke("fact", &[6], 5_000_000).unwrap();
        assert_eq!((s2.result, s2.mode), (720, Mode::Interpreted));
        // Now hot: the next invocation runs compiled code.
        assert_eq!(jit.mode("fact"), Mode::Compiled);
        let s3 = jit.invoke("fact", &[6], 5_000_000).unwrap();
        assert_eq!((s3.result, s3.mode), (720, Mode::Compiled));
        // The compiled configuration does strictly less F work.
        assert!(
            s3.f_steps < s1.f_steps,
            "compiled {} F steps vs interpreted {}",
            s3.f_steps,
            s1.f_steps
        );
        assert!(s3.t_instrs > s1.t_instrs);
        // The space has two points: staying hot never moves a
        // definition further, and repeated compiled runs are identical.
        let s4 = jit.invoke("fact", &[6], 5_000_000).unwrap();
        assert_eq!((s4.result, s4.mode), (720, Mode::Compiled));
        assert_eq!(
            (s4.t_instrs, s4.f_steps, s4.crossings),
            (s3.t_instrs, s3.f_steps, s3.crossings),
        );
    }
}
