//! Static fuel-bound inference under a static loop gate.
//!
//! [`infer_fuel`] reports exactly how much fuel a pre-lowered program
//! consumes, or gives up. FT programs are closed and deterministic, so
//! the collecting semantics of a terminating program is a single trace
//! and its cost is the cost of running it: inference runs the program
//! on the fast machine itself — no third evaluator — with the bytecode
//! VM's loop gate set. Under the gate every T module the run
//! instantiates (a boundary's module, or a lazily lowered single-block
//! module) must have a static control-flow graph without a back edge,
//! rooted at its entry and every externally enterable block;
//! data-dependent loop trip counts are not statically bounded, so a
//! module that fails the test stops the run. The test applies to the
//! modules *entered*, not the modules present: a looping component on
//! a branch the program never takes does not cost it its bound.
//!
//! The verdict is [`FuelBound::Exact`] with the fuel the run consumed,
//! or [`FuelBound::Unknown`] when the gate refuses a module, the run
//! faults, or it needs more than a 1 000 000-fuel budget (F-side
//! recursion is run, not summarized, so it can reach the budget).
//!
//! The count is the fast machine's own fuel, which
//! `tests/strategy_equiv.rs` certifies against the Fig 8 substitution
//! oracle (outcome, events and minimal sufficient fuel);
//! `tests/fuel_bounds.rs` certifies every `Exact` verdict against the
//! span profiler's total.

use std::collections::HashMap;

use funtal_tal::trace::NullTracer;

use crate::machine::{FtOutcome, RunCfg};
use crate::machine_bc::LoweredProgram;
use crate::machine_fast::{Ctrl, Env, FastMem, Machine};

/// A statically inferred fuel bound for a whole program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuelBound {
    /// The program consumes exactly this much fuel (certified against
    /// the profiler's dynamic measurement by the test suite).
    Exact(u64),
    /// No bound: the program enters a T module with a static loop,
    /// exceeds the fuel budget, or faults at runtime.
    Unknown,
}

/// Fuel budget for one inference. Generously above any loop-free
/// program in the suite; recursion through F closures can legitimately
/// reach it.
const FUEL_BUDGET: u64 = 1_000_000;

/// Infers the exact fuel consumption of a pre-lowered program, or
/// [`FuelBound::Unknown`] if the run enters a T module with a static
/// back edge, faults, or exhausts the fuel budget.
pub fn infer_fuel(lp: &LoweredProgram) -> FuelBound {
    let mut tracer = NullTracer;
    let cfg = RunCfg::with_fuel(FUEL_BUDGET);
    let mut m = Machine::new(FastMem::default(), cfg, &mut tracer);
    m.bc.loop_gate = Some(HashMap::new());
    match m.run(Ctrl::Eval(lp.iexpr.clone(), Env::default())) {
        Ok(FtOutcome::Value(_)) => FuelBound::Exact(FUEL_BUDGET - m.fuel),
        _ => FuelBound::Unknown,
    }
}
