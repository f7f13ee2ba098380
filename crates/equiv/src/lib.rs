//! Observational-equivalence testing for FunTAL components, in the shape
//! of the paper's logical relation (§5, Figs 13–15).
//!
//! The paper's step-indexed Kripke logical relation is a *proof method*;
//! this crate operationalizes it as a **bounded testing relation**
//! (deviation D8 in DESIGN.md):
//!
//! - `observe` runs a component for up to `k` steps and records an
//!   `Observation` — the executable analogue of the `O` relation;
//! - `logrel::v_rel` relates two values at an F type: base values
//!   structurally, tuples pointwise, and functions by applying both to
//!   the same sampled related inputs — the analogue of `V⟦τ⟧`;
//! - `logrel::e_rel` relates two expressions by comparing their
//!   observations and relating result values — the analogue of
//!   `E⟦q ⊢ τ;σ⟧` at the `out` marker;
//! - [`equivalent`] additionally plugs both terms into generated
//!   contexts, approximating `≈ctx`.
//!
//! Like the step index `k` in the paper's worlds, the fuel bound means a
//! verdict of "no difference found" is evidence, not proof; a reported
//! [`Counterexample`] is, however, a genuine inequivalence witness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
mod logrel;

use std::fmt;

use funtal::machine::{run_fexpr_threaded, FtOutcome, RunCfg};
use funtal_syntax::{FExpr, FTy};
use funtal_tal::trace::NullTracer;

/// What a fuel-bounded run of a program reveals.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Observation {
    /// Terminated with a value (compared structurally at base types,
    /// via [`logrel::v_rel`] otherwise).
    Value(FExpr),
    /// Still running after the fuel bound — treated as divergence at
    /// this index, like running out of steps in the paper's
    /// step-indexed worlds.
    Timeout,
    /// The machine got stuck or faulted (never happens for well-typed
    /// programs).
    Fault(String),
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observation::Value(v) => write!(f, "value {v}"),
            Observation::Timeout => f.write_str("timeout (diverging?)"),
            Observation::Fault(e) => write!(f, "fault: {e}"),
        }
    }
}

/// Runs a closed F expression and observes the outcome.
pub(crate) fn observe(e: &FExpr, fuel: u64) -> Observation {
    match run_fexpr_threaded(e, RunCfg::with_fuel(fuel), NullTracer) {
        Ok((FtOutcome::Value(v), _)) => Observation::Value(v),
        Ok((FtOutcome::Halted(w), _)) => Observation::Value(FExpr::Int(match w {
            funtal_syntax::WordVal::Int(n) => n,
            _ => return Observation::Fault("non-integer halt".to_string()),
        })),
        Ok((FtOutcome::OutOfFuel, _)) => Observation::Timeout,
        Err(e) => Observation::Fault(e.to_string()),
    }
}

/// A witness that two components differ.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// A description of the distinguishing experiment (inputs/context).
    pub experiment: String,
    /// The first program's observation.
    pub(crate) lhs: Observation,
    /// The second program's observation.
    pub(crate) rhs: Observation,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "distinguished by {}: lhs ⇒ {}, rhs ⇒ {}",
            self.experiment, self.lhs, self.rhs
        )
    }
}

/// The verdict of a bounded equivalence check.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// All experiments agreed (evidence of equivalence up to the fuel
    /// index, not a proof).
    NoDifferenceFound {
        /// Number of experiments performed.
        experiments: usize,
    },
    /// A genuine distinguishing experiment was found.
    Different(Box<Counterexample>),
}

impl Verdict {
    /// True when no difference was found.
    pub fn is_equiv(&self) -> bool {
        matches!(self, Verdict::NoDifferenceFound { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::NoDifferenceFound { experiments } => {
                write!(f, "no difference found ({experiments} experiments)")
            }
            Verdict::Different(c) => write!(f, "inequivalent: {c}"),
        }
    }
}

/// Configuration of the bounded relation.
#[derive(Clone, Copy, Debug)]
pub struct EquivCfg {
    /// Fuel per experiment (the step index `k`).
    pub fuel: u64,
    /// How many inputs to sample per function type.
    pub samples: usize,
    /// Depth budget for nested function types.
    pub depth: u32,
    /// RNG seed (experiments are deterministic given the seed).
    pub seed: u64,
}

impl Default for EquivCfg {
    fn default() -> Self {
        EquivCfg {
            fuel: 8_000,
            samples: 12,
            depth: 3,
            seed: 0xF00D,
        }
    }
}

/// Compares two observations, relating values with the bounded `V`
/// relation at `ty`. The counterexample is boxed — it is much larger
/// than the `Ok` path and flows straight into [`Verdict::Different`].
pub(crate) fn obs_rel(
    a: &Observation,
    b: &Observation,
    ty: &FTy,
    cfg: &EquivCfg,
    rng: &mut gen::SplitMix,
) -> Result<(), Box<Counterexample>> {
    match (a, b) {
        (Observation::Timeout, Observation::Timeout) => Ok(()),
        (Observation::Value(va), Observation::Value(vb)) => {
            if logrel::v_rel(va, vb, ty, cfg, rng, cfg.depth) {
                Ok(())
            } else {
                Err(Box::new(Counterexample {
                    experiment: format!("values differ at type {ty}"),
                    lhs: a.clone(),
                    rhs: b.clone(),
                }))
            }
        }
        _ => Err(Box::new(Counterexample {
            experiment: "observation class".to_string(),
            lhs: a.clone(),
            rhs: b.clone(),
        })),
    }
}

/// Bounded equivalence of two closed components at type `ty`
/// (the executable analogue of Theorem 5.2's `≈ctx`, one direction of
/// evidence only).
pub fn equivalent(e1: &FExpr, e2: &FExpr, ty: &FTy, cfg: &EquivCfg) -> Verdict {
    let mut rng = gen::SplitMix::new(cfg.seed);
    let mut experiments = 0;

    // Direct observation (E-relation at the empty context).
    match ty {
        FTy::Arrow { .. } => {}
        _ => {
            experiments += 1;
            let (oa, ob) = (observe(e1, cfg.fuel), observe(e2, cfg.fuel));
            if let Err(c) = obs_rel(&oa, &ob, ty, cfg, &mut rng) {
                return Verdict::Different(c);
            }
        }
    }

    // Applicative experiments for function types, plus generated
    // contexts for everything.
    for i in 0..cfg.samples {
        let ctx = gen::gen_context(ty, &mut rng, cfg.depth);
        let (p1, p2) = (ctx.plug(e1), ctx.plug(e2));
        experiments += 1;
        let (oa, ob) = (observe(&p1, cfg.fuel), observe(&p2, cfg.fuel));
        if let Err(mut c) = obs_rel(&oa, &ob, &ctx.result_ty, cfg, &mut rng) {
            c.experiment = format!("context #{i}: {} ({})", ctx.describe, c.experiment);
            return Verdict::Different(c);
        }
    }
    Verdict::NoDifferenceFound { experiments }
}
