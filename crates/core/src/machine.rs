//! The FT abstract machine (Fig 8 of the paper): mixed-language
//! small-step evaluation with boundary reductions.
//!
//! The two boundary rules are:
//!
//! ```text
//! ⟨M | E[τFT (halt τ𝒯, σ {r}, ·)]⟩ ↦ ⟨M' | E[v]⟩   if τℱ𝒯(R(r), M) = (v, M')
//! ⟨M | E[import rd, σ' TFτ v; I]⟩ ↦ ⟨M' | E[mv rd, w; I]⟩   if ᵗℱ𝒯(v, M) = (w, M')
//! ```
//!
//! Everything else is either an F reduction (performed structurally on
//! the expression) or a T step (delegated to the `funtal-tal` machine).

use std::collections::BTreeMap;

use funtal_syntax::subst::subst_fvars;
use funtal_syntax::{Component, FExpr, Instr, InstrSeq, SmallVal, TComp, Terminator, WordVal};
use funtal_tal::error::{RResult, RuntimeError};
use funtal_tal::machine::{step_seq_opts, MachineOpts, Memory, TStep};
use funtal_tal::trace::{Event, Tracer};

use crate::machine_bc::{run_prelowered, LoweredProgram};
use crate::translate::{f_to_t, t_to_f};

/// Which machine evaluates: the paper-literal substitution oracle or
/// the one fast machine that computes the same thing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Term-rewriting small steps exactly as in Fig 8: every reduction
    /// rebuilds the term, β-reduction substitutes. The executable
    /// specification, kept as the differential-testing oracle.
    Substitution,
    /// The fast machine: the CEK-style F side of
    /// `crate::machine_fast` (explicit continuation stack + value
    /// environment) with T code on the bytecode VM of
    /// `crate::machine_bc` (each component lowered whole to a flat
    /// linear IR over a flat heap). Observably identical to the oracle,
    /// including fuel accounting, events, and fresh labels. The
    /// default.
    #[default]
    Environment,
    /// Another name for [`Environment`](EvalStrategy::Environment): it
    /// runs the same machine. Kept so the `bytecode`/`bc` spellings on
    /// the command line and in batch jobs stay valid.
    Bytecode,
}

/// Configuration for a run.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Maximum number of steps.
    pub fuel: u64,
    /// Enable the dynamic type-safety guard at every T jump.
    pub guard: bool,
    /// Which evaluator runs the program.
    pub strategy: EvalStrategy,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            fuel: 1_000_000,
            guard: false,
            strategy: EvalStrategy::default(),
        }
    }
}

impl RunCfg {
    /// A configuration with the given fuel.
    pub fn with_fuel(fuel: u64) -> Self {
        RunCfg {
            fuel,
            ..Self::default()
        }
    }

    /// The same configuration under a different strategy.
    pub fn with_strategy(self, strategy: EvalStrategy) -> Self {
        RunCfg { strategy, ..self }
    }

    fn opts(&self) -> MachineOpts {
        MachineOpts { guard: self.guard }
    }
}

// The batch engine (`funtal-driver`) runs one machine per worker
// thread over artifacts shared via `Arc`. Everything a worker receives
// (configuration, programs, memories) and everything it sends back
// (outcomes) must therefore be `Send + Sync`; the fast machine's `Rc`
// values and per-run instances are per-worker internals and never
// cross threads. These assertions are the compile-time contract —
// adding an `Rc` or `Cell` to any shared type fails the build here,
// not intermittently at runtime.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<RunCfg>();
    require_send_sync::<EvalStrategy>();
    require_send_sync::<FtOutcome>();
    require_send_sync::<FExpr>();
    require_send_sync::<Component>();
    require_send_sync::<Memory>();
    require_send_sync::<RuntimeError>();
    // Pre-lowered bytecode is a shared batch artifact: workers run the
    // same lowered program concurrently.
    require_send_sync::<LoweredProgram>();
};

/// The final outcome of running an FT component.
#[derive(Clone, Debug, PartialEq)]
pub enum FtOutcome {
    /// An F program reduced to a value.
    Value(FExpr),
    /// A top-level T program halted with a word value.
    Halted(WordVal),
    /// Fuel ran out.
    OutOfFuel,
}

enum FStepOut {
    Value,
    Next(FExpr),
}

/// Steps an F expression once. Boundaries and imports recurse into the
/// T machine and back.
fn step_fexpr(
    mem: &mut Memory,
    e: &FExpr,
    tracer: &mut dyn Tracer,
    opts: MachineOpts,
) -> RResult<FStepOut> {
    if e.is_value() {
        return Ok(FStepOut::Value);
    }
    Ok(FStepOut::Next(step_redex(mem, e, tracer, opts)?))
}

fn step_redex(
    mem: &mut Memory,
    e: &FExpr,
    tracer: &mut dyn Tracer,
    opts: MachineOpts,
) -> RResult<FExpr> {
    debug_assert!(!e.is_value());
    match e {
        FExpr::Var(x) => Err(RuntimeError::Stuck(format!("free variable {x}"))),
        FExpr::Unit | FExpr::Int(_) | FExpr::Lam(_) => unreachable!("values"),
        FExpr::Binop { op, lhs, rhs } => {
            if !lhs.is_value() {
                return Ok(FExpr::Binop {
                    op: *op,
                    lhs: Box::new(step_redex(mem, lhs, tracer, opts)?),
                    rhs: rhs.clone(),
                });
            }
            if !rhs.is_value() {
                return Ok(FExpr::Binop {
                    op: *op,
                    lhs: lhs.clone(),
                    rhs: Box::new(step_redex(mem, rhs, tracer, opts)?),
                });
            }
            let (FExpr::Int(a), FExpr::Int(b)) = (&**lhs, &**rhs) else {
                return Err(RuntimeError::Stuck(format!("binop on non-integers: {e}")));
            };
            tracer.event(&Event::FStep);
            Ok(FExpr::Int(op.apply(*a, *b)))
        }
        FExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => {
            if !cond.is_value() {
                return Ok(FExpr::If0 {
                    cond: Box::new(step_redex(mem, cond, tracer, opts)?),
                    then_branch: then_branch.clone(),
                    else_branch: else_branch.clone(),
                });
            }
            let FExpr::Int(n) = &**cond else {
                return Err(RuntimeError::Stuck(format!("if0 on a non-integer: {e}")));
            };
            tracer.event(&Event::FStep);
            Ok(if *n == 0 {
                (**then_branch).clone()
            } else {
                (**else_branch).clone()
            })
        }
        FExpr::App { func, args } => {
            if !func.is_value() {
                return Ok(FExpr::App {
                    func: Box::new(step_redex(mem, func, tracer, opts)?),
                    args: args.clone(),
                });
            }
            if let Some(i) = args.iter().position(|a| !a.is_value()) {
                let mut args = args.clone();
                args[i] = step_redex(mem, &args[i], tracer, opts)?;
                return Ok(FExpr::App {
                    func: func.clone(),
                    args,
                });
            }
            let FExpr::Lam(lam) = &**func else {
                return Err(RuntimeError::Stuck(format!(
                    "applying a non-function: {func}"
                )));
            };
            if lam.params.len() != args.len() {
                return Err(RuntimeError::Stuck(format!(
                    "arity mismatch: {} params, {} args",
                    lam.params.len(),
                    args.len()
                )));
            }
            let map: BTreeMap<_, _> = lam
                .params
                .iter()
                .map(|(x, _)| x.clone())
                .zip(args.iter().cloned())
                .collect();
            tracer.event(&Event::FBeta);
            Ok(subst_fvars(&lam.body, &map))
        }
        FExpr::Fold { ann, body } => Ok(FExpr::Fold {
            ann: ann.clone(),
            body: Box::new(step_redex(mem, body, tracer, opts)?),
        }),
        FExpr::Unfold(body) => {
            if !body.is_value() {
                return Ok(FExpr::Unfold(Box::new(step_redex(
                    mem, body, tracer, opts,
                )?)));
            }
            let FExpr::Fold { body: inner, .. } = &**body else {
                return Err(RuntimeError::Stuck(format!("unfold of a non-fold: {body}")));
            };
            tracer.event(&Event::FStep);
            Ok((**inner).clone())
        }
        FExpr::Tuple(es) => {
            let Some(i) = es.iter().position(|a| !a.is_value()) else {
                unreachable!("tuple of values is a value")
            };
            let mut es = es.clone();
            es[i] = step_redex(mem, &es[i], tracer, opts)?;
            Ok(FExpr::Tuple(es))
        }
        FExpr::Proj { idx, tuple } => {
            if !tuple.is_value() {
                return Ok(FExpr::Proj {
                    idx: *idx,
                    tuple: Box::new(step_redex(mem, tuple, tracer, opts)?),
                });
            }
            let FExpr::Tuple(vs) = &**tuple else {
                return Err(RuntimeError::Stuck(format!(
                    "projection from non-tuple: {tuple}"
                )));
            };
            if *idx == 0 || *idx > vs.len() {
                return Err(RuntimeError::Stuck(format!("pi[{idx}] out of range")));
            }
            tracer.event(&Event::FStep);
            Ok(vs[*idx - 1].clone())
        }
        FExpr::Boundary {
            ty,
            sigma_out,
            comp,
        } => {
            // Merge the local heap fragment on first contact.
            if !comp.heap.is_empty() {
                tracer.event(&Event::BoundaryEnter { ty: ty.clone() });
                let seq = mem.merge_fragment(comp);
                return Ok(FExpr::Boundary {
                    ty: ty.clone(),
                    sigma_out: sigma_out.clone(),
                    comp: Box::new(TComp::bare(seq)),
                });
            }
            // Fig 8: boundary around a halt value translates.
            if comp.seq.is_halt_value() {
                let Terminator::Halt { val, .. } = &comp.seq.term else {
                    unreachable!()
                };
                let w = mem.reg(*val)?.clone();
                let v = t_to_f(mem, &w, ty)?;
                tracer.event(&Event::BoundaryExit { ty: ty.clone() });
                return Ok(v);
            }
            let seq = step_ft_seq(mem, comp.seq.clone(), tracer, opts)?;
            Ok(FExpr::Boundary {
                ty: ty.clone(),
                sigma_out: sigma_out.clone(),
                comp: Box::new(TComp::bare(seq)),
            })
        }
    }
}

/// Steps a T instruction sequence once, handling the multi-language
/// instructions and delegating everything else to the T machine.
///
/// The sequence must not be a bare halt (the caller translates or
/// reports those).
fn step_ft_seq(
    mem: &mut Memory,
    mut seq: InstrSeq,
    tracer: &mut dyn Tracer,
    opts: MachineOpts,
) -> RResult<InstrSeq> {
    match seq.instrs.first() {
        Some(Instr::Protect { .. }) => {
            // protect is typing-only, but still one machine step —
            // emit `Instr` so every fuel tick has exactly one charging
            // event (the profiler's invariant, identical in all tiers).
            tracer.event(&Event::Instr);
            seq.instrs.remove(0);
            Ok(seq)
        }
        Some(Instr::Import {
            rd,
            zeta,
            protected,
            ty,
            body,
        }) => {
            if body.is_value() {
                // Fig 8: import of a value becomes mv rd, w.
                let w = f_to_t(mem, body, ty)?;
                tracer.event(&Event::ImportExit { rd: *rd });
                let rd = *rd;
                seq.instrs.remove(0);
                seq.instrs.insert(
                    0,
                    Instr::Mv {
                        rd,
                        src: SmallVal::Word(w),
                    },
                );
                Ok(seq)
            } else {
                let next = step_redex(mem, body, tracer, opts)?;
                let new_head = Instr::Import {
                    rd: *rd,
                    zeta: zeta.clone(),
                    protected: protected.clone(),
                    ty: ty.clone(),
                    body: Box::new(next),
                };
                seq.instrs[0] = new_head;
                Ok(seq)
            }
        }
        _ => match step_seq_opts(mem, seq, tracer, opts)? {
            TStep::Next(next) => Ok(next),
            TStep::Halted { .. } => Err(RuntimeError::Stuck(
                "halt reached inside step_ft_seq (caller should have handled it)".to_string(),
            )),
        },
    }
}

/// Runs an FT component to completion (or until the fuel bound),
/// dispatching on the configured [`EvalStrategy`].
pub fn run(
    mem: &mut Memory,
    comp: &Component,
    cfg: RunCfg,
    tracer: &mut dyn Tracer,
) -> RResult<FtOutcome> {
    match cfg.strategy {
        EvalStrategy::Environment | EvalStrategy::Bytecode => {
            crate::machine_bc::run_bc(mem, comp, cfg, tracer)
        }
        EvalStrategy::Substitution => run_subst(mem, comp, cfg, tracer),
    }
}

/// The substitution-strategy runner (the Fig 8 oracle).
fn run_subst(
    mem: &mut Memory,
    comp: &Component,
    cfg: RunCfg,
    tracer: &mut dyn Tracer,
) -> RResult<FtOutcome> {
    match comp {
        Component::F(e) => {
            let mut cur = e.clone();
            for _ in 0..cfg.fuel {
                match step_fexpr(mem, &cur, tracer, cfg.opts())? {
                    FStepOut::Value => return Ok(FtOutcome::Value(cur)),
                    FStepOut::Next(next) => cur = next,
                }
            }
            if cur.is_value() {
                Ok(FtOutcome::Value(cur))
            } else {
                Ok(FtOutcome::OutOfFuel)
            }
        }
        Component::T(c) => {
            let mut seq = mem.merge_fragment(c);
            for _ in 0..cfg.fuel {
                if seq.is_halt_value() {
                    let Terminator::Halt { val, .. } = &seq.term else {
                        unreachable!()
                    };
                    let w = mem.reg(*val)?.clone();
                    tracer.event(&Event::Halt { reg: *val });
                    return Ok(FtOutcome::Halted(w));
                }
                seq = step_ft_seq(mem, seq, tracer, cfg.opts())?;
            }
            Ok(FtOutcome::OutOfFuel)
        }
    }
}

/// Runs a closed F expression in a fresh memory.
pub fn run_fexpr(e: &FExpr, cfg: RunCfg, tracer: &mut dyn Tracer) -> RResult<FtOutcome> {
    match cfg.strategy {
        EvalStrategy::Environment | EvalStrategy::Bytecode => {
            run_prelowered(&LoweredProgram::intern(e), cfg, tracer)
        }
        EvalStrategy::Substitution => {
            let mut mem = Memory::new();
            run(&mut mem, &Component::F(e.clone()), cfg, tracer)
        }
    }
}

/// Runs a closed F expression on a dedicated thread with a large stack.
///
/// The stepper recurses over the evaluation context, whose depth can
/// grow without bound in divergent programs (e.g. `factF(-1)` from Fig
/// 17 nests one multiplication frame per recursive call). Use this entry
/// point when probing divergence with large fuel bounds; plain
/// [`run_fexpr`] is fine for convergent programs, whose context depth is
/// proportional to the program's own nesting.
pub fn run_fexpr_threaded<T: Tracer + Send + 'static>(
    e: &FExpr,
    cfg: RunCfg,
    mut tracer: T,
) -> RResult<(FtOutcome, T)> {
    const STACK_BYTES: usize = 512 * 1024 * 1024;
    let e = e.clone();
    std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(move || {
            let out = run_fexpr(&e, cfg, &mut tracer);
            out.map(|o| (o, tracer))
        })
        .expect("spawning the evaluation thread")
        .join()
        .expect("evaluation thread panicked")
}

/// Runs a closed F expression with defaults and expects a value.
///
/// # Errors
///
/// Propagates machine errors; returns `Stuck` if fuel runs out.
pub fn eval_to_value(e: &FExpr, fuel: u64) -> RResult<FExpr> {
    match run_fexpr(
        e,
        RunCfg::with_fuel(fuel),
        &mut funtal_tal::trace::NullTracer,
    )? {
        FtOutcome::Value(v) => Ok(v),
        FtOutcome::Halted(w) => Err(RuntimeError::Stuck(format!(
            "expected an F value, program halted in T with {w}"
        ))),
        FtOutcome::OutOfFuel => Err(RuntimeError::Stuck("out of fuel".to_string())),
    }
}
