//! **T**: the compositional stack-based typed assembly language of
//! *"FunTAL: Reasonably Mixing a Functional Language with Assembly"*
//! (PLDI 2017), §3.
//!
//! T extends STAL (Morrisett et al.) with the paper's central novelty:
//! **return markers** `q` on code types, which record where a block's
//! return continuation lives (a register, a stack slot, an abstract
//! variable `ε`, or the halting marker `end{τ;σ}`) and therefore give
//! multi-block assembly *components* a function-like semantic interface.
//!
//! This crate provides:
//!
//! - [`check`] — the full Fig 2 type system: instruction judgments,
//!   `jmp`/`call`/`ret`/`halt` rules, `ret-type`/`ret-addr-type`, and
//!   component typing `Ψ;∆;χ;σ;q ⊢ (I,H) : τ;σ'`;
//! - [`machine`] — the small-step abstract machine over memories
//!   `M = (H, R, S)`, with heap-fragment merging and fuel-bounded
//!   execution;
//! - [`wf`], [`value_ty`] — well-formedness and value-typing judgments,
//!   shared with the FT checker in the `funtal` crate;
//! - [`trace`] — control-flow events used to regenerate Fig 4/Fig 12;
//! - [`figures`] — Figure 3 reconstructed as a syntax tree.
//!
//! # Example
//!
//! Type-check and run Figure 3 (which computes `1 * 2` through two
//! `call`s, a `jmp` and two `ret`s):
//!
//! ```
//! use funtal_tal::figures::fig3_call_to_call;
//! use funtal_tal::check::check_program;
//! use funtal_tal::machine::{run_program, Outcome};
//! use funtal_tal::trace::NullTracer;
//! use funtal_syntax::{TTy, WordVal};
//!
//! let prog = fig3_call_to_call();
//! check_program(&prog, &TTy::Int)?;
//! let out = run_program(&prog, 1_000, &mut NullTracer)?;
//! assert_eq!(out, Outcome::Halted(WordVal::Int(2)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod error;
pub mod figures;
pub mod machine;
pub mod profile;
pub mod trace;
pub mod value_ty;
pub mod wf;

pub use check::{check_component, check_program, check_seq, ret_addr_type, ret_type, TCtx};
pub use error::{RResult, RuntimeError, TResult, TypeError};
pub use machine::{run_component, run_program, Memory, Outcome, Stack, MAX_STACK_SLOTS};
pub use profile::{ProfileEntry, Profiler, RootLang};
pub use trace::{CountTracer, Event, NullTracer, Tracer, VecTracer};
pub use wf::Delta;
