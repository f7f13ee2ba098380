//! **F**: the simply-typed, call-by-value functional language of
//! *"FunTAL: Reasonably Mixing a Functional Language with Assembly"*
//! (PLDI 2017), §4.1 — iso-recursive types, conditional branching,
//! tuples, integers and unit.
//!
//! This crate implements *pure* F: the type checker ([`check`]) and
//! evaluator ([`eval`](mod@eval)) reject the multi-language forms (boundaries,
//! stack-modifying lambdas), which belong to the `funtal` crate. The
//! standalone implementation exists so integration tests can
//! cross-validate the FT semantics against a simpler reference on pure
//! programs.
//!
//! # Example
//!
//! ```
//! use funtal_syntax::build::*;
//! use funtal_fun::{check::type_of, eval::{eval, FOutcome}};
//!
//! let inc = lam(vec![("x", fint())], fadd(var("x"), fint_e(1)));
//! let prog = app(inc, vec![fint_e(41)]);
//! assert_eq!(type_of(&Default::default(), &prog)?, fint());
//! assert_eq!(eval(&prog, 100)?, FOutcome::Value(fint_e(42)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod eval;

pub use check::type_of;
pub use eval::{eval, FOutcome};
