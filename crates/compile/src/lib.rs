//! A compiler from **MiniF** (a first-order F subset) to **T**
//! components, plus a JIT-style runtime — the implemented version of the
//! FunTAL paper's §6 "JIT Formalization" and "Compositional Compiler
//! Correctness" discussions.
//!
//! - [`lang`]: the MiniF source language with validation and a
//!   reference interpreter (the ground truth for correctness tests);
//! - [`femit`]: materializing definitions as F lambdas (self-recursion
//!   via the paper's Fig 17 fold/unfold self-application);
//! - [`codegen`]: compiling definitions to multi-block T code following
//!   the Fig 9 calling convention, with optional self-tail-call
//!   loopification (which turns the compiled `factF` into exactly the
//!   register-loop shape of the paper's `factT`);
//! - [`jit`]: a runtime that moves between interpreted and compiled
//!   configurations based on invocation counts.
//!
//! Compiler correctness is *expressed the paper's way*: a compiled
//! definition embedded through a boundary must be contextually
//! equivalent to its source — `eS ≈ E[ℱ𝒯 eT]` — and the test suite
//! checks this with the bounded logical relation of `funtal-equiv`.
//!
//! # Example
//!
//! ```
//! use funtal_compile::lang::factorial_program;
//! use funtal_compile::codegen::{compile_program, CodegenOpts};
//! use funtal::machine::eval_to_value;
//! use funtal_syntax::build::*;
//!
//! let program = factorial_program();
//! let compiled = compile_program(&program, CodegenOpts { tail_call_opt: true });
//! let fact = compiled.wrap("fact");
//! let five = eval_to_value(&app(fact, vec![fint_e(5)]), 1_000_000)?;
//! assert_eq!(five, fint_e(120));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod femit;
pub mod jit;
pub mod lang;
