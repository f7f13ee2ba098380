//! Abstract syntax for **FunTAL** — the multi-language of
//! *"FunTAL: Reasonably Mixing a Functional Language with Assembly"*
//! (Patterson, Perconti, Dimoulas, Ahmed; PLDI 2017).
//!
//! This crate defines the shared syntax trees for:
//!
//! - **T**, the compositional stack-based typed assembly language
//!   (Fig 1 of the paper): word/small values, instructions, code blocks,
//!   components `(I, H)`, register-file typings `χ`, stack typings `σ`,
//!   and return markers `q`;
//! - **F**, the simply-typed functional language (Fig 5);
//! - **FT**, the multi-language (Fig 6): boundaries `τFT e`, the
//!   `import`/`protect` instructions, stack-modifying lambdas, and the
//!   `out` return marker.
//!
//! It also provides the syntactic operations every checker and machine
//! needs: capture-avoiding substitution of type instantiations
//! ([`subst`]), alpha-equivalence ([`alpha`]), free variables ([`free`]),
//! pretty-printing ([`display`]), and ergonomic constructors ([`build`]).
//!
//! # Example
//!
//! ```
//! use funtal_syntax::build::*;
//!
//! // The T program of the paper's §3 example: load 42, push it.
//! let prog = seq(
//!     vec![mv(r1(), int_v(42)), salloc(1), sst(0, r1())],
//!     halt(int(), stack(vec![int()], nil()), r1()),
//! );
//! assert_eq!(
//!     prog.to_string(),
//!     "mv r1, 42; salloc 1; sst 0, r1; halt int, int :: * {r1}"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod build;
pub mod display;
pub mod free;
pub mod hash;
pub mod ids;
pub mod rename;
pub mod span;
pub mod subst;
pub mod term;
pub mod ty;

pub use ids::{Label, Reg, TyVar, VarName};
pub use span::{Span, SpanTable};
pub use term::{
    ArithOp, CodeBlock, Component, FExpr, HeapFrag, HeapVal, Instr, InstrSeq, Lam, SmallVal, TComp,
    Terminator, WordVal,
};
pub use ty::{
    CodeTy, FTy, HeapTy, HeapTyping, Inst, Kind, Mutability, RegFileTy, RetMarker, StackTail,
    StackTy, TTy, TyVarDecl,
};
