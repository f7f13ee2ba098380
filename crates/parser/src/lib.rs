//! Concrete syntax for FunTAL: a lexer and recursive-descent parser
//! matching the pretty-printer of `funtal-syntax` exactly (the paper's
//! artifact was an in-browser type checker and stepper with a concrete
//! syntax; this is our equivalent).
//!
//! The grammar, briefly (see `crates/parser/tests/` for many examples):
//!
//! ```text
//! T types    unit | int | a | mu a. t | exists a. t | ref <t, …>
//!            | box <t, …> | box forall[a: ty, z: stk, e: ret]{r1: t, …; σ} q
//! stacks σ   t :: … :: * | t :: … :: z
//! markers q  r1 … ra | 3 | e | end{t; σ} | out
//! F types    unit | int | a | mu a. t | <t, …> | (t, …) -> t
//!            | (t, …)[φ; φ] -> t          (φ ::= . | t :: φ)
//! F terms    x | 42 | () | e + e | e - e | e * e | if0 e {e} {e}
//!            | lam[z](x: t, …). e | lam[z; φ; φ](x: t, …). e | e(e, …)
//!            | fold[t](e) | unfold(e) | <e, …> | pi[1](e)
//!            | FT[t](comp) | FT[t; σ](comp)
//! components (I) | (I, {l -> h; …})
//! h          code[…]{χ; σ} q. I | box <w, …> | ref <w, …>
//! I          ι; …; jmp u | call u {σ, q} | ret r {r} | halt t, σ {r}
//! imports    import rd, z = σ, TF[t](e)
//! ```
//!
//! # Example
//!
//! ```
//! use funtal_parser::parse_fexpr;
//! use funtal::machine::eval_to_value;
//! use funtal_syntax::build::*;
//!
//! let e = parse_fexpr(
//!     "FT[int](mv r1, 6; mul r1, r1, 7; halt int, * {r1})",
//! )?;
//! assert_eq!(funtal::typecheck(&e)?, fint());
//! assert_eq!(eval_to_value(&e, 100)?, fint_e(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lex;
pub mod parse;

pub use lex::lex;
pub use parse::{
    parse_fexpr, parse_fexpr_spanned, parse_fty, parse_seq, parse_stack, parse_tcomp, parse_tty,
};
