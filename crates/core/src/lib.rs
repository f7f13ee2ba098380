//! **FunTAL** — the FT multi-language of *"FunTAL: Reasonably Mixing a
//! Functional Language with Assembly"* (Patterson, Perconti, Dimoulas,
//! Ahmed; PLDI 2017).
//!
//! FT embeds the typed assembly language **T** (crate `funtal-tal`) in
//! the functional language **F** (crate `funtal-fun`) and vice versa:
//!
//! - boundaries `τFT e` use a T component as an F expression of type
//!   `τ` (Fig 6);
//! - the `import` instruction evaluates an F expression from inside
//!   assembly and places the translated value in a register;
//! - `protect` abstracts the stack tail so embedded code cannot touch
//!   it;
//! - stack-modifying lambdas `λ^{φi}_{φo}(x̄:τ̄).e` expose controlled
//!   stack effects to F.
//!
//! This crate provides the FT type system ([`check`], Fig 7), the
//! boundary type/value translations ([`translate`], Figs 9–10), the
//! two FT machines — the Fig 8 substitution oracle ([`machine`]) and
//! the fast machine ([`machine_fast`] for F, [`machine_bc`] for T) —
//! the bytecode verifier ([`bc_verify`]), `funtal lint` ([`lint`]),
//! exact fuel bounds that run the fast machine under a static loop
//! gate ([`cost`]), the paper's mixed
//! examples ([`figures`]: the JIT example of Fig 11, the two-block
//! equivalence of Fig 16, the two factorials of Fig 17, and the push-7
//! stack-modifying lambda of §4.2), and the §4.2 mutable-reference
//! library ([`mutref`]).
//!
//! # Example
//!
//! Type-check and run the paper's JIT example (Fig 11), which calls
//! compiled assembly that calls back into an interpreted F function:
//!
//! ```
//! use funtal::check::typecheck;
//! use funtal::figures::fig11_jit;
//! use funtal::machine::eval_to_value;
//! use funtal_syntax::build::*;
//!
//! let e = fig11_jit();
//! assert_eq!(typecheck(&e)?, fint());
//! assert_eq!(eval_to_value(&e, 100_000)?, fint_e(2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bc_verify;
pub mod check;
pub mod cost;
pub mod figures;
mod intern;
pub mod lint;
pub mod machine;
pub mod machine_bc;
pub mod machine_fast;
pub mod mutref;
pub mod translate;

pub use bc_verify::{verify_lowered, BcVerifyError, ModuleVerifyError};
pub use check::{type_of_fexpr, typecheck, typecheck_component, FtCtx, Gamma};
pub use cost::{infer_fuel, FuelBound};
pub use funtal_analysis::diag::{normalize, Diagnostic, Severity};
pub use lint::lint_program;
pub use machine::{eval_to_value, run, run_fexpr, EvalStrategy, FtOutcome, RunCfg};
pub use machine_bc::{prelower, run_prelowered, LoweredProgram};
pub use translate::{f_to_t, fty_to_tty, t_to_f};
