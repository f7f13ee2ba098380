//! **funtal-analysis** — the reusable dataflow layer under every
//! static pass of the FunTAL reproduction.
//!
//! The paper's premise is that embedded assembly stays *reasonable*
//! because it is statically checked; this crate is the seam where all
//! of our static checking over basic blocks lives, built once and
//! instantiated many times (PAPERS.md: the "Fundamental Constructs"
//! line — analyses over a small IR, reused):
//!
//! - `cfg` — control-flow graphs over numbered basic blocks:
//!   reachability, back-edge detection (loop-freeness), reverse
//!   postorder;
//! - `dataflow` — a direction-agnostic worklist solver over any
//!   join-semilattice of facts ([`Analysis`]);
//! - `bitset` — a dense 64-element bit set, the fact domain for
//!   register-file analyses (the T register file has 8 registers);
//! - [`diag`] — span-attributed diagnostics with a deterministic
//!   normal form (sorted, deduplicated), so every consumer renders
//!   byte-stable output regardless of rule evaluation order or worker
//!   count.
//!
//! Current instantiations live in `funtal` (the core crate): the
//! `BcModule` bytecode verifier (register-initialization as a forward
//! must-analysis), the `funtal lint` rules (dead register writes as a
//! backward liveness analysis, unreachable blocks as CFG
//! reachability), and static fuel-bound inference (loop-free regions
//! via [`Cfg::is_loop_free_from`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod cfg;
mod dataflow;
pub mod diag;

pub use bitset::BitSet;
pub use cfg::Cfg;
pub use dataflow::{solve, Analysis, Direction};
pub use diag::{normalize, Diagnostic, Severity};
