//! Error types for the T type checker and machine.

use std::fmt;

use funtal_syntax::{Label, Reg, RetMarker, StackTy, TyVar};

/// An error raised by the static semantics of T (and reused by the FT
/// checker for the shared rules).
#[derive(Clone, Debug, PartialEq)]
pub enum TypeError {
    /// A type variable was used but not bound in `∆` (or bound at the
    /// wrong kind).
    UnboundTyVar(TyVar),
    /// A register was read but has no entry in `χ`.
    UnboundReg(Reg),
    /// A heap label is missing from `Ψ`.
    UnboundLabel(Label),
    /// A term variable is missing from `Γ`.
    UnboundVar(String),
    /// Two types that had to agree differ.
    Mismatch {
        /// What was required.
        expected: String,
        /// What was found.
        found: String,
        /// Where the comparison arose.
        what: &'static str,
    },
    /// An operand had the wrong shape (e.g. `unfold` of a non-recursive
    /// type).
    WrongForm {
        /// What was required.
        expected: &'static str,
        /// What was found.
        found: String,
    },
    /// The register-file subtyping `χ ≤ χ'` failed.
    NotSubtype {
        /// The missing or mismatched register.
        reg: Reg,
        /// Human-readable detail.
        detail: String,
    },
    /// A stack index referred to a hidden or out-of-range slot.
    BadStackIndex {
        /// The requested slot.
        idx: usize,
        /// Number of visible slots.
        visible: usize,
    },
    /// A tuple field index is out of range.
    BadFieldIndex {
        /// The requested field.
        idx: usize,
        /// Tuple width.
        width: usize,
    },
    /// The instruction would overwrite or hide the return marker.
    ClobbersMarker(&'static str),
    /// The return marker would escape into the heap or be duplicated.
    MarkerEscape(&'static str),
    /// The current return marker does not satisfy the rule's requirement.
    BadMarker {
        /// The marker found.
        found: RetMarker,
        /// What the rule needs.
        need: &'static str,
    },
    /// `ret-type`/`ret-addr-type` is undefined for this marker.
    NoRetType(RetMarker),
    /// A jump target's preconditions don't match the current state.
    JumpMismatch {
        /// Which precondition failed.
        what: &'static str,
        /// What the target expects.
        expected: String,
        /// What the jump site has.
        found: String,
    },
    /// An instantiation list does not match the binder list.
    BadInstantiation(String),
    /// A multi-language instruction (`import`/`protect`) or expression
    /// reached the pure-T checker/machine.
    MultiLanguage(&'static str),
    /// A component-local heap binding is not `box` (Fig 2 requires
    /// `ν = box` for all local bindings).
    LocalHeapNotBox(Label),
    /// Heap tuple types could not be inferred (cyclic or ill-formed
    /// fragment).
    HeapInference(String),
    /// A duplicate binder in `∆`.
    DuplicateTyVar(TyVar),
    /// The stack is too short for the requested operation.
    StackShape {
        /// What the rule needed.
        need: String,
        /// The actual stack typing.
        found: StackTy,
    },
    /// Anything else, with a description.
    Other(String),
    /// An error wrapped with a location breadcrumb.
    Context {
        /// Where (block label, instruction index, ...).
        at: String,
        /// The underlying error.
        cause: Box<TypeError>,
    },
}

impl TypeError {
    /// Wraps the error with a breadcrumb describing where it happened.
    pub(crate) fn at(self, loc: impl fmt::Display) -> TypeError {
        TypeError::Context {
            at: loc.to_string(),
            cause: Box::new(self),
        }
    }

    /// Convenience constructor for [`TypeError::Mismatch`].
    pub fn mismatch(
        what: &'static str,
        expected: &impl fmt::Display,
        found: &impl fmt::Display,
    ) -> TypeError {
        TypeError::Mismatch {
            expected: expected.to_string(),
            found: found.to_string(),
            what,
        }
    }

    /// Convenience constructor for [`TypeError::WrongForm`].
    pub fn wrong_form(expected: &'static str, found: &impl fmt::Display) -> TypeError {
        TypeError::WrongForm {
            expected,
            found: found.to_string(),
        }
    }

    /// The innermost (unwrapped) error.
    pub fn root(&self) -> &TypeError {
        match self {
            TypeError::Context { cause, .. } => cause.root(),
            other => other,
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundTyVar(v) => write!(f, "unbound type variable {v}"),
            TypeError::UnboundReg(r) => write!(f, "register {r} has no type in chi"),
            TypeError::UnboundLabel(l) => write!(f, "label {l} is not in the heap typing"),
            TypeError::UnboundVar(x) => write!(f, "unbound variable {x}"),
            TypeError::Mismatch {
                expected,
                found,
                what,
            } => {
                write!(f, "{what}: expected {expected}, found {found}")
            }
            TypeError::WrongForm { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            TypeError::NotSubtype { reg, detail } => {
                write!(f, "register file subtyping failed at {reg}: {detail}")
            }
            TypeError::BadStackIndex { idx, visible } => {
                write!(
                    f,
                    "stack slot {idx} is not visible ({visible} visible slots)"
                )
            }
            TypeError::BadFieldIndex { idx, width } => {
                write!(f, "field {idx} out of range for a {width}-tuple")
            }
            TypeError::ClobbersMarker(what) => {
                write!(f, "{what} would clobber the return marker")
            }
            TypeError::MarkerEscape(what) => {
                write!(f, "{what} would duplicate the return continuation")
            }
            TypeError::BadMarker { found, need } => {
                write!(f, "return marker {found} unusable here: need {need}")
            }
            TypeError::NoRetType(q) => {
                write!(f, "ret-type is undefined for marker {q}")
            }
            TypeError::JumpMismatch {
                what,
                expected,
                found,
            } => {
                write!(
                    f,
                    "jump precondition {what}: target expects {expected}, have {found}"
                )
            }
            TypeError::BadInstantiation(s) => write!(f, "bad type instantiation: {s}"),
            TypeError::MultiLanguage(what) => {
                write!(f, "multi-language form `{what}` not allowed in pure T")
            }
            TypeError::LocalHeapNotBox(l) => {
                write!(f, "component-local heap value {l} must be box (Fig 2)")
            }
            TypeError::HeapInference(s) => write!(f, "cannot infer heap typing: {s}"),
            TypeError::DuplicateTyVar(v) => write!(f, "duplicate type variable {v}"),
            TypeError::StackShape { need, found } => {
                write!(f, "stack shape mismatch: need {need}, stack is {found}")
            }
            TypeError::Other(s) => f.write_str(s),
            TypeError::Context { at, cause } => write!(f, "{at}: {cause}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// An error raised by the T abstract machine.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// A register was read before being written.
    UnboundReg(Reg),
    /// A label is not in the heap.
    UnboundLabel(Label),
    /// An operand that had to be an integer was not.
    NotInt(String),
    /// An operand that had to be a tuple pointer was not.
    NotTuple(String),
    /// A jump target did not resolve to a code block.
    NotCode(String),
    /// `unpack` of a non-package value.
    NotPack(String),
    /// `unfold` of a non-folded value.
    NotFold(String),
    /// A stack operation underflowed.
    StackUnderflow {
        /// How many slots were needed.
        need: usize,
        /// How many were present.
        have: usize,
    },
    /// `salloc` would grow the stack past
    /// [`MAX_STACK_SLOTS`](crate::machine::MAX_STACK_SLOTS).
    StackOverflow {
        /// How many slots were requested.
        need: usize,
        /// How many were present.
        have: usize,
    },
    /// A stack slot index was out of range.
    BadStackIndex(usize),
    /// A tuple field index was out of range.
    BadFieldIndex(usize),
    /// A store to an immutable (`box`) tuple.
    ImmutableStore(Label),
    /// Jump to a block whose `∆` was not fully instantiated.
    BadInstantiation {
        /// Binders expected.
        expected: usize,
        /// Instantiations provided.
        provided: usize,
    },
    /// A multi-language form reached the pure-T machine.
    MultiLanguage(&'static str),
    /// The dynamic type-safety guard detected a violated precondition
    /// (never happens for well-typed programs — see E11 in DESIGN.md).
    GuardViolation(String),
    /// Anything else.
    Stuck(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnboundReg(r) => write!(f, "register {r} is uninitialized"),
            RuntimeError::UnboundLabel(l) => write!(f, "label {l} not in heap"),
            RuntimeError::NotInt(s) => write!(f, "expected an integer, got {s}"),
            RuntimeError::NotTuple(s) => write!(f, "expected a tuple pointer, got {s}"),
            RuntimeError::NotCode(s) => write!(f, "expected a code pointer, got {s}"),
            RuntimeError::NotPack(s) => write!(f, "expected a pack, got {s}"),
            RuntimeError::NotFold(s) => write!(f, "expected a fold, got {s}"),
            RuntimeError::StackUnderflow { need, have } => {
                write!(f, "stack underflow: need {need} slots, have {have}")
            }
            RuntimeError::StackOverflow { need, have } => write!(
                f,
                "stack overflow: salloc {need} on {have} slots passes the bound of {} slots",
                crate::machine::MAX_STACK_SLOTS
            ),
            RuntimeError::BadStackIndex(i) => write!(f, "stack slot {i} out of range"),
            RuntimeError::BadFieldIndex(i) => write!(f, "tuple field {i} out of range"),
            RuntimeError::ImmutableStore(l) => {
                write!(f, "store to immutable tuple at {l}")
            }
            RuntimeError::BadInstantiation { expected, provided } => {
                write!(f, "block expects {expected} instantiations, got {provided}")
            }
            RuntimeError::MultiLanguage(what) => {
                write!(
                    f,
                    "multi-language form `{what}` not supported by the pure T machine"
                )
            }
            RuntimeError::GuardViolation(s) => write!(f, "type-safety guard: {s}"),
            RuntimeError::Stuck(s) => write!(f, "machine stuck: {s}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Result alias for checker functions.
pub type TResult<T> = Result<T, TypeError>;

/// Result alias for machine functions.
pub type RResult<T> = Result<T, RuntimeError>;
