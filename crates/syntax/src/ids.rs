//! Identifiers: type variables, heap labels, term variables, and registers.
//!
//! All name-like identifiers are cheap-to-clone wrappers around `Arc<str>`
//! so that the substitution-heavy machine can copy syntax trees without
//! repeatedly allocating strings.

use std::fmt;
use std::sync::Arc;

macro_rules! name_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates a new identifier from anything string-like.
            pub fn new(s: impl AsRef<str>) -> Self {
                $name(Arc::from(s.as_ref()))
            }

            /// The textual form of the identifier.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), &self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name::new(s)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                self.as_str()
            }
        }
    };
}

name_type! {
    /// A type-level variable: `α` (type), `ζ` (stack), or `ε` (return marker).
    ///
    /// The kind of a variable is determined by its binding site (see
    /// [`crate::ty::Kind`]); the name itself is kind-agnostic.
    TyVar
}

name_type! {
    /// A heap location `ℓ`.
    ///
    /// Labels are nominal: two heaps are equal only if they agree on label
    /// names. The machine freshens component-local labels when merging a
    /// local heap fragment into the global heap.
    Label
}

name_type! {
    /// A term-level variable of the functional language F.
    VarName
}

/// A register of the assembly language T: `r1`–`r7` plus the return-address
/// register `ra` (Fig 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Reg {
    /// General-purpose register `r1` (results by calling convention).
    R1,
    /// General-purpose register `r2`.
    R2,
    /// General-purpose register `r3`.
    R3,
    /// General-purpose register `r4`.
    R4,
    /// General-purpose register `r5`.
    R5,
    /// General-purpose register `r6`.
    R6,
    /// General-purpose register `r7`.
    R7,
    /// The return-address register `ra`.
    Ra,
}

impl Reg {
    /// All registers in display order.
    pub const ALL: [Reg; 8] = [
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::Ra,
    ];

    /// Parses a register name (`"r1"`, ..., `"r7"`, `"ra"`).
    pub fn from_name(s: &str) -> Option<Reg> {
        match s {
            "r1" => Some(Reg::R1),
            "r2" => Some(Reg::R2),
            "r3" => Some(Reg::R3),
            "r4" => Some(Reg::R4),
            "r5" => Some(Reg::R5),
            "r6" => Some(Reg::R6),
            "r7" => Some(Reg::R7),
            "ra" => Some(Reg::Ra),
            _ => None,
        }
    }

    /// The register's name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Reg::R1 => "r1",
            Reg::R2 => "r2",
            Reg::R3 => "r3",
            Reg::R4 => "r4",
            Reg::R5 => "r5",
            Reg::R6 => "r6",
            Reg::R7 => "r7",
            Reg::Ra => "ra",
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Returns a variable named like `base` that is not in `avoid`.
///
/// Fresh names use a `#` suffix, which the concrete syntax rejects in
/// identifiers, so generated names can never collide with source names.
pub fn fresh_tyvar(base: &TyVar, avoid: impl Fn(&TyVar) -> bool) -> TyVar {
    let stem = base.as_str().split('#').next().unwrap_or("x");
    let mut i: u64 = 1;
    loop {
        let cand = TyVar::new(format!("{stem}#{i}"));
        if !avoid(&cand) {
            return cand;
        }
        i += 1;
    }
}

/// Returns a term variable named like `base` that is not in `avoid`.
pub(crate) fn fresh_varname(base: &VarName, avoid: impl Fn(&VarName) -> bool) -> VarName {
    let stem = base.as_str().split('#').next().unwrap_or("x");
    let mut i: u64 = 1;
    loop {
        let cand = VarName::new(format!("{stem}#{i}"));
        if !avoid(&cand) {
            return cand;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_round_trip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_name(r.name()), Some(r));
        }
        assert_eq!(Reg::from_name("r8"), None);
        assert_eq!(Reg::from_name("rb"), None);
    }

    #[test]
    fn tyvar_equality_is_textual() {
        assert_eq!(TyVar::new("a"), TyVar::from("a"));
        assert_ne!(TyVar::new("a"), TyVar::new("b"));
    }

    #[test]
    fn fresh_avoids_collisions() {
        let base = TyVar::new("z");
        let taken = [TyVar::new("z#1"), TyVar::new("z#2")];
        let fresh = fresh_tyvar(&base, |v| taken.contains(v));
        assert_eq!(fresh.as_str(), "z#3");
    }

    #[test]
    fn fresh_strips_existing_suffix() {
        let base = TyVar::new("z#7");
        let fresh = fresh_tyvar(&base, |_| false);
        assert_eq!(fresh.as_str(), "z#1");
    }
}
