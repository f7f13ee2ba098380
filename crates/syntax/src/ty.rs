//! Types of the multi-language FT: T value types `τ`, heap types `ψ`,
//! register-file typings `χ`, stack typings `σ`, return markers `q`, and
//! F types `τ` (Figs 1, 5 and 6 of the paper).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ids::{Label, Reg, TyVar};

/// The kind of a type-level variable.
///
/// The paper distinguishes the kinds typographically (`α` vs `ζ` vs `ε`);
/// we annotate binders explicitly (deviation D5 in DESIGN.md). F and T type
/// variables share the `Ty` kind because the boundary type translation maps
/// `α` to `α` (Fig 9).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kind {
    /// A value type variable `α`.
    Ty,
    /// A stack typing variable `ζ`.
    Stack,
    /// A return-marker variable `ε`.
    Ret,
}

/// A kinded binder entry in a type environment `∆` or a `∀[∆]` prefix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TyVarDecl {
    /// The bound variable.
    pub var: TyVar,
    /// Its kind.
    pub kind: Kind,
}

impl TyVarDecl {
    /// A `α : ty` binder.
    pub fn ty(v: impl Into<TyVar>) -> Self {
        TyVarDecl {
            var: v.into(),
            kind: Kind::Ty,
        }
    }

    /// A `ζ : stk` binder.
    pub fn stack(v: impl Into<TyVar>) -> Self {
        TyVarDecl {
            var: v.into(),
            kind: Kind::Stack,
        }
    }

    /// An `ε : ret` binder.
    pub fn ret(v: impl Into<TyVar>) -> Self {
        TyVarDecl {
            var: v.into(),
            kind: Kind::Ret,
        }
    }
}

/// Mutability of a heap cell: `ref` (mutable tuple) or `box` (immutable).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Mutability {
    /// Mutable reference, `ref`.
    Ref,
    /// Immutable pointer, `box`. All code is boxed (no self-modifying code).
    Boxed,
}

/// T value types `τ` (Fig 1): types of values small enough to fit in a
/// register.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TTy {
    /// A type variable `α`.
    Var(TyVar),
    /// `unit`.
    Unit,
    /// `int`.
    Int,
    /// An existential `∃α.τ`.
    Exists(TyVar, Box<TTy>),
    /// An iso-recursive type `µα.τ`.
    Rec(TyVar, Box<TTy>),
    /// A mutable tuple reference `ref ⟨τ, …⟩`.
    Ref(Vec<TTy>),
    /// An immutable pointer `box ψ`. The heap type is shared, so copying
    /// a code pointer's type (out of Ψ, a register or a stack slot) is a
    /// refcount bump.
    Boxed(Arc<HeapTy>),
}

impl TTy {
    /// Convenience constructor for a `box ∀[∆].{χ;σ}q` code-pointer type.
    pub fn code(delta: Vec<TyVarDecl>, chi: RegFileTy, sigma: StackTy, q: RetMarker) -> TTy {
        TTy::Boxed(Arc::new(HeapTy::Code(CodeTy {
            delta,
            chi,
            sigma,
            q,
        })))
    }

    /// Convenience constructor for an immutable tuple `box ⟨τ, …⟩`.
    pub fn boxed_tuple(fields: Vec<TTy>) -> TTy {
        TTy::Boxed(Arc::new(HeapTy::Tuple(fields)))
    }

    /// Returns the code type if `self` is `box ∀[∆].{χ;σ}q`.
    pub fn as_code(&self) -> Option<&CodeTy> {
        match self {
            TTy::Boxed(h) => match &**h {
                HeapTy::Code(c) => Some(c),
                HeapTy::Tuple(_) => None,
            },
            _ => None,
        }
    }
}

/// Heap value types `ψ` (Fig 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HeapTy {
    /// A code block type `∀[∆].{χ;σ}q`.
    Code(CodeTy),
    /// A tuple of word-sized values `⟨τ, …⟩`.
    Tuple(Vec<TTy>),
}

/// The type of a code block: `∀[∆].{χ;σ}q`.
///
/// `χ` and `σ` are preconditions for jumping to the block; the return
/// marker `q` says where the block's return continuation lives (the
/// paper's central novelty, §2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CodeTy {
    /// Bound type variables `∆`.
    pub delta: Vec<TyVarDecl>,
    /// Register-file precondition `χ`.
    pub chi: RegFileTy,
    /// Stack precondition `σ`.
    pub sigma: StackTy,
    /// Return marker `q`.
    pub q: RetMarker,
}

/// A register-file typing `χ`: a finite map from registers to value types.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RegFileTy(pub(crate) BTreeMap<Reg, TTy>);

impl RegFileTy {
    /// The empty register-file typing.
    pub fn new() -> Self {
        RegFileTy(BTreeMap::new())
    }

    /// Builds a typing from `(register, type)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Reg, TTy)>) -> Self {
        RegFileTy(pairs.into_iter().collect())
    }

    /// Looks up the type of `r`.
    pub fn get(&self, r: Reg) -> Option<&TTy> {
        self.0.get(&r)
    }

    /// (Re)binds `r` to `ty` in place — the paper's `χ[r : τ]`.
    pub fn insert(&mut self, r: Reg, ty: TTy) {
        self.0.insert(r, ty);
    }

    /// Returns a copy without `r` — used for the `χ \ q` well-formedness
    /// premise of the `call` rule.
    pub fn without(&self, r: Reg) -> Self {
        let mut m = self.0.clone();
        m.remove(&r);
        RegFileTy(m)
    }

    /// Iterates over the entries in register order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, &TTy)> {
        self.0.iter().map(|(r, t)| (*r, t))
    }
}

impl FromIterator<(Reg, TTy)> for RegFileTy {
    fn from_iter<I: IntoIterator<Item = (Reg, TTy)>>(iter: I) -> Self {
        RegFileTy(iter.into_iter().collect())
    }
}

/// The tail of a stack typing: either the concrete empty stack `•` or an
/// abstract stack variable `ζ`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StackTail {
    /// The empty stack `•` (written `*` in concrete syntax).
    Empty,
    /// An abstract tail `ζ`.
    Var(TyVar),
}

/// A stack typing `σ ::= ζ | • | τ :: σ`.
///
/// Slot 0 is the **top** of the stack, matching the paper's examples
/// (deviation note D6 in DESIGN.md).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StackTy {
    /// The visible prefix, top first.
    pub prefix: Vec<TTy>,
    /// The tail below the prefix.
    pub tail: StackTail,
}

impl StackTy {
    /// The concrete empty stack `•`.
    pub fn nil() -> Self {
        StackTy {
            prefix: Vec::new(),
            tail: StackTail::Empty,
        }
    }

    /// A bare abstract stack `ζ`.
    pub fn var(z: impl Into<TyVar>) -> Self {
        StackTy {
            prefix: Vec::new(),
            tail: StackTail::Var(z.into()),
        }
    }

    /// Pushes `ty` on top, returning the extended stack `τ :: σ`.
    pub fn cons(&self, ty: TTy) -> Self {
        let mut prefix = Vec::with_capacity(self.prefix.len() + 1);
        prefix.push(ty);
        prefix.extend(self.prefix.iter().cloned());
        StackTy {
            prefix,
            tail: self.tail.clone(),
        }
    }

    /// Pushes a whole prefix (given top-first) on top of `self`.
    pub fn cons_prefix(&self, phi: &[TTy]) -> Self {
        let mut prefix = Vec::with_capacity(self.prefix.len() + phi.len());
        prefix.extend(phi.iter().cloned());
        prefix.extend(self.prefix.iter().cloned());
        StackTy {
            prefix,
            tail: self.tail.clone(),
        }
    }

    /// The type of visible slot `i` (0 = top), if it is not hidden in the
    /// tail.
    pub fn get(&self, i: usize) -> Option<&TTy> {
        self.prefix.get(i)
    }

    /// The number of visible slots.
    pub fn visible_len(&self) -> usize {
        self.prefix.len()
    }

    /// Splits off the top `n` visible slots, returning `(front, rest)`.
    ///
    /// Returns `None` if fewer than `n` slots are visible.
    pub fn split(&self, n: usize) -> Option<(Vec<TTy>, StackTy)> {
        if n > self.prefix.len() {
            return None;
        }
        let front = self.prefix[..n].to_vec();
        let rest = StackTy {
            prefix: self.prefix[n..].to_vec(),
            tail: self.tail.clone(),
        };
        Some((front, rest))
    }

    /// Removes the top `n` visible slots in place and returns them, top
    /// first.
    ///
    /// Returns `None`, leaving `self` unchanged, if fewer than `n` slots
    /// are visible.
    pub fn pop_top(&mut self, n: usize) -> Option<Vec<TTy>> {
        (n <= self.prefix.len()).then(|| self.prefix.drain(..n).collect())
    }

    /// True when `self` is syntactically `tail` with an empty prefix.
    pub fn is_bare_tail(&self) -> bool {
        self.prefix.is_empty()
    }
}

/// Return markers `q` (Fig 1 and Fig 6).
///
/// A return marker specifies where the current return continuation is
/// stored, which in turn determines the result type of a component.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RetMarker {
    /// The continuation is in register `r`.
    Reg(Reg),
    /// The continuation is at stack slot `i` (0 = top).
    Stack(usize),
    /// An abstract marker `ε`.
    Var(TyVar),
    /// `end{τ;σ}`: the component finishes by halting with a value of type
    /// `τ` in a register and a stack of type `σ`. Inside a boundary this is
    /// where control transfers back to F.
    End {
        /// Result value type.
        ty: Box<TTy>,
        /// Stack type at the halt.
        sigma: StackTy,
    },
    /// `out`: the marker of F code, which returns by normal
    /// expression-based evaluation (Fig 6).
    Out,
}

impl RetMarker {
    /// Constructs `end{τ;σ}`.
    pub fn end(ty: TTy, sigma: StackTy) -> Self {
        RetMarker::End {
            ty: Box::new(ty),
            sigma,
        }
    }

    /// The paper's `inc(q, n)`: shifts a stack-index marker by `n` slots
    /// (used by `import` and the stack instructions); all other markers
    /// are unchanged.
    pub fn shifted_by(&self, delta: isize) -> RetMarker {
        match self {
            RetMarker::Stack(i) => {
                let j = (*i as isize) + delta;
                debug_assert!(j >= 0, "return-marker index underflow");
                RetMarker::Stack(j as usize)
            }
            other => other.clone(),
        }
    }
}

/// A type instantiation `ω ::= τ | σ | q` (Fig 1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Inst {
    /// Instantiate a `ty`-kinded variable.
    Ty(TTy),
    /// Instantiate a `stk`-kinded variable.
    Stack(StackTy),
    /// Instantiate a `ret`-kinded variable.
    Ret(RetMarker),
}

impl Inst {
    /// The kind of variable this instantiation can replace.
    pub fn kind(&self) -> Kind {
        match self {
            Inst::Ty(_) => Kind::Ty,
            Inst::Stack(_) => Kind::Stack,
            Inst::Ret(_) => Kind::Ret,
        }
    }
}

/// A heap typing `Ψ`: maps labels to `ν ψ` (mutability plus heap type).
///
/// Ψ is an input of every T judgment that never changes inside a
/// component, so the map sits behind an [`Arc`]: cloning a typing is a
/// refcount bump, and [`insert`](HeapTyping::insert)/
/// [`extend`](HeapTyping::extend) copy the map only when it is shared.
/// Each heap type is an [`Arc`] too, so such a copy, and the type
/// [`loc_ty`](HeapTyping::loc_ty) hands out for a boxed label, share the
/// entries instead of cloning them.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HeapTyping(Arc<BTreeMap<Label, (Mutability, Arc<HeapTy>)>>);

impl HeapTyping {
    /// The empty heap typing.
    pub fn new() -> Self {
        HeapTyping::default()
    }

    /// Looks up a label.
    pub fn get(&self, l: &Label) -> Option<&(Mutability, Arc<HeapTy>)> {
        self.0.get(l)
    }

    /// Inserts a binding, returning any previous entry.
    pub fn insert(
        &mut self,
        l: Label,
        m: Mutability,
        ty: impl Into<Arc<HeapTy>>,
    ) -> Option<(Mutability, Arc<HeapTy>)> {
        Arc::make_mut(&mut self.0).insert(l, (m, ty.into()))
    }

    /// Merges `other` into `self` (right-biased).
    pub fn extend(&mut self, other: &HeapTyping) {
        if self.0.is_empty() {
            self.0 = other.0.clone();
        } else if !other.0.is_empty() {
            let map = Arc::make_mut(&mut self.0);
            for (l, v) in other.iter() {
                map.insert(l.clone(), v.clone());
            }
        }
    }

    /// The word-value type of a location with this heap binding:
    /// `ref ⟨τ̄⟩` for mutable tuples, `box ψ` otherwise.
    pub fn loc_ty(&self, l: &Label) -> Option<TTy> {
        let (m, h) = self.get(l)?;
        Some(match (m, &**h) {
            (Mutability::Ref, HeapTy::Tuple(ts)) => TTy::Ref(ts.clone()),
            _ => TTy::Boxed(Arc::clone(h)),
        })
    }

    /// Iterates over entries in label order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Label, &(Mutability, Arc<HeapTy>))> {
        self.0.iter()
    }
}

/// F types `τ` (Fig 5 plus the stack-modifying arrow of Fig 6).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FTy {
    /// A type variable `α`.
    Var(TyVar),
    /// `unit`.
    Unit,
    /// `int`.
    Int,
    /// `(τ̄) → τ'` or the stack-modifying `(τ̄) φi;φo → τ'`.
    ///
    /// An ordinary arrow is represented with empty `phi_in`/`phi_out`
    /// (the paper notes the ordinary lambda is the special case where
    /// both prefixes are empty).
    Arrow {
        /// Parameter types.
        params: Vec<FTy>,
        /// Stack prefix `φi` required on call (top first).
        phi_in: Vec<TTy>,
        /// Stack prefix `φo` left on return (top first).
        phi_out: Vec<TTy>,
        /// Result type.
        ret: Box<FTy>,
    },
    /// An iso-recursive type `µα.τ`.
    Rec(TyVar, Box<FTy>),
    /// A tuple `⟨τ̄⟩`.
    Tuple(Vec<FTy>),
}

impl FTy {
    /// Convenience constructor for an ordinary arrow `(params) → ret`.
    pub fn arrow(params: Vec<FTy>, ret: FTy) -> FTy {
        FTy::Arrow {
            params,
            phi_in: Vec::new(),
            phi_out: Vec::new(),
            ret: Box::new(ret),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_cons_stack() -> StackTy {
        StackTy::nil().cons(TTy::Int)
    }

    #[test]
    fn stack_cons_puts_new_slot_on_top() {
        let s = int_cons_stack().cons(TTy::Unit);
        assert_eq!(s.get(0), Some(&TTy::Unit));
        assert_eq!(s.get(1), Some(&TTy::Int));
        assert_eq!(s.get(2), None);
    }

    #[test]
    fn stack_split_takes_the_top_slots() {
        let z = StackTy::var("z");
        let s = z.cons(TTy::Int).cons(TTy::Unit);
        let (front, rest) = s.split(1).unwrap();
        assert_eq!(front, vec![TTy::Unit]);
        assert_eq!(rest.prefix, vec![TTy::Int]);
        assert!(s.split(3).is_none());
    }

    #[test]
    fn marker_shift_only_affects_stack_indices() {
        assert_eq!(RetMarker::Stack(2).shifted_by(3), RetMarker::Stack(5));
        assert_eq!(
            RetMarker::Reg(Reg::Ra).shifted_by(3),
            RetMarker::Reg(Reg::Ra)
        );
        assert_eq!(RetMarker::Out.shifted_by(-1), RetMarker::Out);
    }

    #[test]
    fn regfile_insert_rebinds() {
        let mut chi = RegFileTy::new();
        assert!(chi.get(Reg::R1).is_none());
        chi.insert(Reg::R1, TTy::Int);
        assert_eq!(chi.get(Reg::R1), Some(&TTy::Int));
        chi.insert(Reg::R1, TTy::Unit);
        assert_eq!(chi.get(Reg::R1), Some(&TTy::Unit));
    }

    #[test]
    fn loc_ty_distinguishes_ref_and_box() {
        let mut psi = HeapTyping::new();
        psi.insert(
            Label::new("a"),
            Mutability::Ref,
            HeapTy::Tuple(vec![TTy::Int]),
        );
        psi.insert(
            Label::new("b"),
            Mutability::Boxed,
            HeapTy::Tuple(vec![TTy::Int]),
        );
        assert_eq!(psi.loc_ty(&Label::new("a")), Some(TTy::Ref(vec![TTy::Int])));
        assert_eq!(
            psi.loc_ty(&Label::new("b")),
            Some(TTy::boxed_tuple(vec![TTy::Int]))
        );
    }
}
