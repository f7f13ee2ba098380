//! Capture-avoiding substitution of type instantiations `ω ::= τ | σ | q`
//! for type variables, and of F values for F term variables.
//!
//! Type substitution instantiates types only: polymorphic code types
//! at `jmp u[ω̄]` and `call u {σ0, q}`, `unpack`ed existentials and
//! unrolled recursive types. The machines erase types, so no type
//! substitution reaches a term.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::free::{ftv_inst, fv_fexpr};
use crate::ids::{fresh_tyvar, fresh_varname, TyVar, VarName};
use crate::term::{CodeBlock, FExpr, HeapVal, Instr, InstrSeq, Lam, TComp};
use crate::ty::{
    CodeTy, HeapTy, Inst, Kind, RegFileTy, RetMarker, StackTail, StackTy, TTy, TyVarDecl,
};

/// A finite substitution from type variables to instantiations.
#[derive(Clone, Debug, Default)]
pub struct Subst {
    map: BTreeMap<TyVar, Inst>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    /// The singleton substitution `[ω/v]`.
    pub fn one(v: impl Into<TyVar>, inst: Inst) -> Self {
        let mut map = BTreeMap::new();
        map.insert(v.into(), inst);
        Subst { map }
    }

    /// Builds a substitution from pairs; later pairs overwrite earlier.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (TyVar, Inst)>) -> Self {
        Subst {
            map: pairs.into_iter().collect(),
        }
    }

    /// Adds a binding.
    pub fn insert(&mut self, v: impl Into<TyVar>, inst: Inst) {
        self.map.insert(v.into(), inst);
    }

    /// True if the substitution has no effect.
    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn lookup(&self, v: &TyVar) -> Option<&Inst> {
        self.map.get(v)
    }

    /// All variables free in the substitution's range.
    fn range_ftv(&self) -> BTreeSet<TyVar> {
        let mut out = BTreeSet::new();
        for inst in self.map.values() {
            out.extend(ftv_inst(inst));
        }
        out
    }

    /// Prepares to descend under a binder of variable `v` with kind
    /// `kind`: removes a shadowed binding and renames the binder when it
    /// would capture a variable free in the substitution's range.
    ///
    /// Returns the substitution to apply to the body and the (possibly
    /// renamed) binder, or `None` when the binder is neither in the
    /// domain nor free in the range: then `self` and `v` apply unchanged.
    fn under_binder(&self, v: &TyVar, kind: Kind) -> Option<(Subst, TyVar)> {
        if !self.map.contains_key(v) && !self.range_ftv().contains(v) {
            return None;
        }
        let mut inner = self.clone();
        inner.map.remove(v);
        if inner.map.is_empty() {
            return Some((inner, v.clone()));
        }
        let range = inner.range_ftv();
        if !range.contains(v) {
            return Some((inner, v.clone()));
        }
        let fresh = fresh_tyvar(v, |cand| {
            range.contains(cand) || inner.map.contains_key(cand)
        });
        let rename = match kind {
            Kind::Ty => Inst::Ty(TTy::Var(fresh.clone())),
            Kind::Stack => Inst::Stack(StackTy::var(fresh.clone())),
            Kind::Ret => Inst::Ret(RetMarker::Var(fresh.clone())),
        };
        inner.map.insert(v.clone(), rename);
        Some((inner, fresh))
    }

    /// Applies `f` under a binder of `v` (see
    /// [`under_binder`](Subst::under_binder)), returning the binder to
    /// use and `f`'s result.
    fn under<R>(&self, v: &TyVar, kind: Kind, f: impl FnOnce(&Subst) -> R) -> (TyVar, R) {
        match self.under_binder(v, kind) {
            Some((inner, v2)) => (v2, f(&inner)),
            None => (v.clone(), f(self)),
        }
    }

    /// Descends under a `∀[∆]` prefix, binder by binder: returns the
    /// (possibly renamed) binders and the substitution for the body,
    /// `None` meaning `self` applies unchanged.
    fn under_binders(&self, decls: &[TyVarDecl]) -> (Vec<TyVarDecl>, Option<Subst>) {
        let mut inner: Option<Subst> = None;
        let mut out = Vec::with_capacity(decls.len());
        for d in decls {
            let cur = inner.as_ref().unwrap_or(self);
            let var = match cur.under_binder(&d.var, d.kind) {
                Some((s2, v2)) => {
                    inner = Some(s2);
                    v2
                }
                None => d.var.clone(),
            };
            out.push(TyVarDecl { var, kind: d.kind });
        }
        (out, inner)
    }

    /// Applies the substitution to a T value type.
    pub fn tty(&self, t: &TTy) -> TTy {
        if self.is_empty() {
            return t.clone();
        }
        match t {
            TTy::Var(v) => match self.lookup(v) {
                None => t.clone(),
                Some(Inst::Ty(t2)) => t2.clone(),
                Some(other) => panic!("kind error: substituting {other:?} for type variable {v}"),
            },
            TTy::Unit | TTy::Int => t.clone(),
            TTy::Exists(v, body) => {
                let (v2, body) = self.under(v, Kind::Ty, |s| s.tty(body));
                TTy::Exists(v2, Box::new(body))
            }
            TTy::Rec(v, body) => {
                let (v2, body) = self.under(v, Kind::Ty, |s| s.tty(body));
                TTy::Rec(v2, Box::new(body))
            }
            TTy::Ref(ts) => TTy::Ref(ts.iter().map(|t| self.tty(t)).collect()),
            TTy::Boxed(h) => TTy::Boxed(Arc::new(self.heap_ty(h))),
        }
    }

    /// Applies the substitution to a heap type.
    pub(crate) fn heap_ty(&self, h: &HeapTy) -> HeapTy {
        match h {
            HeapTy::Tuple(ts) => HeapTy::Tuple(ts.iter().map(|t| self.tty(t)).collect()),
            HeapTy::Code(c) => HeapTy::Code(self.code_ty(c)),
        }
    }

    /// Applies the substitution to a code type (respecting its `∀[∆]`
    /// binders).
    pub(crate) fn code_ty(&self, c: &CodeTy) -> CodeTy {
        let (delta, inner) = self.under_binders(&c.delta);
        let s = inner.as_ref().unwrap_or(self);
        CodeTy {
            delta,
            chi: s.chi(&c.chi),
            sigma: s.stack(&c.sigma),
            q: s.ret(&c.q),
        }
    }

    /// Applies the substitution to a register-file typing.
    pub fn chi(&self, chi: &RegFileTy) -> RegFileTy {
        chi.iter().map(|(r, t)| (r, self.tty(t))).collect()
    }

    /// Applies the substitution to a stack typing. Substituting a stack
    /// for an abstract tail splices the replacement in:
    /// `(τ :: ζ)[σ0/ζ] = τ :: σ0`.
    pub fn stack(&self, s: &StackTy) -> StackTy {
        let prefix: Vec<TTy> = s.prefix.iter().map(|t| self.tty(t)).collect();
        match &s.tail {
            StackTail::Empty => StackTy {
                prefix,
                tail: StackTail::Empty,
            },
            StackTail::Var(v) => match self.lookup(v) {
                None => StackTy {
                    prefix,
                    tail: StackTail::Var(v.clone()),
                },
                Some(Inst::Stack(rep)) => {
                    let mut prefix = prefix;
                    prefix.extend(rep.prefix.iter().cloned());
                    StackTy {
                        prefix,
                        tail: rep.tail.clone(),
                    }
                }
                Some(other) => panic!("kind error: substituting {other:?} for stack variable {v}"),
            },
        }
    }

    /// Applies the substitution to a return marker.
    pub fn ret(&self, q: &RetMarker) -> RetMarker {
        match q {
            RetMarker::Reg(_) | RetMarker::Stack(_) | RetMarker::Out => q.clone(),
            RetMarker::Var(v) => match self.lookup(v) {
                None => q.clone(),
                Some(Inst::Ret(q2)) => q2.clone(),
                Some(other) => {
                    panic!("kind error: substituting {other:?} for return-marker variable {v}")
                }
            },
            RetMarker::End { ty, sigma } => RetMarker::End {
                ty: Box::new(self.tty(ty)),
                sigma: self.stack(sigma),
            },
        }
    }

    /// Applies the substitution to an instantiation.
    pub fn inst(&self, i: &Inst) -> Inst {
        match i {
            Inst::Ty(t) => Inst::Ty(self.tty(t)),
            Inst::Stack(s) => Inst::Stack(self.stack(s)),
            Inst::Ret(q) => Inst::Ret(self.ret(q)),
        }
    }
}

// ---------------------------------------------------------------------
// F term-variable substitution (β-reduction).
// ---------------------------------------------------------------------

/// Substitutes F expressions for free term variables in `e`,
/// capture-avoidingly.
pub fn subst_fvars(e: &FExpr, map: &BTreeMap<VarName, FExpr>) -> FExpr {
    if map.is_empty() {
        return e.clone();
    }
    match e {
        FExpr::Var(x) => map.get(x).cloned().unwrap_or_else(|| e.clone()),
        FExpr::Unit | FExpr::Int(_) => e.clone(),
        FExpr::Binop { op, lhs, rhs } => FExpr::Binop {
            op: *op,
            lhs: Box::new(subst_fvars(lhs, map)),
            rhs: Box::new(subst_fvars(rhs, map)),
        },
        FExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => FExpr::If0 {
            cond: Box::new(subst_fvars(cond, map)),
            then_branch: Box::new(subst_fvars(then_branch, map)),
            else_branch: Box::new(subst_fvars(else_branch, map)),
        },
        FExpr::Lam(lam) => {
            // Drop shadowed bindings.
            let mut inner: BTreeMap<VarName, FExpr> = map
                .iter()
                .filter(|(k, _)| !lam.params.iter().any(|(p, _)| p == *k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            if inner.is_empty() {
                return e.clone();
            }
            // Rename parameters captured by the substitution range.
            let mut range_fv: BTreeSet<VarName> = BTreeSet::new();
            for v in inner.values() {
                range_fv.extend(fv_fexpr(v));
            }
            let mut params = lam.params.clone();
            let mut body = lam.body.clone();
            for (p, _) in params.iter_mut() {
                if range_fv.contains(p) {
                    let fresh = fresh_varname(p, |cand| {
                        range_fv.contains(cand)
                            || inner.contains_key(cand)
                            || lam.params.iter().any(|(q, _)| q == cand)
                    });
                    let mut rename = BTreeMap::new();
                    rename.insert(p.clone(), FExpr::Var(fresh.clone()));
                    body = subst_fvars(&body, &rename);
                    inner.remove(p);
                    *p = fresh;
                }
            }
            FExpr::Lam(Box::new(Lam {
                params,
                zeta: lam.zeta.clone(),
                phi_in: lam.phi_in.clone(),
                phi_out: lam.phi_out.clone(),
                body: subst_fvars(&body, &inner),
            }))
        }
        FExpr::App { func, args } => FExpr::App {
            func: Box::new(subst_fvars(func, map)),
            args: args.iter().map(|a| subst_fvars(a, map)).collect(),
        },
        FExpr::Fold { ann, body } => FExpr::Fold {
            ann: ann.clone(),
            body: Box::new(subst_fvars(body, map)),
        },
        FExpr::Unfold(body) => FExpr::Unfold(Box::new(subst_fvars(body, map))),
        FExpr::Tuple(es) => FExpr::Tuple(es.iter().map(|e| subst_fvars(e, map)).collect()),
        FExpr::Proj { idx, tuple } => FExpr::Proj {
            idx: *idx,
            tuple: Box::new(subst_fvars(tuple, map)),
        },
        FExpr::Boundary {
            ty,
            sigma_out,
            comp,
        } => FExpr::Boundary {
            ty: ty.clone(),
            sigma_out: sigma_out.clone(),
            comp: Box::new(subst_fvars_tcomp(comp, map)),
        },
    }
}

/// Substitutes F expressions for free term variables inside a T component
/// (reaching `import` bodies).
pub(crate) fn subst_fvars_tcomp(c: &TComp, map: &BTreeMap<VarName, FExpr>) -> TComp {
    if map.is_empty() {
        return c.clone();
    }
    TComp {
        seq: subst_fvars_seq(&c.seq, map),
        heap: c
            .heap
            .iter()
            .map(|(l, hv)| {
                let hv2 = match hv {
                    HeapVal::Code(b) => HeapVal::Code(CodeBlock {
                        body: subst_fvars_seq(&b.body, map),
                        ..b.clone()
                    }),
                    other => other.clone(),
                };
                (l.clone(), hv2)
            })
            .collect(),
    }
}

/// Substitutes F expressions for free term variables inside an
/// instruction sequence (reaching `import` bodies).
pub fn subst_fvars_seq(seq: &InstrSeq, map: &BTreeMap<VarName, FExpr>) -> InstrSeq {
    let instrs = seq
        .instrs
        .iter()
        .map(|i| match i {
            Instr::Import {
                rd,
                zeta,
                protected,
                ty,
                body,
            } => Instr::Import {
                rd: *rd,
                zeta: zeta.clone(),
                protected: protected.clone(),
                ty: ty.clone(),
                body: Box::new(subst_fvars(body, map)),
            },
            other => other.clone(),
        })
        .collect();
    InstrSeq::new(instrs, seq.term.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Reg;
    use crate::ty::FTy;

    fn z() -> TyVar {
        TyVar::new("z")
    }

    #[test]
    fn stack_tail_substitution_splices() {
        let s = StackTy::var(z()).cons(TTy::Int);
        let rep = StackTy::nil().cons(TTy::Unit);
        let out = Subst::one(z(), Inst::Stack(rep)).stack(&s);
        assert_eq!(out.prefix, vec![TTy::Int, TTy::Unit]);
        assert_eq!(out.tail, StackTail::Empty);
    }

    #[test]
    fn shadowed_binder_is_untouched() {
        let t = TTy::Rec(TyVar::new("a"), Box::new(TTy::Var(TyVar::new("a"))));
        let out = Subst::one(TyVar::new("a"), Inst::Ty(TTy::Int)).tty(&t);
        assert_eq!(out, t);
    }

    #[test]
    fn binder_renamed_to_avoid_capture() {
        // (µ b. a)[b/a] must NOT capture: result is µ b#1. b.
        let t = TTy::Rec(TyVar::new("b"), Box::new(TTy::Var(TyVar::new("a"))));
        let out = Subst::one(TyVar::new("a"), Inst::Ty(TTy::Var(TyVar::new("b")))).tty(&t);
        match out {
            TTy::Rec(b2, body) => {
                assert_ne!(b2, TyVar::new("b"));
                assert_eq!(*body, TTy::Var(TyVar::new("b")));
            }
            _ => panic!("expected Rec"),
        }
    }

    #[test]
    fn ret_marker_substitution() {
        let q = RetMarker::Var(TyVar::new("e"));
        let out = Subst::one(TyVar::new("e"), Inst::Ret(RetMarker::Reg(Reg::Ra))).ret(&q);
        assert_eq!(out, RetMarker::Reg(Reg::Ra));
    }

    #[test]
    fn beta_substitution_capture_avoidance() {
        // (λ y. x) with x := y must rename the binder.
        let lam = FExpr::Lam(Box::new(Lam {
            params: vec![(VarName::new("y"), FTy::Int)],
            zeta: z(),
            phi_in: vec![],
            phi_out: vec![],
            body: FExpr::Var(VarName::new("x")),
        }));
        let mut map = BTreeMap::new();
        map.insert(VarName::new("x"), FExpr::Var(VarName::new("y")));
        let out = subst_fvars(&lam, &map);
        match out {
            FExpr::Lam(l) => {
                assert_ne!(l.params[0].0, VarName::new("y"));
                assert_eq!(l.body, FExpr::Var(VarName::new("y")));
            }
            _ => panic!("expected lambda"),
        }
    }

    #[test]
    fn code_ty_binders_respected() {
        // (∀[z:stk].{ ; z} ra)[int :: • / z] leaves the bound z alone.
        let c = CodeTy {
            delta: vec![crate::ty::TyVarDecl::stack("z")],
            chi: RegFileTy::new(),
            sigma: StackTy::var("z"),
            q: RetMarker::Reg(Reg::Ra),
        };
        let out = Subst::one(z(), Inst::Stack(StackTy::nil().cons(TTy::Int))).code_ty(&c);
        assert_eq!(out.sigma, StackTy::var("z"));
    }
}
