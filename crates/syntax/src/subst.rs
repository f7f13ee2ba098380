//! Capture-avoiding substitution of type instantiations `ω ::= τ | σ | q`
//! for type variables, and of F values for F term variables.
//!
//! Type substitution is the engine behind jumping to polymorphic code
//! blocks (`jmp u[ω̄]`, `call u {σ0, q}`), `unpack`, `protect`, and the
//! boundary translations.

use std::collections::{BTreeMap, BTreeSet};

use crate::free::{ftv_inst, fv_fexpr};
use crate::ids::{fresh_tyvar, fresh_varname, TyVar, VarName};
use crate::term::{
    CodeBlock, Component, FExpr, HeapFrag, HeapVal, Instr, InstrSeq, Lam, SmallVal, TComp,
    Terminator, WordVal,
};
use crate::ty::{CodeTy, FTy, HeapTy, Inst, Kind, RegFileTy, RetMarker, StackTail, StackTy, TTy};

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
    pub fn is_empty(&self) -> bool {
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
    /// renamed) binder.
    fn under_binder(&self, v: &TyVar, kind: Kind) -> (Subst, TyVar) {
        let mut inner = self.clone();
        inner.map.remove(v);
        if inner.map.is_empty() {
            return (inner, v.clone());
        }
        let range = inner.range_ftv();
        if !range.contains(v) {
            return (inner, v.clone());
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
        (inner, fresh)
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
                let (s, v2) = self.under_binder(v, Kind::Ty);
                TTy::Exists(v2, Box::new(s.tty(body)))
            }
            TTy::Rec(v, body) => {
                let (s, v2) = self.under_binder(v, Kind::Ty);
                TTy::Rec(v2, Box::new(s.tty(body)))
            }
            TTy::Ref(ts) => TTy::Ref(ts.iter().map(|t| self.tty(t)).collect()),
            TTy::Boxed(h) => TTy::Boxed(Box::new(self.heap_ty(h))),
        }
    }

    /// Applies the substitution to a heap type.
    pub fn heap_ty(&self, h: &HeapTy) -> HeapTy {
        match h {
            HeapTy::Tuple(ts) => HeapTy::Tuple(ts.iter().map(|t| self.tty(t)).collect()),
            HeapTy::Code(c) => HeapTy::Code(self.code_ty(c)),
        }
    }

    /// Applies the substitution to a code type (respecting its `∀[∆]`
    /// binders).
    pub fn code_ty(&self, c: &CodeTy) -> CodeTy {
        let mut s = self.clone();
        let mut delta = Vec::with_capacity(c.delta.len());
        for d in &c.delta {
            let (s2, v2) = s.under_binder(&d.var, d.kind);
            s = s2;
            delta.push(crate::ty::TyVarDecl {
                var: v2,
                kind: d.kind,
            });
        }
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

    /// Applies the substitution to an F type.
    pub fn fty(&self, t: &FTy) -> FTy {
        if self.is_empty() {
            return t.clone();
        }
        match t {
            FTy::Var(v) => match self.lookup(v) {
                None => t.clone(),
                Some(Inst::Ty(TTy::Var(v2))) => FTy::Var(v2.clone()),
                Some(other) => panic!(
                    "kind error: substituting {other:?} for F type variable {v} \
                     (only renamings reach F types)"
                ),
            },
            FTy::Unit | FTy::Int => t.clone(),
            FTy::Arrow {
                params,
                phi_in,
                phi_out,
                ret,
            } => FTy::Arrow {
                params: params.iter().map(|t| self.fty(t)).collect(),
                phi_in: phi_in.iter().map(|t| self.tty(t)).collect(),
                phi_out: phi_out.iter().map(|t| self.tty(t)).collect(),
                ret: Box::new(self.fty(ret)),
            },
            FTy::Rec(v, body) => {
                let (s, v2) = self.under_binder(v, Kind::Ty);
                FTy::Rec(v2, Box::new(s.fty(body)))
            }
            FTy::Tuple(ts) => FTy::Tuple(ts.iter().map(|t| self.fty(t)).collect()),
        }
    }

    /// Applies the substitution to a word value.
    pub fn word(&self, w: &WordVal) -> WordVal {
        match w {
            WordVal::Unit | WordVal::Int(_) | WordVal::Loc(_) => w.clone(),
            WordVal::Pack { hidden, body, ann } => WordVal::Pack {
                hidden: self.tty(hidden),
                body: Box::new(self.word(body)),
                ann: self.tty(ann),
            },
            WordVal::Fold { ann, body } => WordVal::Fold {
                ann: self.tty(ann),
                body: Box::new(self.word(body)),
            },
            WordVal::Inst { body, args } => WordVal::Inst {
                body: Box::new(self.word(body)),
                args: args.iter().map(|a| self.inst(a)).collect(),
            },
        }
    }

    /// Applies the substitution to a small value.
    pub fn small(&self, u: &SmallVal) -> SmallVal {
        match u {
            SmallVal::Reg(_) => u.clone(),
            SmallVal::Word(w) => SmallVal::Word(self.word(w)),
            SmallVal::Pack { hidden, body, ann } => SmallVal::Pack {
                hidden: self.tty(hidden),
                body: Box::new(self.small(body)),
                ann: self.tty(ann),
            },
            SmallVal::Fold { ann, body } => SmallVal::Fold {
                ann: self.tty(ann),
                body: Box::new(self.small(body)),
            },
            SmallVal::Inst { body, args } => SmallVal::Inst {
                body: Box::new(self.small(body)),
                args: args.iter().map(|a| self.inst(a)).collect(),
            },
        }
    }

    /// Applies the substitution to an instruction sequence, respecting
    /// the binders introduced by `unpack`, `protect`, and `import`.
    pub fn seq(&self, seq: &InstrSeq) -> InstrSeq {
        self.seq_parts(&seq.instrs, &seq.term)
    }

    fn seq_parts(&self, instrs: &[Instr], term: &Terminator) -> InstrSeq {
        if self.is_empty() {
            return InstrSeq::new(instrs.to_vec(), term.clone());
        }
        let Some((head, rest)) = instrs.split_first() else {
            return InstrSeq::just(self.terminator(term));
        };
        let (head2, inner) = match head {
            Instr::Arith { op, rd, rs, src } => (
                Instr::Arith {
                    op: *op,
                    rd: *rd,
                    rs: *rs,
                    src: self.small(src),
                },
                self.clone(),
            ),
            Instr::Bnz { r, target } => (
                Instr::Bnz {
                    r: *r,
                    target: self.small(target),
                },
                self.clone(),
            ),
            Instr::Mv { rd, src } => (
                Instr::Mv {
                    rd: *rd,
                    src: self.small(src),
                },
                self.clone(),
            ),
            Instr::Ld { .. }
            | Instr::St { .. }
            | Instr::Ralloc { .. }
            | Instr::Balloc { .. }
            | Instr::Salloc(_)
            | Instr::Sfree(_)
            | Instr::Sld { .. }
            | Instr::Sst { .. } => (head.clone(), self.clone()),
            Instr::Unfold { rd, src } => (
                Instr::Unfold {
                    rd: *rd,
                    src: self.small(src),
                },
                self.clone(),
            ),
            Instr::Unpack { tv, rd, src } => {
                let src2 = self.small(src);
                let (s, tv2) = self.under_binder(tv, Kind::Ty);
                (
                    Instr::Unpack {
                        tv: tv2,
                        rd: *rd,
                        src: src2,
                    },
                    s,
                )
            }
            Instr::Protect { phi, zeta } => {
                let phi2: Vec<TTy> = phi.iter().map(|t| self.tty(t)).collect();
                let (s, z2) = self.under_binder(zeta, Kind::Stack);
                (
                    Instr::Protect {
                        phi: phi2,
                        zeta: z2,
                    },
                    s,
                )
            }
            Instr::Import {
                rd,
                zeta,
                protected,
                ty,
                body,
            } => {
                let protected2 = self.stack(protected);
                let (s, z2) = self.under_binder(zeta, Kind::Stack);
                let ty2 = s.fty(ty);
                let body2 = s.fexpr(body);
                (
                    Instr::Import {
                        rd: *rd,
                        zeta: z2,
                        protected: protected2,
                        ty: ty2,
                        body: Box::new(body2),
                    },
                    // `import`'s binder scopes only over the embedded
                    // expression, not the rest of the sequence.
                    self.clone(),
                )
            }
        };
        let mut out = inner.seq_parts(rest, term);
        out.instrs.insert(0, head2);
        out
    }

    /// Applies the substitution to a terminator.
    pub fn terminator(&self, t: &Terminator) -> Terminator {
        match t {
            Terminator::Jmp(u) => Terminator::Jmp(self.small(u)),
            Terminator::Call { target, sigma, q } => Terminator::Call {
                target: self.small(target),
                sigma: self.stack(sigma),
                q: self.ret(q),
            },
            Terminator::Ret { target, val } => Terminator::Ret {
                target: *target,
                val: *val,
            },
            Terminator::Halt { ty, sigma, val } => Terminator::Halt {
                ty: self.tty(ty),
                sigma: self.stack(sigma),
                val: *val,
            },
        }
    }

    /// Applies the substitution to a code block (respecting `∆`).
    pub fn block(&self, b: &CodeBlock) -> CodeBlock {
        let mut s = self.clone();
        let mut delta = Vec::with_capacity(b.delta.len());
        for d in &b.delta {
            let (s2, v2) = s.under_binder(&d.var, d.kind);
            s = s2;
            delta.push(crate::ty::TyVarDecl {
                var: v2,
                kind: d.kind,
            });
        }
        CodeBlock {
            delta,
            chi: s.chi(&b.chi),
            sigma: s.stack(&b.sigma),
            q: s.ret(&b.q),
            body: s.seq(&b.body),
        }
    }

    /// Applies the substitution to a heap value.
    pub fn heap_val(&self, h: &HeapVal) -> HeapVal {
        match h {
            HeapVal::Code(b) => HeapVal::Code(self.block(b)),
            HeapVal::Tuple { mutability, fields } => HeapVal::Tuple {
                mutability: *mutability,
                fields: fields.iter().map(|w| self.word(w)).collect(),
            },
        }
    }

    /// Applies the substitution to a heap fragment.
    pub fn heap_frag(&self, h: &HeapFrag) -> HeapFrag {
        h.iter()
            .map(|(l, v)| (l.clone(), self.heap_val(v)))
            .collect()
    }

    /// Applies the substitution to a T component.
    pub fn tcomp(&self, c: &TComp) -> TComp {
        TComp {
            seq: self.seq(&c.seq),
            heap: self.heap_frag(&c.heap),
        }
    }

    /// Applies the substitution to the type annotations of an F
    /// expression.
    pub fn fexpr(&self, e: &FExpr) -> FExpr {
        if self.is_empty() {
            return e.clone();
        }
        match e {
            FExpr::Var(_) | FExpr::Unit | FExpr::Int(_) => e.clone(),
            FExpr::Binop { op, lhs, rhs } => FExpr::Binop {
                op: *op,
                lhs: Box::new(self.fexpr(lhs)),
                rhs: Box::new(self.fexpr(rhs)),
            },
            FExpr::If0 {
                cond,
                then_branch,
                else_branch,
            } => FExpr::If0 {
                cond: Box::new(self.fexpr(cond)),
                then_branch: Box::new(self.fexpr(then_branch)),
                else_branch: Box::new(self.fexpr(else_branch)),
            },
            FExpr::Lam(lam) => {
                let params: Vec<(VarName, FTy)> = lam
                    .params
                    .iter()
                    .map(|(x, t)| (x.clone(), self.fty(t)))
                    .collect();
                let (s, z2) = self.under_binder(&lam.zeta, Kind::Stack);
                FExpr::Lam(Box::new(Lam {
                    params,
                    zeta: z2,
                    phi_in: lam.phi_in.iter().map(|t| s.tty(t)).collect(),
                    phi_out: lam.phi_out.iter().map(|t| s.tty(t)).collect(),
                    body: s.fexpr(&lam.body),
                }))
            }
            FExpr::App { func, args } => FExpr::App {
                func: Box::new(self.fexpr(func)),
                args: args.iter().map(|a| self.fexpr(a)).collect(),
            },
            FExpr::Fold { ann, body } => FExpr::Fold {
                ann: self.fty(ann),
                body: Box::new(self.fexpr(body)),
            },
            FExpr::Unfold(body) => FExpr::Unfold(Box::new(self.fexpr(body))),
            FExpr::Tuple(es) => FExpr::Tuple(es.iter().map(|e| self.fexpr(e)).collect()),
            FExpr::Proj { idx, tuple } => FExpr::Proj {
                idx: *idx,
                tuple: Box::new(self.fexpr(tuple)),
            },
            FExpr::Boundary {
                ty,
                sigma_out,
                comp,
            } => FExpr::Boundary {
                ty: self.fty(ty),
                sigma_out: sigma_out.as_ref().map(|s| self.stack(s)),
                comp: Box::new(self.tcomp(comp)),
            },
        }
    }

    /// Applies the substitution to a component.
    pub fn component(&self, c: &Component) -> Component {
        match c {
            Component::F(e) => Component::F(self.fexpr(e)),
            Component::T(t) => Component::T(self.tcomp(t)),
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
pub fn subst_fvars_tcomp(c: &TComp, map: &BTreeMap<VarName, FExpr>) -> TComp {
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
    fn unpack_binder_shadows_in_rest() {
        let seq = InstrSeq::new(
            vec![Instr::Unpack {
                tv: TyVar::new("a"),
                rd: Reg::R1,
                src: SmallVal::Reg(Reg::R2),
            }],
            Terminator::Halt {
                ty: TTy::Var(TyVar::new("a")),
                sigma: StackTy::nil(),
                val: Reg::R1,
            },
        );
        let out = Subst::one(TyVar::new("a"), Inst::Ty(TTy::Int)).seq(&seq);
        // The halt annotation still refers to the unpack-bound `a`.
        match &out.term {
            Terminator::Halt { ty, .. } => assert_eq!(ty, &TTy::Var(TyVar::new("a"))),
            _ => unreachable!(),
        }
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
