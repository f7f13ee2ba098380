//! Free-variable computation for types and terms.
//!
//! Used by capture-avoiding substitution ([`crate::subst`]) and by the
//! type checkers' well-formedness judgments (`∆ ⊢ τ`).

use std::collections::BTreeSet;

use crate::ids::{TyVar, VarName};
use crate::term::{
    CodeBlock, Component, FExpr, HeapFrag, HeapVal, Instr, InstrSeq, SmallVal, TComp, Terminator,
    WordVal,
};
use crate::ty::{CodeTy, FTy, HeapTy, Inst, RegFileTy, RetMarker, StackTail, StackTy, TTy};

/// A scope of bound type variables, used during traversal.
#[derive(Default)]
struct Scope(Vec<TyVar>);

impl Scope {
    fn contains(&self, v: &TyVar) -> bool {
        self.0.iter().any(|b| b == v)
    }

    fn with<R>(&mut self, v: &TyVar, f: impl FnOnce(&mut Self) -> R) -> R {
        self.0.push(v.clone());
        let r = f(self);
        self.0.pop();
        r
    }

    fn with_all<R>(&mut self, vs: &[TyVar], f: impl FnOnce(&mut Self) -> R) -> R {
        let n = vs.len();
        self.0.extend(vs.iter().cloned());
        let r = f(self);
        self.0.truncate(self.0.len() - n);
        r
    }
}

fn hit(v: &TyVar, scope: &Scope, out: &mut BTreeSet<TyVar>) {
    if !scope.contains(v) {
        out.insert(v.clone());
    }
}

fn go_tty(t: &TTy, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    match t {
        TTy::Var(v) => hit(v, scope, out),
        TTy::Unit | TTy::Int => {}
        TTy::Exists(v, body) | TTy::Rec(v, body) => {
            scope.with(v, |s| go_tty(body, s, out));
        }
        TTy::Ref(ts) => ts.iter().for_each(|t| go_tty(t, scope, out)),
        TTy::Boxed(h) => go_heap_ty(h, scope, out),
    }
}

fn go_heap_ty(h: &HeapTy, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    match h {
        HeapTy::Tuple(ts) => ts.iter().for_each(|t| go_tty(t, scope, out)),
        HeapTy::Code(c) => go_code_ty(c, scope, out),
    }
}

fn go_code_ty(c: &CodeTy, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    let bound: Vec<TyVar> = c.delta.iter().map(|d| d.var.clone()).collect();
    scope.with_all(&bound, |s| {
        go_chi(&c.chi, s, out);
        go_stack(&c.sigma, s, out);
        go_ret(&c.q, s, out);
    });
}

fn go_chi(chi: &RegFileTy, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    for (_, t) in chi.iter() {
        go_tty(t, scope, out);
    }
}

fn go_stack(s: &StackTy, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    for t in &s.prefix {
        go_tty(t, scope, out);
    }
    if let StackTail::Var(v) = &s.tail {
        hit(v, scope, out);
    }
}

fn go_ret(q: &RetMarker, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    match q {
        RetMarker::Reg(_) | RetMarker::Stack(_) | RetMarker::Out => {}
        RetMarker::Var(v) => hit(v, scope, out),
        RetMarker::End { ty, sigma } => {
            go_tty(ty, scope, out);
            go_stack(sigma, scope, out);
        }
    }
}

fn go_inst(i: &Inst, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    match i {
        Inst::Ty(t) => go_tty(t, scope, out),
        Inst::Stack(s) => go_stack(s, scope, out),
        Inst::Ret(q) => go_ret(q, scope, out),
    }
}

fn go_fty(t: &FTy, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    match t {
        FTy::Var(v) => hit(v, scope, out),
        FTy::Unit | FTy::Int => {}
        FTy::Arrow {
            params,
            phi_in,
            phi_out,
            ret,
        } => {
            params.iter().for_each(|t| go_fty(t, scope, out));
            phi_in.iter().for_each(|t| go_tty(t, scope, out));
            phi_out.iter().for_each(|t| go_tty(t, scope, out));
            go_fty(ret, scope, out);
        }
        FTy::Rec(v, body) => scope.with(v, |s| go_fty(body, s, out)),
        FTy::Tuple(ts) => ts.iter().for_each(|t| go_fty(t, scope, out)),
    }
}

fn go_word(w: &WordVal, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    match w {
        WordVal::Unit | WordVal::Int(_) | WordVal::Loc(_) => {}
        WordVal::Pack { hidden, body, ann } => {
            go_tty(hidden, scope, out);
            go_word(body, scope, out);
            go_tty(ann, scope, out);
        }
        WordVal::Fold { ann, body } => {
            go_tty(ann, scope, out);
            go_word(body, scope, out);
        }
        WordVal::Inst { body, args } => {
            go_word(body, scope, out);
            args.iter().for_each(|a| go_inst(a, scope, out));
        }
    }
}

fn go_small(u: &SmallVal, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    match u {
        SmallVal::Reg(_) => {}
        SmallVal::Word(w) => go_word(w, scope, out),
        SmallVal::Pack { hidden, body, ann } => {
            go_tty(hidden, scope, out);
            go_small(body, scope, out);
            go_tty(ann, scope, out);
        }
        SmallVal::Fold { ann, body } => {
            go_tty(ann, scope, out);
            go_small(body, scope, out);
        }
        SmallVal::Inst { body, args } => {
            go_small(body, scope, out);
            args.iter().for_each(|a| go_inst(a, scope, out));
        }
    }
}

/// Walks an instruction sequence. Binding instructions (`unpack`,
/// `protect`, `import`) scope over the *rest* of the sequence, so the
/// traversal is head-recursive over a slice.
fn go_seq(instrs: &[Instr], term: &Terminator, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    let Some((head, rest)) = instrs.split_first() else {
        go_term(term, scope, out);
        return;
    };
    match head {
        Instr::Arith { src, .. } | Instr::Mv { src, .. } | Instr::Bnz { target: src, .. } => {
            go_small(src, scope, out);
            go_seq(rest, term, scope, out);
        }
        Instr::Ld { .. }
        | Instr::St { .. }
        | Instr::Ralloc { .. }
        | Instr::Balloc { .. }
        | Instr::Salloc(_)
        | Instr::Sfree(_)
        | Instr::Sld { .. }
        | Instr::Sst { .. } => go_seq(rest, term, scope, out),
        Instr::Unpack { tv, src, .. } => {
            go_small(src, scope, out);
            scope.with(tv, |s| go_seq(rest, term, s, out));
        }
        Instr::Unfold { src, .. } => {
            go_small(src, scope, out);
            go_seq(rest, term, scope, out);
        }
        Instr::Protect { phi, zeta } => {
            phi.iter().for_each(|t| go_tty(t, scope, out));
            scope.with(zeta, |s| go_seq(rest, term, s, out));
        }
        Instr::Import {
            zeta,
            protected,
            ty,
            body,
            ..
        } => {
            go_stack(protected, scope, out);
            scope.with(zeta, |s| {
                go_fty(ty, s, out);
                go_fexpr_tys(body, s, out);
            });
            go_seq(rest, term, scope, out);
        }
    }
}

fn go_term(t: &Terminator, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    match t {
        Terminator::Jmp(u) => go_small(u, scope, out),
        Terminator::Call { target, sigma, q } => {
            go_small(target, scope, out);
            go_stack(sigma, scope, out);
            go_ret(q, scope, out);
        }
        Terminator::Ret { .. } => {}
        Terminator::Halt { ty, sigma, .. } => {
            go_tty(ty, scope, out);
            go_stack(sigma, scope, out);
        }
    }
}

fn go_block(b: &CodeBlock, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    let bound: Vec<TyVar> = b.delta.iter().map(|d| d.var.clone()).collect();
    scope.with_all(&bound, |s| {
        go_chi(&b.chi, s, out);
        go_stack(&b.sigma, s, out);
        go_ret(&b.q, s, out);
        go_seq(&b.body.instrs, &b.body.term, s, out);
    });
}

fn go_heap_val(h: &HeapVal, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    match h {
        HeapVal::Code(b) => go_block(b, scope, out),
        HeapVal::Tuple { fields, .. } => fields.iter().for_each(|w| go_word(w, scope, out)),
    }
}

fn go_heap_frag(h: &HeapFrag, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    for (_, v) in h.iter() {
        go_heap_val(v, scope, out);
    }
}

fn go_tcomp(c: &TComp, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    go_seq(&c.seq.instrs, &c.seq.term, scope, out);
    go_heap_frag(&c.heap, scope, out);
}

fn go_fexpr_tys(e: &FExpr, scope: &mut Scope, out: &mut BTreeSet<TyVar>) {
    match e {
        FExpr::Var(_) | FExpr::Unit | FExpr::Int(_) => {}
        FExpr::Binop { lhs, rhs, .. } => {
            go_fexpr_tys(lhs, scope, out);
            go_fexpr_tys(rhs, scope, out);
        }
        FExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => {
            go_fexpr_tys(cond, scope, out);
            go_fexpr_tys(then_branch, scope, out);
            go_fexpr_tys(else_branch, scope, out);
        }
        FExpr::Lam(lam) => {
            for (_, t) in &lam.params {
                go_fty(t, scope, out);
            }
            scope.with(&lam.zeta, |s| {
                lam.phi_in.iter().for_each(|t| go_tty(t, s, out));
                lam.phi_out.iter().for_each(|t| go_tty(t, s, out));
                go_fexpr_tys(&lam.body, s, out);
            });
        }
        FExpr::App { func, args } => {
            go_fexpr_tys(func, scope, out);
            args.iter().for_each(|a| go_fexpr_tys(a, scope, out));
        }
        FExpr::Fold { ann, body } => {
            go_fty(ann, scope, out);
            go_fexpr_tys(body, scope, out);
        }
        FExpr::Unfold(body) => go_fexpr_tys(body, scope, out),
        FExpr::Tuple(es) => es.iter().for_each(|e| go_fexpr_tys(e, scope, out)),
        FExpr::Proj { tuple, .. } => go_fexpr_tys(tuple, scope, out),
        FExpr::Boundary {
            ty,
            sigma_out,
            comp,
        } => {
            go_fty(ty, scope, out);
            if let Some(s) = sigma_out {
                go_stack(s, scope, out);
            }
            go_tcomp(comp, scope, out);
        }
    }
}

macro_rules! ftv_fn {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $go:ident) => {
        $(#[$doc])*
        pub fn $name(x: &$ty) -> BTreeSet<TyVar> {
            let mut out = BTreeSet::new();
            $go(x, &mut Scope::default(), &mut out);
            out
        }
    };
}

ftv_fn!(
    /// Free type variables of a T value type.
    ftv_tty, TTy, go_tty
);
ftv_fn!(
    /// Free type variables of a heap type.
    ftv_heap_ty, HeapTy, go_heap_ty
);
ftv_fn!(
    /// Free type variables of a stack typing.
    ftv_stack, StackTy, go_stack
);
ftv_fn!(
    /// Free type variables of a return marker.
    ftv_ret, RetMarker, go_ret
);
ftv_fn!(
    /// Free type variables of a register-file typing.
    ftv_chi, RegFileTy, go_chi
);
ftv_fn!(
    /// Free type variables of an F type.
    ftv_fty, FTy, go_fty
);
ftv_fn!(
    /// Free type variables of an instantiation.
    ftv_inst, Inst, go_inst
);
ftv_fn!(
    /// Free type variables of a word value.
    ftv_word, WordVal, go_word
);
ftv_fn!(
    /// Free type variables of a small value.
    ftv_small, SmallVal, go_small
);
ftv_fn!(
    /// Free type variables of a T component.
    ftv_tcomp, TComp, go_tcomp
);
ftv_fn!(
    /// Free type variables (in annotations) of an F expression.
    ftv_fexpr, FExpr, go_fexpr_tys
);

/// Free type variables of an instruction sequence.
pub fn ftv_seq(seq: &InstrSeq) -> BTreeSet<TyVar> {
    let mut out = BTreeSet::new();
    go_seq(&seq.instrs, &seq.term, &mut Scope::default(), &mut out);
    out
}

/// Free type variables of a component.
pub fn ftv_component(c: &Component) -> BTreeSet<TyVar> {
    match c {
        Component::F(e) => ftv_fexpr(e),
        Component::T(t) => ftv_tcomp(t),
    }
}

// ---------------------------------------------------------------------
// Free *term* variables of F expressions.
// ---------------------------------------------------------------------

fn go_fv(e: &FExpr, scope: &mut Vec<VarName>, out: &mut BTreeSet<VarName>) {
    match e {
        FExpr::Var(x) => {
            if !scope.iter().any(|b| b == x) {
                out.insert(x.clone());
            }
        }
        FExpr::Unit | FExpr::Int(_) => {}
        FExpr::Binop { lhs, rhs, .. } => {
            go_fv(lhs, scope, out);
            go_fv(rhs, scope, out);
        }
        FExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => {
            go_fv(cond, scope, out);
            go_fv(then_branch, scope, out);
            go_fv(else_branch, scope, out);
        }
        FExpr::Lam(lam) => {
            let n = lam.params.len();
            scope.extend(lam.params.iter().map(|(x, _)| x.clone()));
            go_fv(&lam.body, scope, out);
            scope.truncate(scope.len() - n);
        }
        FExpr::App { func, args } => {
            go_fv(func, scope, out);
            args.iter().for_each(|a| go_fv(a, scope, out));
        }
        FExpr::Fold { body, .. } => go_fv(body, scope, out),
        FExpr::Unfold(body) => go_fv(body, scope, out),
        FExpr::Tuple(es) => es.iter().for_each(|e| go_fv(e, scope, out)),
        FExpr::Proj { tuple, .. } => go_fv(tuple, scope, out),
        FExpr::Boundary { comp, .. } => go_fv_tcomp(comp, scope, out),
    }
}

fn go_fv_tcomp(c: &TComp, scope: &mut Vec<VarName>, out: &mut BTreeSet<VarName>) {
    go_fv_seq(&c.seq, scope, out);
    for (_, hv) in c.heap.iter() {
        if let HeapVal::Code(b) = hv {
            go_fv_seq(&b.body, scope, out);
        }
    }
}

fn go_fv_seq(seq: &InstrSeq, scope: &mut Vec<VarName>, out: &mut BTreeSet<VarName>) {
    for i in &seq.instrs {
        if let Instr::Import { body, .. } = i {
            go_fv(body, scope, out);
        }
    }
}

/// Free F term variables of an expression (looking through boundaries and
/// `import` instructions).
pub fn fv_fexpr(e: &FExpr) -> BTreeSet<VarName> {
    let mut out = BTreeSet::new();
    go_fv(e, &mut Vec::new(), &mut out);
    out
}

/// Free F term variables of a T component.
pub fn fv_tcomp(c: &TComp) -> BTreeSet<VarName> {
    let mut out = BTreeSet::new();
    go_fv_tcomp(c, &mut Vec::new(), &mut out);
    out
}

/// Free F term variables of a heap value (inside `import` bodies of
/// code blocks).
pub fn fv_heap_val(h: &HeapVal) -> BTreeSet<VarName> {
    let mut out = BTreeSet::new();
    if let HeapVal::Code(b) = h {
        go_fv_seq(&b.body, &mut Vec::new(), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Reg;

    #[test]
    fn tty_binders_hide_variables() {
        let t = TTy::Rec(TyVar::new("a"), Box::new(TTy::Var(TyVar::new("a"))));
        assert!(ftv_tty(&t).is_empty());
        let open = TTy::Rec(TyVar::new("a"), Box::new(TTy::Var(TyVar::new("b"))));
        assert_eq!(
            ftv_tty(&open).into_iter().collect::<Vec<_>>(),
            vec![TyVar::new("b")]
        );
    }

    #[test]
    fn code_type_delta_binds() {
        let c = TTy::code(
            vec![crate::ty::TyVarDecl::stack("z")],
            RegFileTy::new(),
            StackTy::var("z"),
            RetMarker::Reg(Reg::Ra),
        );
        assert!(ftv_tty(&c).is_empty());
        let open = TTy::code(
            vec![],
            RegFileTy::new(),
            StackTy::var("z"),
            RetMarker::Var(TyVar::new("e")),
        );
        let fv = ftv_tty(&open);
        assert!(fv.contains(&TyVar::new("z")) && fv.contains(&TyVar::new("e")));
    }

    #[test]
    fn unpack_scopes_over_rest_of_sequence() {
        use crate::term::*;
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
        assert!(ftv_seq(&seq).is_empty());
        // Without the unpack, `a` is free.
        let seq2 = InstrSeq::just(Terminator::Halt {
            ty: TTy::Var(TyVar::new("a")),
            sigma: StackTy::nil(),
            val: Reg::R1,
        });
        assert!(ftv_seq(&seq2).contains(&TyVar::new("a")));
    }

    #[test]
    fn lambda_params_bound_in_body() {
        use crate::term::*;
        let lam = FExpr::Lam(Box::new(Lam {
            params: vec![(VarName::new("x"), FTy::Int)],
            zeta: TyVar::new("z"),
            phi_in: vec![],
            phi_out: vec![],
            body: FExpr::binop(
                ArithOp::Add,
                FExpr::Var(VarName::new("x")),
                FExpr::Var(VarName::new("y")),
            ),
        }));
        let fv = fv_fexpr(&lam);
        assert!(!fv.contains(&VarName::new("x")));
        assert!(fv.contains(&VarName::new("y")));
    }
}
