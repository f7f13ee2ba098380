//! Alpha-equivalence for types, terms, and components.
//!
//! The type checkers compare types up to renaming of bound variables;
//! heap labels and registers are nominal and must match exactly.

use crate::ids::{TyVar, VarName};
use crate::term::{
    CodeBlock, FExpr, HeapFrag, HeapVal, Instr, InstrSeq, SmallVal, TComp, Terminator, WordVal,
};
use crate::ty::{CodeTy, FTy, HeapTy, Inst, RegFileTy, RetMarker, StackTail, StackTy, TTy};

/// A stack of corresponding binder pairs.
#[derive(Default)]
struct Env {
    tys: Vec<(TyVar, TyVar)>,
    terms: Vec<(VarName, VarName)>,
}

impl Env {
    /// Two variables correspond iff their most recent bindings pair them
    /// up, or neither is bound and they are literally equal.
    fn eq_tyvar(&self, a: &TyVar, b: &TyVar) -> bool {
        for (x, y) in self.tys.iter().rev() {
            match (x == a, y == b) {
                (true, true) => return true,
                (false, false) => continue,
                _ => return false,
            }
        }
        a == b
    }

    fn eq_varname(&self, a: &VarName, b: &VarName) -> bool {
        for (x, y) in self.terms.iter().rev() {
            match (x == a, y == b) {
                (true, true) => return true,
                (false, false) => continue,
                _ => return false,
            }
        }
        a == b
    }

    fn with_ty<R>(&mut self, a: &TyVar, b: &TyVar, f: impl FnOnce(&mut Self) -> R) -> R {
        self.tys.push((a.clone(), b.clone()));
        let r = f(self);
        self.tys.pop();
        r
    }

    fn with_terms<R>(&mut self, pairs: &[(VarName, VarName)], f: impl FnOnce(&mut Self) -> R) -> R {
        let n = pairs.len();
        self.terms.extend(pairs.iter().cloned());
        let r = f(self);
        self.terms.truncate(self.terms.len() - n);
        r
    }
}

fn eq_tty(a: &TTy, b: &TTy, env: &mut Env) -> bool {
    match (a, b) {
        (TTy::Var(x), TTy::Var(y)) => env.eq_tyvar(x, y),
        (TTy::Unit, TTy::Unit) | (TTy::Int, TTy::Int) => true,
        (TTy::Exists(x, s), TTy::Exists(y, t)) | (TTy::Rec(x, s), TTy::Rec(y, t)) => {
            env.with_ty(x, y, |e| eq_tty(s, t, e))
        }
        (TTy::Ref(xs), TTy::Ref(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(s, t)| eq_tty(s, t, env))
        }
        (TTy::Boxed(x), TTy::Boxed(y)) => eq_heap_ty(x, y, env),
        _ => false,
    }
}

fn eq_heap_ty(a: &HeapTy, b: &HeapTy, env: &mut Env) -> bool {
    match (a, b) {
        (HeapTy::Tuple(xs), HeapTy::Tuple(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(s, t)| eq_tty(s, t, env))
        }
        (HeapTy::Code(x), HeapTy::Code(y)) => eq_code_ty(x, y, env),
        _ => false,
    }
}

fn with_deltas<R>(
    env: &mut Env,
    da: &[crate::ty::TyVarDecl],
    db: &[crate::ty::TyVarDecl],
    f: impl FnOnce(&mut Env) -> R,
) -> Option<R> {
    if da.len() != db.len() {
        return None;
    }
    if da.iter().zip(db).any(|(x, y)| x.kind != y.kind) {
        return None;
    }
    fn go<R>(env: &mut Env, pairs: &[(TyVar, TyVar)], f: impl FnOnce(&mut Env) -> R) -> R {
        match pairs.split_first() {
            None => f(env),
            Some(((a, b), rest)) => env.with_ty(a, b, |e| go(e, rest, f)),
        }
    }
    let pairs: Vec<(TyVar, TyVar)> = da
        .iter()
        .zip(db)
        .map(|(x, y)| (x.var.clone(), y.var.clone()))
        .collect();
    Some(go(env, &pairs, f))
}

fn eq_code_ty(a: &CodeTy, b: &CodeTy, env: &mut Env) -> bool {
    with_deltas(env, &a.delta, &b.delta, |e| {
        eq_chi(&a.chi, &b.chi, e) && eq_stack(&a.sigma, &b.sigma, e) && eq_ret(&a.q, &b.q, e)
    })
    .unwrap_or(false)
}

fn eq_chi(a: &RegFileTy, b: &RegFileTy, env: &mut Env) -> bool {
    if a.0.len() != b.0.len() {
        return false;
    }
    a.iter()
        .zip(b.iter())
        .all(|((ra, ta), (rb, tb))| ra == rb && eq_tty(ta, tb, env))
}

fn eq_stack(a: &StackTy, b: &StackTy, env: &mut Env) -> bool {
    if a.prefix.len() != b.prefix.len() {
        return false;
    }
    if !a
        .prefix
        .iter()
        .zip(&b.prefix)
        .all(|(s, t)| eq_tty(s, t, env))
    {
        return false;
    }
    match (&a.tail, &b.tail) {
        (StackTail::Empty, StackTail::Empty) => true,
        (StackTail::Var(x), StackTail::Var(y)) => env.eq_tyvar(x, y),
        _ => false,
    }
}

fn eq_ret(a: &RetMarker, b: &RetMarker, env: &mut Env) -> bool {
    match (a, b) {
        (RetMarker::Reg(x), RetMarker::Reg(y)) => x == y,
        (RetMarker::Stack(x), RetMarker::Stack(y)) => x == y,
        (RetMarker::Var(x), RetMarker::Var(y)) => env.eq_tyvar(x, y),
        (RetMarker::Out, RetMarker::Out) => true,
        (RetMarker::End { ty: ta, sigma: sa }, RetMarker::End { ty: tb, sigma: sb }) => {
            eq_tty(ta, tb, env) && eq_stack(sa, sb, env)
        }
        _ => false,
    }
}

fn eq_inst(a: &Inst, b: &Inst, env: &mut Env) -> bool {
    match (a, b) {
        (Inst::Ty(x), Inst::Ty(y)) => eq_tty(x, y, env),
        (Inst::Stack(x), Inst::Stack(y)) => eq_stack(x, y, env),
        (Inst::Ret(x), Inst::Ret(y)) => eq_ret(x, y, env),
        _ => false,
    }
}

fn eq_fty(a: &FTy, b: &FTy, env: &mut Env) -> bool {
    match (a, b) {
        (FTy::Var(x), FTy::Var(y)) => env.eq_tyvar(x, y),
        (FTy::Unit, FTy::Unit) | (FTy::Int, FTy::Int) => true,
        (
            FTy::Arrow {
                params: pa,
                phi_in: ia,
                phi_out: oa,
                ret: ra,
            },
            FTy::Arrow {
                params: pb,
                phi_in: ib,
                phi_out: ob,
                ret: rb,
            },
        ) => {
            pa.len() == pb.len()
                && ia.len() == ib.len()
                && oa.len() == ob.len()
                && pa.iter().zip(pb).all(|(s, t)| eq_fty(s, t, env))
                && ia.iter().zip(ib).all(|(s, t)| eq_tty(s, t, env))
                && oa.iter().zip(ob).all(|(s, t)| eq_tty(s, t, env))
                && eq_fty(ra, rb, env)
        }
        (FTy::Rec(x, s), FTy::Rec(y, t)) => env.with_ty(x, y, |e| eq_fty(s, t, e)),
        (FTy::Tuple(xs), FTy::Tuple(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(s, t)| eq_fty(s, t, env))
        }
        _ => false,
    }
}

fn eq_word(a: &WordVal, b: &WordVal, env: &mut Env) -> bool {
    match (a, b) {
        (WordVal::Unit, WordVal::Unit) => true,
        (WordVal::Int(x), WordVal::Int(y)) => x == y,
        (WordVal::Loc(x), WordVal::Loc(y)) => x == y,
        (
            WordVal::Pack {
                hidden: ha,
                body: ba,
                ann: aa,
            },
            WordVal::Pack {
                hidden: hb,
                body: bb,
                ann: ab,
            },
        ) => eq_tty(ha, hb, env) && eq_word(ba, bb, env) && eq_tty(aa, ab, env),
        (WordVal::Fold { ann: aa, body: ba }, WordVal::Fold { ann: ab, body: bb }) => {
            eq_tty(aa, ab, env) && eq_word(ba, bb, env)
        }
        (WordVal::Inst { body: ba, args: xa }, WordVal::Inst { body: bb, args: xb }) => {
            xa.len() == xb.len()
                && eq_word(ba, bb, env)
                && xa.iter().zip(xb).all(|(s, t)| eq_inst(s, t, env))
        }
        _ => false,
    }
}

fn eq_small(a: &SmallVal, b: &SmallVal, env: &mut Env) -> bool {
    match (a, b) {
        (SmallVal::Reg(x), SmallVal::Reg(y)) => x == y,
        (SmallVal::Word(x), SmallVal::Word(y)) => eq_word(x, y, env),
        (
            SmallVal::Pack {
                hidden: ha,
                body: ba,
                ann: aa,
            },
            SmallVal::Pack {
                hidden: hb,
                body: bb,
                ann: ab,
            },
        ) => eq_tty(ha, hb, env) && eq_small(ba, bb, env) && eq_tty(aa, ab, env),
        (SmallVal::Fold { ann: aa, body: ba }, SmallVal::Fold { ann: ab, body: bb }) => {
            eq_tty(aa, ab, env) && eq_small(ba, bb, env)
        }
        (SmallVal::Inst { body: ba, args: xa }, SmallVal::Inst { body: bb, args: xb }) => {
            xa.len() == xb.len()
                && eq_small(ba, bb, env)
                && xa.iter().zip(xb).all(|(s, t)| eq_inst(s, t, env))
        }
        _ => false,
    }
}

fn eq_seq(a: &InstrSeq, b: &InstrSeq, env: &mut Env) -> bool {
    eq_seq_parts(&a.instrs, &a.term, &b.instrs, &b.term, env)
}

fn eq_seq_parts(
    ia: &[Instr],
    ta: &Terminator,
    ib: &[Instr],
    tb: &Terminator,
    env: &mut Env,
) -> bool {
    match (ia.split_first(), ib.split_first()) {
        (None, None) => eq_terminator(ta, tb, env),
        (Some((ha, ra)), Some((hb, rb))) => match (ha, hb) {
            (
                Instr::Unpack {
                    tv: va,
                    rd: da,
                    src: sa,
                },
                Instr::Unpack {
                    tv: vb,
                    rd: db,
                    src: sb,
                },
            ) => {
                da == db
                    && eq_small(sa, sb, env)
                    && env.with_ty(va, vb, |e| eq_seq_parts(ra, ta, rb, tb, e))
            }
            (Instr::Protect { phi: pa, zeta: za }, Instr::Protect { phi: pb, zeta: zb }) => {
                pa.len() == pb.len()
                    && pa.iter().zip(pb).all(|(s, t)| eq_tty(s, t, env))
                    && env.with_ty(za, zb, |e| eq_seq_parts(ra, ta, rb, tb, e))
            }
            (
                Instr::Import {
                    rd: da,
                    zeta: za,
                    protected: pa,
                    ty: ya,
                    body: ba,
                },
                Instr::Import {
                    rd: db,
                    zeta: zb,
                    protected: pb,
                    ty: yb,
                    body: bb,
                },
            ) => {
                da == db
                    && eq_stack(pa, pb, env)
                    && env.with_ty(za, zb, |e| eq_fty(ya, yb, e) && eq_fexpr(ba, bb, e))
                    && eq_seq_parts(ra, ta, rb, tb, env)
            }
            _ => eq_instr_simple(ha, hb, env) && eq_seq_parts(ra, ta, rb, tb, env),
        },
        _ => false,
    }
}

/// Equality for non-binding instructions.
fn eq_instr_simple(a: &Instr, b: &Instr, env: &mut Env) -> bool {
    match (a, b) {
        (
            Instr::Arith {
                op: oa,
                rd: da,
                rs: sa,
                src: ua,
            },
            Instr::Arith {
                op: ob,
                rd: db,
                rs: sb,
                src: ub,
            },
        ) => oa == ob && da == db && sa == sb && eq_small(ua, ub, env),
        (Instr::Bnz { r: ra, target: ua }, Instr::Bnz { r: rb, target: ub }) => {
            ra == rb && eq_small(ua, ub, env)
        }
        (Instr::Mv { rd: da, src: ua }, Instr::Mv { rd: db, src: ub }) => {
            da == db && eq_small(ua, ub, env)
        }
        (Instr::Unfold { rd: da, src: ua }, Instr::Unfold { rd: db, src: ub }) => {
            da == db && eq_small(ua, ub, env)
        }
        (x, y) => x == y,
    }
}

fn eq_terminator(a: &Terminator, b: &Terminator, env: &mut Env) -> bool {
    match (a, b) {
        (Terminator::Jmp(x), Terminator::Jmp(y)) => eq_small(x, y, env),
        (
            Terminator::Call {
                target: ua,
                sigma: sa,
                q: qa,
            },
            Terminator::Call {
                target: ub,
                sigma: sb,
                q: qb,
            },
        ) => eq_small(ua, ub, env) && eq_stack(sa, sb, env) && eq_ret(qa, qb, env),
        (
            Terminator::Ret {
                target: ta,
                val: va,
            },
            Terminator::Ret {
                target: tb,
                val: vb,
            },
        ) => ta == tb && va == vb,
        (
            Terminator::Halt {
                ty: ya,
                sigma: sa,
                val: va,
            },
            Terminator::Halt {
                ty: yb,
                sigma: sb,
                val: vb,
            },
        ) => va == vb && eq_tty(ya, yb, env) && eq_stack(sa, sb, env),
        _ => false,
    }
}

fn eq_block(a: &CodeBlock, b: &CodeBlock, env: &mut Env) -> bool {
    with_deltas(env, &a.delta, &b.delta, |e| {
        eq_chi(&a.chi, &b.chi, e)
            && eq_stack(&a.sigma, &b.sigma, e)
            && eq_ret(&a.q, &b.q, e)
            && eq_seq(&a.body, &b.body, e)
    })
    .unwrap_or(false)
}

fn eq_heap_val(a: &HeapVal, b: &HeapVal, env: &mut Env) -> bool {
    match (a, b) {
        (HeapVal::Code(x), HeapVal::Code(y)) => eq_block(x, y, env),
        (
            HeapVal::Tuple {
                mutability: ma,
                fields: fa,
            },
            HeapVal::Tuple {
                mutability: mb,
                fields: fb,
            },
        ) => ma == mb && fa.len() == fb.len() && fa.iter().zip(fb).all(|(s, t)| eq_word(s, t, env)),
        _ => false,
    }
}

fn eq_heap_frag(a: &HeapFrag, b: &HeapFrag, env: &mut Env) -> bool {
    if a.0.len() != b.0.len() {
        return false;
    }
    a.iter()
        .zip(b.iter())
        .all(|((la, va), (lb, vb))| la == lb && eq_heap_val(va, vb, env))
}

fn eq_tcomp(a: &TComp, b: &TComp, env: &mut Env) -> bool {
    eq_seq(&a.seq, &b.seq, env) && eq_heap_frag(&a.heap, &b.heap, env)
}

fn eq_fexpr(a: &FExpr, b: &FExpr, env: &mut Env) -> bool {
    match (a, b) {
        (FExpr::Var(x), FExpr::Var(y)) => env.eq_varname(x, y),
        (FExpr::Unit, FExpr::Unit) => true,
        (FExpr::Int(x), FExpr::Int(y)) => x == y,
        (
            FExpr::Binop {
                op: oa,
                lhs: la,
                rhs: ra,
            },
            FExpr::Binop {
                op: ob,
                lhs: lb,
                rhs: rb,
            },
        ) => oa == ob && eq_fexpr(la, lb, env) && eq_fexpr(ra, rb, env),
        (
            FExpr::If0 {
                cond: ca,
                then_branch: ta,
                else_branch: ea,
            },
            FExpr::If0 {
                cond: cb,
                then_branch: tb,
                else_branch: eb,
            },
        ) => eq_fexpr(ca, cb, env) && eq_fexpr(ta, tb, env) && eq_fexpr(ea, eb, env),
        (FExpr::Lam(la), FExpr::Lam(lb)) => {
            if la.params.len() != lb.params.len() {
                return false;
            }
            if !la
                .params
                .iter()
                .zip(&lb.params)
                .all(|((_, s), (_, t))| eq_fty(s, t, env))
            {
                return false;
            }
            let pairs: Vec<(VarName, VarName)> = la
                .params
                .iter()
                .zip(&lb.params)
                .map(|((x, _), (y, _))| (x.clone(), y.clone()))
                .collect();
            env.with_ty(&la.zeta, &lb.zeta, |e| {
                la.phi_in.len() == lb.phi_in.len()
                    && la.phi_out.len() == lb.phi_out.len()
                    && la
                        .phi_in
                        .iter()
                        .zip(&lb.phi_in)
                        .all(|(s, t)| eq_tty(s, t, e))
                    && la
                        .phi_out
                        .iter()
                        .zip(&lb.phi_out)
                        .all(|(s, t)| eq_tty(s, t, e))
                    && e.with_terms(&pairs, |e| eq_fexpr(&la.body, &lb.body, e))
            })
        }
        (FExpr::App { func: fa, args: xa }, FExpr::App { func: fb, args: xb }) => {
            xa.len() == xb.len()
                && eq_fexpr(fa, fb, env)
                && xa.iter().zip(xb).all(|(s, t)| eq_fexpr(s, t, env))
        }
        (FExpr::Fold { ann: aa, body: ba }, FExpr::Fold { ann: ab, body: bb }) => {
            eq_fty(aa, ab, env) && eq_fexpr(ba, bb, env)
        }
        (FExpr::Unfold(x), FExpr::Unfold(y)) => eq_fexpr(x, y, env),
        (FExpr::Tuple(xs), FExpr::Tuple(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(s, t)| eq_fexpr(s, t, env))
        }
        (FExpr::Proj { idx: ia, tuple: ta }, FExpr::Proj { idx: ib, tuple: tb }) => {
            ia == ib && eq_fexpr(ta, tb, env)
        }
        (
            FExpr::Boundary {
                ty: ya,
                sigma_out: sa,
                comp: ca,
            },
            FExpr::Boundary {
                ty: yb,
                sigma_out: sb,
                comp: cb,
            },
        ) => {
            eq_fty(ya, yb, env)
                && match (sa, sb) {
                    (None, None) => true,
                    (Some(x), Some(y)) => eq_stack(x, y, env),
                    _ => false,
                }
                && eq_tcomp(ca, cb, env)
        }
        _ => false,
    }
}

macro_rules! alpha_fn {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $go:ident) => {
        $(#[$doc])*
        pub fn $name(a: &$ty, b: &$ty) -> bool {
            $go(a, b, &mut Env::default())
        }
    };
}

alpha_fn!(
    /// Alpha-equivalence of T value types.
    alpha_eq_tty, TTy, eq_tty
);
alpha_fn!(
    /// Alpha-equivalence of heap types.
    alpha_eq_heap_ty, HeapTy, eq_heap_ty
);
alpha_fn!(
    /// Alpha-equivalence of code types.
    alpha_eq_code_ty, CodeTy, eq_code_ty
);
alpha_fn!(
    /// Alpha-equivalence of stack typings.
    alpha_eq_stack, StackTy, eq_stack
);
alpha_fn!(
    /// Alpha-equivalence of return markers.
    alpha_eq_ret, RetMarker, eq_ret
);
alpha_fn!(
    /// Alpha-equivalence of register-file typings.
    alpha_eq_chi, RegFileTy, eq_chi
);
alpha_fn!(
    /// Alpha-equivalence of F types.
    alpha_eq_fty, FTy, eq_fty
);
alpha_fn!(
    /// Alpha-equivalence of F expressions.
    alpha_eq_fexpr, FExpr, eq_fexpr
);
alpha_fn!(
    /// Alpha-equivalence of T components.
    alpha_eq_tcomp, TComp, eq_tcomp
);
alpha_fn!(
    /// Alpha-equivalence of word values.
    alpha_eq_word, WordVal, eq_word
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Reg;
    use crate::ty::TyVarDecl;

    #[test]
    fn rec_types_alpha_equal() {
        let a = TTy::Rec(TyVar::new("a"), Box::new(TTy::Var(TyVar::new("a"))));
        let b = TTy::Rec(TyVar::new("b"), Box::new(TTy::Var(TyVar::new("b"))));
        assert!(alpha_eq_tty(&a, &b));
        let c = TTy::Rec(TyVar::new("a"), Box::new(TTy::Int));
        assert!(!alpha_eq_tty(&a, &c));
    }

    #[test]
    fn free_variables_must_match_exactly() {
        assert!(!alpha_eq_tty(
            &TTy::Var(TyVar::new("a")),
            &TTy::Var(TyVar::new("b"))
        ));
        assert!(alpha_eq_tty(
            &TTy::Var(TyVar::new("a")),
            &TTy::Var(TyVar::new("a"))
        ));
    }

    #[test]
    fn code_types_alpha_equal_under_delta() {
        let mk = |z: &str, e: &str| CodeTy {
            delta: vec![TyVarDecl::stack(z), TyVarDecl::ret(e)],
            chi: RegFileTy::new(),
            sigma: StackTy::var(z),
            q: RetMarker::Var(TyVar::new(e)),
        };
        assert!(alpha_eq_code_ty(&mk("z", "e"), &mk("z2", "e2")));
        // Kinds must match positionally.
        let bad = CodeTy {
            delta: vec![TyVarDecl::ret("z"), TyVarDecl::stack("e")],
            chi: RegFileTy::new(),
            sigma: StackTy::var("e"),
            q: RetMarker::Var(TyVar::new("z")),
        };
        assert!(!alpha_eq_code_ty(&mk("z", "e"), &bad));
    }

    #[test]
    fn crossed_binders_are_not_equal() {
        // µa.µb.a vs µa.µb.b
        let a = TTy::Rec(
            TyVar::new("a"),
            Box::new(TTy::Rec(
                TyVar::new("b"),
                Box::new(TTy::Var(TyVar::new("a"))),
            )),
        );
        let b = TTy::Rec(
            TyVar::new("a"),
            Box::new(TTy::Rec(
                TyVar::new("b"),
                Box::new(TTy::Var(TyVar::new("b"))),
            )),
        );
        assert!(!alpha_eq_tty(&a, &b));
    }

    #[test]
    fn lambda_alpha_equivalence() {
        use crate::term::Lam;
        let mk = |x: &str| {
            FExpr::Lam(Box::new(Lam {
                params: vec![(VarName::new(x), FTy::Int)],
                zeta: TyVar::new("z"),
                phi_in: vec![],
                phi_out: vec![],
                body: FExpr::Var(VarName::new(x)),
            }))
        };
        assert!(alpha_eq_fexpr(&mk("x"), &mk("y")));
    }

    #[test]
    fn ret_markers() {
        assert!(alpha_eq_ret(
            &RetMarker::Reg(Reg::Ra),
            &RetMarker::Reg(Reg::Ra)
        ));
        assert!(!alpha_eq_ret(
            &RetMarker::Reg(Reg::Ra),
            &RetMarker::Reg(Reg::R1)
        ));
        assert!(!alpha_eq_ret(&RetMarker::Stack(0), &RetMarker::Stack(1)));
        assert!(alpha_eq_ret(&RetMarker::Out, &RetMarker::Out));
    }
}
