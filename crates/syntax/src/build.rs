//! Ergonomic constructors for building FunTAL programs in Rust, used by
//! the figure reconstructions, tests, and the compiler.
//!
//! # Examples
//!
//! ```
//! use funtal_syntax::build::*;
//! use funtal_syntax::term::Terminator;
//!
//! // (mv r1, 2; halt int, * {r1})
//! let comp = tcomp(
//!     seq(vec![mv(r1(), int_v(2))], halt(int(), nil(), r1())),
//!     vec![],
//! );
//! assert_eq!(comp.to_string(), "(mv r1, 2; halt int, * {r1})");
//! ```

use crate::ids::{Label, Reg, TyVar, VarName};
use crate::term::{
    ArithOp, CodeBlock, FExpr, HeapFrag, HeapVal, Instr, InstrSeq, Lam, SmallVal, TComp,
    Terminator, WordVal,
};
use crate::ty::{FTy, Inst, Mutability, RegFileTy, RetMarker, StackTy, TTy, TyVarDecl};

// --- registers ---------------------------------------------------------

/// Register `r1`.
pub fn r1() -> Reg {
    Reg::R1
}
/// Register `r2`.
pub fn r2() -> Reg {
    Reg::R2
}
/// Register `r3`.
pub fn r3() -> Reg {
    Reg::R3
}
/// Register `r4`.
pub fn r4() -> Reg {
    Reg::R4
}
/// Register `r5`.
pub fn r5() -> Reg {
    Reg::R5
}
/// Register `r6`.
pub fn r6() -> Reg {
    Reg::R6
}
/// Register `r7`.
pub fn r7() -> Reg {
    Reg::R7
}
/// The return-address register `ra`.
pub fn ra() -> Reg {
    Reg::Ra
}

// --- T types ------------------------------------------------------------

/// The T type `int`.
pub fn int() -> TTy {
    TTy::Int
}

/// The T type `unit`.
pub fn unit() -> TTy {
    TTy::Unit
}

/// A T type variable.
pub fn tvar(name: &str) -> TTy {
    TTy::Var(TyVar::new(name))
}

/// `mu a. t`.
pub fn mu(name: &str, body: TTy) -> TTy {
    TTy::Rec(TyVar::new(name), Box::new(body))
}

/// `exists a. t`.
pub fn exists(name: &str, body: TTy) -> TTy {
    TTy::Exists(TyVar::new(name), Box::new(body))
}

/// `ref <ts>`.
pub fn ref_tuple(ts: Vec<TTy>) -> TTy {
    TTy::Ref(ts)
}

/// `box <ts>`.
pub fn box_tuple(ts: Vec<TTy>) -> TTy {
    TTy::boxed_tuple(ts)
}

/// `box forall[delta]{chi; sigma} q`.
pub fn code_ty(delta: Vec<TyVarDecl>, chi: RegFileTy, sigma: StackTy, q: RetMarker) -> TTy {
    TTy::code(delta, chi, sigma, q)
}

/// A `ty`-kinded binder.
pub fn d_ty(name: &str) -> TyVarDecl {
    TyVarDecl::ty(name)
}

/// A `stk`-kinded binder.
pub fn d_stk(name: &str) -> TyVarDecl {
    TyVarDecl::stack(name)
}

/// A `ret`-kinded binder.
pub fn d_ret(name: &str) -> TyVarDecl {
    TyVarDecl::ret(name)
}

/// Builds a register-file typing from pairs.
pub fn chi(pairs: impl IntoIterator<Item = (Reg, TTy)>) -> RegFileTy {
    RegFileTy::from_pairs(pairs)
}

// --- stacks -------------------------------------------------------------

/// The empty concrete stack `*`.
pub fn nil() -> StackTy {
    StackTy::nil()
}

/// A bare abstract stack `z`.
pub fn zvar(name: &str) -> StackTy {
    StackTy::var(name)
}

/// `prefix :: tail`, prefix given top-first.
pub fn stack(prefix: Vec<TTy>, tail: StackTy) -> StackTy {
    tail.cons_prefix(&prefix)
}

// --- return markers ------------------------------------------------------

/// Marker in a register.
pub fn q_reg(r: Reg) -> RetMarker {
    RetMarker::Reg(r)
}

/// Marker at a stack slot.
pub fn q_i(i: usize) -> RetMarker {
    RetMarker::Stack(i)
}

/// An abstract marker variable.
pub fn q_var(name: &str) -> RetMarker {
    RetMarker::Var(TyVar::new(name))
}

/// `end{ty; sigma}`.
pub fn q_end(ty: TTy, sigma: StackTy) -> RetMarker {
    RetMarker::end(ty, sigma)
}

// --- instantiations ------------------------------------------------------

/// A type instantiation.
pub fn i_ty(t: TTy) -> Inst {
    Inst::Ty(t)
}

/// A stack instantiation.
pub fn i_stk(s: StackTy) -> Inst {
    Inst::Stack(s)
}

/// A return-marker instantiation.
pub fn i_ret(q: RetMarker) -> Inst {
    Inst::Ret(q)
}

// --- small values ---------------------------------------------------------

/// An integer operand.
pub fn int_v(n: i64) -> SmallVal {
    SmallVal::int(n)
}

/// A unit operand.
pub fn unit_v() -> SmallVal {
    SmallVal::unit()
}

/// A label operand.
pub fn loc(name: &str) -> SmallVal {
    SmallVal::loc(name)
}

/// A label operand with instantiations: `l[args]`.
pub fn loc_i(name: &str, args: Vec<Inst>) -> SmallVal {
    SmallVal::loc(name).instantiate(args)
}

/// A register operand.
pub fn reg(r: Reg) -> SmallVal {
    SmallVal::Reg(r)
}

// --- instructions -----------------------------------------------------------

/// `add rd, rs, u`.
pub fn add(rd: Reg, rs: Reg, src: SmallVal) -> Instr {
    Instr::Arith {
        op: ArithOp::Add,
        rd,
        rs,
        src,
    }
}

/// `sub rd, rs, u`.
pub fn sub(rd: Reg, rs: Reg, src: SmallVal) -> Instr {
    Instr::Arith {
        op: ArithOp::Sub,
        rd,
        rs,
        src,
    }
}

/// `mul rd, rs, u`.
pub fn mul(rd: Reg, rs: Reg, src: SmallVal) -> Instr {
    Instr::Arith {
        op: ArithOp::Mul,
        rd,
        rs,
        src,
    }
}

/// `bnz r, u`.
pub fn bnz(r: Reg, target: SmallVal) -> Instr {
    Instr::Bnz { r, target }
}

/// `ld rd, rs[i]`.
pub fn ld(rd: Reg, rs: Reg, idx: usize) -> Instr {
    Instr::Ld { rd, rs, idx }
}

/// `st rd[i], rs`.
pub fn st(rd: Reg, idx: usize, rs: Reg) -> Instr {
    Instr::St { rd, idx, rs }
}

/// `ralloc rd, n`.
pub fn ralloc(rd: Reg, n: usize) -> Instr {
    Instr::Ralloc { rd, n }
}

/// `balloc rd, n`.
pub fn balloc(rd: Reg, n: usize) -> Instr {
    Instr::Balloc { rd, n }
}

/// `mv rd, u`.
pub fn mv(rd: Reg, src: SmallVal) -> Instr {
    Instr::Mv { rd, src }
}

/// `salloc n`.
pub fn salloc(n: usize) -> Instr {
    Instr::Salloc(n)
}

/// `sfree n`.
pub fn sfree(n: usize) -> Instr {
    Instr::Sfree(n)
}

/// `sld rd, i`.
pub fn sld(rd: Reg, idx: usize) -> Instr {
    Instr::Sld { rd, idx }
}

/// `sst i, rs`.
pub fn sst(idx: usize, rs: Reg) -> Instr {
    Instr::Sst { idx, rs }
}

/// `unpack <a, rd> u`.
pub fn unpack(tv: &str, rd: Reg, src: SmallVal) -> Instr {
    Instr::Unpack {
        tv: TyVar::new(tv),
        rd,
        src,
    }
}

/// `unfold rd, u`.
pub fn unfold_i(rd: Reg, src: SmallVal) -> Instr {
    Instr::Unfold { rd, src }
}

/// `protect phi, z`.
pub fn protect(phi: Vec<TTy>, zeta: &str) -> Instr {
    Instr::Protect {
        phi,
        zeta: TyVar::new(zeta),
    }
}

/// `import rd, z = protected, TF[ty](body)`.
pub fn import(rd: Reg, zeta: &str, protected: StackTy, ty: FTy, body: FExpr) -> Instr {
    Instr::Import {
        rd,
        zeta: TyVar::new(zeta),
        protected,
        ty,
        body: Box::new(body),
    }
}

// --- terminators -----------------------------------------------------------

/// `jmp u`.
pub fn jmp(u: SmallVal) -> Terminator {
    Terminator::Jmp(u)
}

/// `call u {sigma, q}`.
pub fn call(target: SmallVal, sigma: StackTy, q: RetMarker) -> Terminator {
    Terminator::Call { target, sigma, q }
}

/// `ret r {r'}`.
pub fn ret(target: Reg, val: Reg) -> Terminator {
    Terminator::Ret { target, val }
}

/// `halt ty, sigma {r}`.
pub fn halt(ty: TTy, sigma: StackTy, val: Reg) -> Terminator {
    Terminator::Halt { ty, sigma, val }
}

// --- sequences, blocks, components ------------------------------------------

/// An instruction sequence.
pub fn seq(instrs: Vec<Instr>, term: Terminator) -> InstrSeq {
    InstrSeq::new(instrs, term)
}

/// A code block heap value.
pub fn code_block(
    delta: Vec<TyVarDecl>,
    chi: RegFileTy,
    sigma: StackTy,
    q: RetMarker,
    body: InstrSeq,
) -> HeapVal {
    HeapVal::Code(CodeBlock {
        delta,
        chi,
        sigma,
        q,
        body,
    })
}

/// An immutable tuple heap value.
pub fn boxed_tuple_v(fields: Vec<WordVal>) -> HeapVal {
    HeapVal::Tuple {
        mutability: Mutability::Boxed,
        fields,
    }
}

/// A mutable tuple heap value.
pub fn ref_tuple_v(fields: Vec<WordVal>) -> HeapVal {
    HeapVal::Tuple {
        mutability: Mutability::Ref,
        fields,
    }
}

/// A T component from a sequence and local heap bindings.
pub fn tcomp(seq: InstrSeq, heap: Vec<(&str, HeapVal)>) -> TComp {
    TComp {
        seq,
        heap: HeapFrag::from_pairs(heap.into_iter().map(|(l, v)| (Label::new(l), v))),
    }
}

// --- F ----------------------------------------------------------------------

/// The F type `int`.
pub fn fint() -> FTy {
    FTy::Int
}

/// The F type `unit`.
pub fn funit() -> FTy {
    FTy::Unit
}

/// An F type variable.
pub fn fvar_ty(name: &str) -> FTy {
    FTy::Var(TyVar::new(name))
}

/// An ordinary F arrow.
pub fn arrow(params: Vec<FTy>, ret: FTy) -> FTy {
    FTy::arrow(params, ret)
}

/// A stack-modifying F arrow.
pub fn arrow_sm(params: Vec<FTy>, phi_in: Vec<TTy>, phi_out: Vec<TTy>, ret: FTy) -> FTy {
    FTy::Arrow {
        params,
        phi_in,
        phi_out,
        ret: Box::new(ret),
    }
}

/// An F recursive type `mu a. t`.
pub fn fmu(name: &str, body: FTy) -> FTy {
    FTy::Rec(TyVar::new(name), Box::new(body))
}

/// An F tuple type.
pub fn ftuple_ty(ts: Vec<FTy>) -> FTy {
    FTy::Tuple(ts)
}

/// An F variable expression.
pub fn var(name: &str) -> FExpr {
    FExpr::Var(VarName::new(name))
}

/// An F integer literal.
pub fn fint_e(n: i64) -> FExpr {
    FExpr::Int(n)
}

/// The F unit value.
pub fn funit_e() -> FExpr {
    FExpr::Unit
}

/// `lhs + rhs`.
pub fn fadd(lhs: FExpr, rhs: FExpr) -> FExpr {
    FExpr::binop(ArithOp::Add, lhs, rhs)
}

/// `lhs - rhs`.
pub fn fsub(lhs: FExpr, rhs: FExpr) -> FExpr {
    FExpr::binop(ArithOp::Sub, lhs, rhs)
}

/// `lhs * rhs`.
pub fn fmul(lhs: FExpr, rhs: FExpr) -> FExpr {
    FExpr::binop(ArithOp::Mul, lhs, rhs)
}

/// `if0 cond { then } { else }`.
pub fn if0(cond: FExpr, then_branch: FExpr, else_branch: FExpr) -> FExpr {
    FExpr::If0 {
        cond: Box::new(cond),
        then_branch: Box::new(then_branch),
        else_branch: Box::new(else_branch),
    }
}

/// An ordinary lambda. The stack-tail binder is auto-named `z`.
pub fn lam(params: Vec<(&str, FTy)>, body: FExpr) -> FExpr {
    lam_z(params, "z", body)
}

/// An ordinary lambda with an explicit stack-tail binder name.
pub fn lam_z(params: Vec<(&str, FTy)>, zeta: &str, body: FExpr) -> FExpr {
    FExpr::Lam(Box::new(Lam {
        params: params
            .into_iter()
            .map(|(x, t)| (VarName::new(x), t))
            .collect(),
        zeta: TyVar::new(zeta),
        phi_in: vec![],
        phi_out: vec![],
        body,
    }))
}

/// A stack-modifying lambda.
pub fn lam_sm(
    params: Vec<(&str, FTy)>,
    zeta: &str,
    phi_in: Vec<TTy>,
    phi_out: Vec<TTy>,
    body: FExpr,
) -> FExpr {
    FExpr::Lam(Box::new(Lam {
        params: params
            .into_iter()
            .map(|(x, t)| (VarName::new(x), t))
            .collect(),
        zeta: TyVar::new(zeta),
        phi_in,
        phi_out,
        body,
    }))
}

/// Application.
pub fn app(func: FExpr, args: Vec<FExpr>) -> FExpr {
    FExpr::app(func, args)
}

/// `fold[t](e)`.
pub fn ffold(ann: FTy, body: FExpr) -> FExpr {
    FExpr::Fold {
        ann,
        body: Box::new(body),
    }
}

/// `unfold(e)`.
pub fn funfold(body: FExpr) -> FExpr {
    FExpr::Unfold(Box::new(body))
}

/// A tuple expression.
pub fn ftuple(es: Vec<FExpr>) -> FExpr {
    FExpr::Tuple(es)
}

/// 1-indexed projection `pi[i](e)`.
pub fn proj(idx: usize, tuple: FExpr) -> FExpr {
    FExpr::Proj {
        idx,
        tuple: Box::new(tuple),
    }
}

/// A boundary `FT[ty](comp)` whose output stack equals its input stack.
pub fn boundary(ty: FTy, comp: TComp) -> FExpr {
    FExpr::Boundary {
        ty,
        sigma_out: None,
        comp: Box::new(comp),
    }
}

/// A boundary with an explicit output stack annotation.
pub fn boundary_out(ty: FTy, sigma_out: StackTy, comp: TComp) -> FExpr {
    FExpr::Boundary {
        ty,
        sigma_out: Some(sigma_out),
        comp: Box::new(comp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_component_displays() {
        let comp = tcomp(
            seq(vec![mv(r1(), int_v(2))], halt(int(), nil(), r1())),
            vec![],
        );
        assert_eq!(comp.to_string(), "(mv r1, 2; halt int, * {r1})");
    }

    #[test]
    fn stack_builder_orders_prefix_top_first() {
        let s = stack(vec![int(), unit()], zvar("z"));
        assert_eq!(s.to_string(), "int :: unit :: z");
    }
}
