//! Type environments `∆` and well-formedness judgments (`∆ ⊢ τ`,
//! `∆ ⊢ σ`, `∆ ⊢ q`, ...), plus kind-checked instantiation of `∀[∆]`
//! binders.

use funtal_syntax::subst::Subst;
use funtal_syntax::{
    CodeTy, FTy, HeapTy, Inst, Kind, RegFileTy, RetMarker, StackTail, StackTy, TTy, TyVar,
    TyVarDecl,
};

use crate::error::{TResult, TypeError};

/// A type environment `∆`: an ordered list of kinded binders
/// (later entries shadow earlier ones).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Delta(Vec<TyVarDecl>);

impl Delta {
    /// The empty environment.
    pub fn new() -> Self {
        Delta(Vec::new())
    }

    /// Builds an environment from decls.
    pub fn from_decls(decls: impl IntoIterator<Item = TyVarDecl>) -> Self {
        Delta(decls.into_iter().collect())
    }

    /// The kind of `v`, if bound.
    pub fn lookup(&self, v: &TyVar) -> Option<Kind> {
        self.0.iter().rev().find(|d| &d.var == v).map(|d| d.kind)
    }

    /// True if `v` is bound at kind `k`.
    pub fn binds(&self, v: &TyVar, k: Kind) -> bool {
        self.lookup(v) == Some(k)
    }

    /// Returns an extended environment.
    pub fn extended(&self, decl: TyVarDecl) -> Self {
        let mut d = self.clone();
        d.0.push(decl);
        d
    }

    /// Binds `decl` in place (innermost).
    pub fn push(&mut self, decl: TyVarDecl) {
        self.0.push(decl);
    }

    /// Returns an environment extended with all of `decls`.
    pub(crate) fn extended_all(&self, decls: &[TyVarDecl]) -> Self {
        let mut d = self.clone();
        d.0.extend(decls.iter().cloned());
        d
    }
}

/// Checks that a binder list has no duplicate names (generated code uses
/// fresh names; duplicate binders in one `∀` are almost always a bug in
/// the input program).
pub(crate) fn check_distinct(decls: &[TyVarDecl]) -> TResult<()> {
    for (i, d) in decls.iter().enumerate() {
        if decls[..i].iter().any(|e| e.var == d.var) {
            return Err(TypeError::DuplicateTyVar(d.var.clone()));
        }
    }
    Ok(())
}

/// `∆ ⊢ τ` for T value types.
pub fn wf_tty(delta: &Delta, t: &TTy) -> TResult<()> {
    match t {
        TTy::Var(v) => {
            if delta.binds(v, Kind::Ty) {
                Ok(())
            } else {
                Err(TypeError::UnboundTyVar(v.clone()))
            }
        }
        TTy::Unit | TTy::Int => Ok(()),
        TTy::Exists(v, body) | TTy::Rec(v, body) => {
            wf_tty(&delta.extended(TyVarDecl::ty(v.clone())), body)
        }
        TTy::Ref(ts) => ts.iter().try_for_each(|t| wf_tty(delta, t)),
        TTy::Boxed(h) => wf_heap_ty(delta, h),
    }
}

/// `∆ ⊢ ψ` for heap types.
pub(crate) fn wf_heap_ty(delta: &Delta, h: &HeapTy) -> TResult<()> {
    match h {
        HeapTy::Tuple(ts) => ts.iter().try_for_each(|t| wf_tty(delta, t)),
        HeapTy::Code(c) => wf_code_ty(delta, c),
    }
}

/// `∆ ⊢ ∀[∆'].{χ;σ}q`.
///
/// Beyond scoping, this checks that a register marker names a register
/// present in `χ` and a stack-index marker points at a visible slot of
/// `σ`.
pub(crate) fn wf_code_ty(delta: &Delta, c: &CodeTy) -> TResult<()> {
    check_distinct(&c.delta)?;
    let inner = delta.extended_all(&c.delta);
    wf_chi(&inner, &c.chi)?;
    wf_stack(&inner, &c.sigma)?;
    wf_ret(&inner, &c.q)?;
    match &c.q {
        RetMarker::Reg(r) if c.chi.get(*r).is_none() => {
            return Err(TypeError::UnboundReg(*r).at("code type return marker"));
        }
        RetMarker::Stack(i) if c.sigma.get(*i).is_none() => {
            return Err(TypeError::BadStackIndex {
                idx: *i,
                visible: c.sigma.visible_len(),
            }
            .at("code type return marker"));
        }
        _ => {}
    }
    Ok(())
}

/// `∆ ⊢ χ`.
pub(crate) fn wf_chi(delta: &Delta, chi: &RegFileTy) -> TResult<()> {
    for (r, t) in chi.iter() {
        wf_tty(delta, t).map_err(|e| e.at(format!("type of {r}")))?;
    }
    Ok(())
}

/// `∆ ⊢ σ`.
pub fn wf_stack(delta: &Delta, s: &StackTy) -> TResult<()> {
    for t in &s.prefix {
        wf_tty(delta, t)?;
    }
    match &s.tail {
        StackTail::Empty => Ok(()),
        StackTail::Var(v) => {
            if delta.binds(v, Kind::Stack) {
                Ok(())
            } else {
                Err(TypeError::UnboundTyVar(v.clone()))
            }
        }
    }
}

/// `∆ ⊢ q` (scoping only; positional checks live in [`wf_code_ty`] and
/// the instruction judgments).
pub(crate) fn wf_ret(delta: &Delta, q: &RetMarker) -> TResult<()> {
    match q {
        RetMarker::Reg(_) | RetMarker::Stack(_) | RetMarker::Out => Ok(()),
        RetMarker::Var(v) => {
            if delta.binds(v, Kind::Ret) {
                Ok(())
            } else {
                Err(TypeError::UnboundTyVar(v.clone()))
            }
        }
        RetMarker::End { ty, sigma } => {
            wf_tty(delta, ty)?;
            wf_stack(delta, sigma)
        }
    }
}

/// `∆ ⊢ ω`.
pub(crate) fn wf_inst(delta: &Delta, i: &Inst) -> TResult<()> {
    match i {
        Inst::Ty(t) => wf_tty(delta, t),
        Inst::Stack(s) => wf_stack(delta, s),
        Inst::Ret(q) => wf_ret(delta, q),
    }
}

/// `∆ ⊢ τ` for F types (used by the FT checker; lives here because `∆`
/// does).
pub fn wf_fty(delta: &Delta, t: &FTy) -> TResult<()> {
    match t {
        FTy::Var(v) => {
            if delta.binds(v, Kind::Ty) {
                Ok(())
            } else {
                Err(TypeError::UnboundTyVar(v.clone()))
            }
        }
        FTy::Unit | FTy::Int => Ok(()),
        FTy::Arrow {
            params,
            phi_in,
            phi_out,
            ret,
        } => {
            params.iter().try_for_each(|t| wf_fty(delta, t))?;
            phi_in.iter().try_for_each(|t| wf_tty(delta, t))?;
            phi_out.iter().try_for_each(|t| wf_tty(delta, t))?;
            wf_fty(delta, ret)
        }
        FTy::Rec(v, body) => wf_fty(&delta.extended(TyVarDecl::ty(v.clone())), body),
        FTy::Tuple(ts) => ts.iter().try_for_each(|t| wf_fty(delta, t)),
    }
}

/// Kind-checks instantiations `ω̄` against a binder prefix of `∆'` and
/// builds the corresponding substitution, returning the remaining
/// (uninstantiated) binders.
///
/// Each instantiation must be well-formed under `delta`.
pub(crate) fn apply_insts<'d>(
    delta: &Delta,
    binders: &'d [TyVarDecl],
    args: &[Inst],
) -> TResult<(Subst, &'d [TyVarDecl])> {
    if args.len() > binders.len() {
        return Err(TypeError::BadInstantiation(format!(
            "{} instantiations for {} binders",
            args.len(),
            binders.len()
        )));
    }
    let mut subst = Subst::new();
    for (decl, arg) in binders.iter().zip(args) {
        if decl.kind != arg.kind() {
            return Err(TypeError::BadInstantiation(format!(
                "variable {} has kind {} but instantiation {arg} has kind {}",
                decl.var,
                decl.kind,
                arg.kind()
            )));
        }
        wf_inst(delta, arg)?;
        // Earlier instantiations may appear in later ones only through
        // the *types themselves*, which are closed w.r.t. the binder
        // list; apply the accumulated substitution to keep telescopes
        // working.
        subst.insert(decl.var.clone(), subst.inst(arg));
    }
    Ok((subst, &binders[args.len()..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use funtal_syntax::build::*;

    #[test]
    fn wf_closed_types() {
        let d = Delta::new();
        assert!(wf_tty(&d, &int()).is_ok());
        assert!(wf_tty(&d, &mu("a", tvar("a"))).is_ok());
        assert!(wf_tty(&d, &tvar("a")).is_err());
    }

    #[test]
    fn wf_kinds_distinguished() {
        let d = Delta::from_decls([d_stk("z")]);
        // z is a stack variable, not a type variable.
        assert!(wf_tty(&d, &tvar("z")).is_err());
        assert!(wf_stack(&d, &zvar("z")).is_ok());
        assert!(wf_ret(&d, &q_var("z")).is_err());
    }

    #[test]
    fn wf_code_marker_positions() {
        let d = Delta::new();
        // Marker names a register present in chi: ok.
        let ok = CodeTy {
            delta: vec![],
            chi: chi([(r1(), int())]),
            sigma: nil(),
            q: q_reg(r1()),
        };
        assert!(wf_code_ty(&d, &ok).is_ok());
        // Marker names an absent register: error.
        let bad = CodeTy {
            chi: chi([]),
            ..ok.clone()
        };
        assert!(wf_code_ty(&d, &bad).is_err());
        // Stack marker beyond the visible prefix: error.
        let bad2 = CodeTy {
            chi: chi([]),
            sigma: nil(),
            q: q_i(0),
            delta: vec![],
        };
        assert!(wf_code_ty(&d, &bad2).is_err());
    }

    #[test]
    fn apply_insts_kind_checks() {
        let d = Delta::new();
        let binders = [d_stk("z"), d_ret("e")];
        // Correct kinds.
        let ok = apply_insts(&d, &binders, &[i_stk(nil()), i_ret(q_end(int(), nil()))]);
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().1.len(), 0);
        // Wrong kind.
        assert!(apply_insts(&d, &binders, &[i_ty(int())]).is_err());
        // Too many.
        assert!(apply_insts(
            &d,
            &binders,
            &[i_stk(nil()), i_ret(q_end(int(), nil())), i_ty(int())]
        )
        .is_err());
        // Partial application leaves a remainder.
        let (_, rest) = apply_insts(&d, &binders, &[i_stk(nil())]).unwrap();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn duplicate_binders_rejected() {
        assert!(check_distinct(&[d_stk("z"), d_ret("z")]).is_err());
        assert!(check_distinct(&[d_stk("z"), d_ret("e")]).is_ok());
    }
}
