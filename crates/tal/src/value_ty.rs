//! Typing of word values (`Ψ; ∆ ⊢ w : τ`) and small values
//! (`Ψ; ∆; χ ⊢ u : τ`), plus register-file subtyping `∆ ⊢ χ ≤ χ'`.

use std::sync::Arc;

use funtal_syntax::alpha::alpha_eq_tty;
use funtal_syntax::subst::Subst;
use funtal_syntax::{CodeTy, HeapTy, HeapTyping, Inst, RegFileTy, SmallVal, TTy, WordVal};

use crate::error::{TResult, TypeError};
use crate::wf::{apply_insts, wf_tty, Delta};

/// Computes the type of a word value.
pub(crate) fn type_of_word(psi: &HeapTyping, delta: &Delta, w: &WordVal) -> TResult<TTy> {
    match w {
        WordVal::Unit => Ok(TTy::Unit),
        WordVal::Int(_) => Ok(TTy::Int),
        WordVal::Loc(l) => psi
            .loc_ty(l)
            .ok_or_else(|| TypeError::UnboundLabel(l.clone())),
        WordVal::Pack { hidden, body, ann } => {
            check_pack(psi, delta, hidden, ann, &type_of_word(psi, delta, body)?)
        }
        WordVal::Fold { ann, body } => check_fold(delta, ann, &type_of_word(psi, delta, body)?),
        WordVal::Inst { body, args } => {
            instantiate_code(delta, &type_of_word(psi, delta, body)?, args)
        }
    }
}

/// Computes the type of a small value (an instruction operand).
pub(crate) fn type_of_small(
    psi: &HeapTyping,
    delta: &Delta,
    chi: &RegFileTy,
    u: &SmallVal,
) -> TResult<TTy> {
    match u {
        SmallVal::Reg(r) => chi.get(*r).cloned().ok_or(TypeError::UnboundReg(*r)),
        SmallVal::Word(w) => type_of_word(psi, delta, w),
        SmallVal::Pack { hidden, body, ann } => check_pack(
            psi,
            delta,
            hidden,
            ann,
            &type_of_small(psi, delta, chi, body)?,
        ),
        SmallVal::Fold { ann, body } => {
            check_fold(delta, ann, &type_of_small(psi, delta, chi, body)?)
        }
        SmallVal::Inst { body, args } => {
            instantiate_code(delta, &type_of_small(psi, delta, chi, body)?, args)
        }
    }
}

/// Shared rule for `pack⟨τ,·⟩ as ∃α.τ'`: the body must have type
/// `τ'[τ/α]`, and the annotation must be a well-formed existential.
fn check_pack(
    _psi: &HeapTyping,
    delta: &Delta,
    hidden: &TTy,
    ann: &TTy,
    body_ty: &TTy,
) -> TResult<TTy> {
    wf_tty(delta, hidden)?;
    wf_tty(delta, ann)?;
    let TTy::Exists(a, inner) = ann else {
        return Err(TypeError::wrong_form("an existential annotation", ann));
    };
    let expected = Subst::one(a.clone(), Inst::Ty(hidden.clone())).tty(inner);
    if alpha_eq_tty(&expected, body_ty) {
        Ok(ann.clone())
    } else {
        Err(TypeError::mismatch("pack body", &expected, body_ty))
    }
}

/// Shared rule for `fold_{µα.τ} ·`: the body must have type
/// `τ[µα.τ/α]`.
fn check_fold(delta: &Delta, ann: &TTy, body_ty: &TTy) -> TResult<TTy> {
    wf_tty(delta, ann)?;
    let TTy::Rec(a, inner) = ann else {
        return Err(TypeError::wrong_form("a recursive-type annotation", ann));
    };
    let expected = Subst::one(a.clone(), Inst::Ty(ann.clone())).tty(inner);
    if alpha_eq_tty(&expected, body_ty) {
        Ok(ann.clone())
    } else {
        Err(TypeError::mismatch("fold body", &expected, body_ty))
    }
}

/// Shared rule for `·[ω̄]`: the body must be a code pointer with at least
/// `|ω̄|` binders of matching kinds; the result is the partially
/// instantiated code type.
fn instantiate_code(delta: &Delta, body_ty: &TTy, args: &[Inst]) -> TResult<TTy> {
    let Some(code) = body_ty.as_code() else {
        return Err(TypeError::wrong_form(
            "a code pointer to instantiate",
            body_ty,
        ));
    };
    let (subst, rest) = apply_insts(delta, &code.delta, args)?;
    // `apply_insts` already removed the instantiated binders; the
    // substitution is applied to the *open* remainder directly, not
    // through `Subst::code_ty`'s binder handling.
    let applied = CodeTy {
        delta: rest.to_vec(),
        chi: subst.chi(&code.chi),
        sigma: subst.stack(&code.sigma),
        q: subst.ret(&code.q),
    };
    Ok(TTy::Boxed(Arc::new(HeapTy::Code(applied))))
}

/// Register-file subtyping `∆ ⊢ χ ≤ χ'`: every register required by
/// `χ'` must be present in `χ` at an alpha-equal type ("we can have more
/// registers with values in them, but the types of registers that occur
/// in χ' must match", §3).
pub(crate) fn chi_subtype(chi: &RegFileTy, upper: &RegFileTy) -> TResult<()> {
    for (r, want) in upper.iter() {
        match chi.get(r) {
            None => {
                return Err(TypeError::NotSubtype {
                    reg: r,
                    detail: format!("required at type {want} but absent"),
                })
            }
            Some(have) => {
                if !alpha_eq_tty(have, want) {
                    return Err(TypeError::NotSubtype {
                        reg: r,
                        detail: format!("required at type {want}, present at {have}"),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use funtal_syntax::build::*;
    use funtal_syntax::ty::Mutability;
    use funtal_syntax::Label;

    fn psi_with_tuple() -> HeapTyping {
        let mut psi = HeapTyping::new();
        psi.insert(
            Label::new("t"),
            Mutability::Boxed,
            HeapTy::Tuple(vec![int(), unit()]),
        );
        psi
    }

    #[test]
    fn literals() {
        let psi = HeapTyping::new();
        let d = Delta::new();
        assert_eq!(
            type_of_word(&psi, &d, &funtal_syntax::WordVal::Int(3)),
            Ok(int())
        );
        assert_eq!(
            type_of_word(&psi, &d, &funtal_syntax::WordVal::Unit),
            Ok(unit())
        );
    }

    #[test]
    fn locations() {
        let psi = psi_with_tuple();
        let d = Delta::new();
        let t = type_of_word(&psi, &d, &funtal_syntax::WordVal::Loc(Label::new("t"))).unwrap();
        assert_eq!(t, box_tuple(vec![int(), unit()]));
        assert!(type_of_word(&psi, &d, &funtal_syntax::WordVal::Loc(Label::new("x"))).is_err());
    }

    #[test]
    fn packs() {
        let psi = HeapTyping::new();
        let d = Delta::new();
        // pack <int, 3> as exists a. a : ok
        let w = funtal_syntax::WordVal::Pack {
            hidden: int(),
            body: Box::new(funtal_syntax::WordVal::Int(3)),
            ann: exists("a", tvar("a")),
        };
        assert_eq!(type_of_word(&psi, &d, &w), Ok(exists("a", tvar("a"))));
        // pack <unit, 3> as exists a. a : body type mismatch
        let bad = funtal_syntax::WordVal::Pack {
            hidden: unit(),
            body: Box::new(funtal_syntax::WordVal::Int(3)),
            ann: exists("a", tvar("a")),
        };
        assert!(type_of_word(&psi, &d, &bad).is_err());
    }

    #[test]
    fn folds() {
        let psi = HeapTyping::new();
        let d = Delta::new();
        // mu a. unit is inhabited by fold (fold ... ()) one level: body must
        // have type unit[mu/a] = unit.
        let w = funtal_syntax::WordVal::Fold {
            ann: mu("a", unit()),
            body: Box::new(funtal_syntax::WordVal::Unit),
        };
        assert_eq!(type_of_word(&psi, &d, &w), Ok(mu("a", unit())));
    }

    #[test]
    fn instantiation_peels_binders() {
        let mut psi = HeapTyping::new();
        let code = CodeTy {
            delta: vec![d_stk("z"), d_ret("e")],
            chi: chi([]),
            sigma: zvar("z"),
            q: q_var("e"),
        };
        psi.insert(Label::new("l"), Mutability::Boxed, HeapTy::Code(code));
        let d = Delta::new();
        let u = loc_i("l", vec![i_stk(nil()), i_ret(q_end(int(), nil()))]);
        let t = type_of_small(&psi, &d, &chi([]), &u).unwrap();
        let c = t.as_code().unwrap();
        assert!(c.delta.is_empty());
        assert_eq!(c.sigma, nil());
        assert_eq!(c.q, q_end(int(), nil()));
    }

    #[test]
    fn subtyping_width() {
        let small = chi([(r1(), int())]);
        let big = chi([(r1(), int()), (r2(), unit())]);
        assert!(chi_subtype(&big, &small).is_ok());
        assert!(chi_subtype(&small, &big).is_err());
        let wrong = chi([(r1(), unit())]);
        assert!(chi_subtype(&wrong, &small).is_err());
    }

    #[test]
    fn registers_require_chi() {
        let psi = HeapTyping::new();
        let d = Delta::new();
        let c = chi([(r1(), int())]);
        assert_eq!(type_of_small(&psi, &d, &c, &reg(r1())), Ok(int()));
        assert!(type_of_small(&psi, &d, &c, &reg(r2())).is_err());
    }
}
