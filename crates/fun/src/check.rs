//! The pure-F type system (Fig 5 of the paper): `Γ ⊢ e : τ`.
//!
//! This checker rejects multi-language forms (boundaries and
//! stack-modifying lambdas); they belong to FT (crate `funtal`). Having
//! a standalone checker lets integration tests cross-validate the FT
//! checker on pure programs.

use std::collections::BTreeMap;
use std::fmt;

use funtal_syntax::alpha::alpha_eq_fty;
use funtal_syntax::{FExpr, FTy, VarName};

/// A typing error of pure F.
#[derive(Clone, Debug, PartialEq)]
pub enum FTypeError {
    /// Unbound term variable.
    Unbound(VarName),
    /// Two types that had to agree differ.
    Mismatch {
        /// What was required.
        expected: String,
        /// What was found.
        found: String,
        /// Where.
        what: &'static str,
    },
    /// The expression has the wrong shape (e.g. applying a non-function).
    WrongForm {
        /// What was required.
        expected: &'static str,
        /// What was found.
        found: String,
    },
    /// Wrong number of arguments in an application.
    Arity {
        /// Parameters declared.
        expected: usize,
        /// Arguments given.
        found: usize,
    },
    /// A projection index out of range (projections are 1-indexed).
    BadProj {
        /// Index requested.
        idx: usize,
        /// Tuple width.
        width: usize,
    },
    /// A multi-language form reached the pure-F checker.
    MultiLanguage(&'static str),
}

impl fmt::Display for FTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FTypeError::Unbound(x) => write!(f, "unbound variable {x}"),
            FTypeError::Mismatch {
                expected,
                found,
                what,
            } => {
                write!(f, "{what}: expected {expected}, found {found}")
            }
            FTypeError::WrongForm { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            FTypeError::Arity { expected, found } => {
                write!(f, "expected {expected} arguments, found {found}")
            }
            FTypeError::BadProj { idx, width } => {
                write!(f, "projection pi[{idx}] out of range for a {width}-tuple")
            }
            FTypeError::MultiLanguage(what) => {
                write!(f, "multi-language form `{what}` not allowed in pure F")
            }
        }
    }
}

impl std::error::Error for FTypeError {}

/// A typing environment `Γ`.
pub(crate) type Env = BTreeMap<VarName, FTy>;

fn expect(a: &FTy, b: &FTy, what: &'static str) -> Result<(), FTypeError> {
    if alpha_eq_fty(a, b) {
        Ok(())
    } else {
        Err(FTypeError::Mismatch {
            expected: a.to_string(),
            found: b.to_string(),
            what,
        })
    }
}

/// Checks that a type is pure F: no stack-modifying arrows (whose
/// prefixes mention T types).
pub(crate) fn pure_fty(t: &FTy) -> Result<(), FTypeError> {
    match t {
        FTy::Var(_) | FTy::Unit | FTy::Int => Ok(()),
        FTy::Arrow {
            params,
            phi_in,
            phi_out,
            ret,
        } => {
            if !phi_in.is_empty() || !phi_out.is_empty() {
                return Err(FTypeError::MultiLanguage("stack-modifying arrow"));
            }
            params.iter().try_for_each(pure_fty)?;
            pure_fty(ret)
        }
        FTy::Rec(_, body) => pure_fty(body),
        FTy::Tuple(ts) => ts.iter().try_for_each(pure_fty),
    }
}

/// Infers the type of a pure-F expression (`Γ ⊢ e : τ`).
pub fn type_of(env: &Env, e: &FExpr) -> Result<FTy, FTypeError> {
    match e {
        FExpr::Var(x) => env
            .get(x)
            .cloned()
            .ok_or_else(|| FTypeError::Unbound(x.clone())),
        FExpr::Unit => Ok(FTy::Unit),
        FExpr::Int(_) => Ok(FTy::Int),
        FExpr::Binop { lhs, rhs, .. } => {
            expect(&FTy::Int, &type_of(env, lhs)?, "left operand")?;
            expect(&FTy::Int, &type_of(env, rhs)?, "right operand")?;
            Ok(FTy::Int)
        }
        FExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => {
            expect(&FTy::Int, &type_of(env, cond)?, "if0 condition")?;
            let t1 = type_of(env, then_branch)?;
            let t2 = type_of(env, else_branch)?;
            expect(&t1, &t2, "if0 branches")?;
            Ok(t1)
        }
        FExpr::Lam(lam) => {
            if !lam.is_plain() {
                return Err(FTypeError::MultiLanguage("stack-modifying lambda"));
            }
            let mut inner = env.clone();
            for (x, t) in &lam.params {
                pure_fty(t)?;
                inner.insert(x.clone(), t.clone());
            }
            let ret = type_of(&inner, &lam.body)?;
            Ok(FTy::arrow(
                lam.params.iter().map(|(_, t)| t.clone()).collect(),
                ret,
            ))
        }
        FExpr::App { func, args } => {
            let tf = type_of(env, func)?;
            let FTy::Arrow {
                params,
                phi_in,
                phi_out,
                ret,
            } = &tf
            else {
                return Err(FTypeError::WrongForm {
                    expected: "a function",
                    found: tf.to_string(),
                });
            };
            if !phi_in.is_empty() || !phi_out.is_empty() {
                return Err(FTypeError::MultiLanguage("stack-modifying application"));
            }
            if params.len() != args.len() {
                return Err(FTypeError::Arity {
                    expected: params.len(),
                    found: args.len(),
                });
            }
            for (p, a) in params.iter().zip(args) {
                expect(p, &type_of(env, a)?, "argument")?;
            }
            Ok((**ret).clone())
        }
        FExpr::Fold { ann, body } => {
            pure_fty(ann)?;
            let FTy::Rec(a, inner) = ann else {
                return Err(FTypeError::WrongForm {
                    expected: "a recursive-type annotation",
                    found: ann.to_string(),
                });
            };
            let unrolled = subst_fty_var(inner, a, ann);
            expect(&unrolled, &type_of(env, body)?, "fold body")?;
            Ok(ann.clone())
        }
        FExpr::Unfold(body) => {
            let t = type_of(env, body)?;
            let FTy::Rec(a, inner) = &t else {
                return Err(FTypeError::WrongForm {
                    expected: "a value of recursive type",
                    found: t.to_string(),
                });
            };
            Ok(subst_fty_var(inner, a, &t))
        }
        FExpr::Tuple(es) => {
            let ts: Result<Vec<FTy>, FTypeError> = es.iter().map(|e| type_of(env, e)).collect();
            Ok(FTy::Tuple(ts?))
        }
        FExpr::Proj { idx, tuple } => {
            let t = type_of(env, tuple)?;
            let FTy::Tuple(ts) = &t else {
                return Err(FTypeError::WrongForm {
                    expected: "a tuple",
                    found: t.to_string(),
                });
            };
            if *idx == 0 || *idx > ts.len() {
                return Err(FTypeError::BadProj {
                    idx: *idx,
                    width: ts.len(),
                });
            }
            Ok(ts[*idx - 1].clone())
        }
        FExpr::Boundary { .. } => Err(FTypeError::MultiLanguage("boundary")),
    }
}

/// Substitutes an F type for a type variable in an F type
/// (capture-avoiding, via the shared substitution on a renamed
/// variable).
///
/// F recursive types unroll with F types, which the kinded `Subst`
/// cannot carry; this helper handles the F-only case directly.
pub fn subst_fty_var(body: &FTy, var: &funtal_syntax::TyVar, replacement: &FTy) -> FTy {
    match body {
        FTy::Var(v) if v == var => replacement.clone(),
        FTy::Var(_) | FTy::Unit | FTy::Int => body.clone(),
        FTy::Arrow {
            params,
            phi_in,
            phi_out,
            ret,
        } => FTy::Arrow {
            params: params
                .iter()
                .map(|t| subst_fty_var(t, var, replacement))
                .collect(),
            phi_in: phi_in.clone(),
            phi_out: phi_out.clone(),
            ret: Box::new(subst_fty_var(ret, var, replacement)),
        },
        FTy::Rec(v, inner) => {
            if v == var {
                body.clone()
            } else if funtal_syntax::free::ftv_fty(replacement).contains(v) {
                // Rename the binder to avoid capture.
                let fresh = funtal_syntax::ids::fresh_tyvar(v, |cand| {
                    funtal_syntax::free::ftv_fty(replacement).contains(cand)
                        || funtal_syntax::free::ftv_fty(inner).contains(cand)
                });
                let renamed = subst_fty_var(inner, v, &FTy::Var(fresh.clone()));
                FTy::Rec(fresh, Box::new(subst_fty_var(&renamed, var, replacement)))
            } else {
                FTy::Rec(v.clone(), Box::new(subst_fty_var(inner, var, replacement)))
            }
        }
        FTy::Tuple(ts) => FTy::Tuple(
            ts.iter()
                .map(|t| subst_fty_var(t, var, replacement))
                .collect(),
        ),
    }
}

/// Unrolls an F recursive type by one step: `τ[µα.τ/α]`; `None` for
/// any other type.
pub fn unroll_fty(rec: &FTy) -> Option<FTy> {
    let FTy::Rec(a, body) = rec else { return None };
    Some(subst_fty_var(body, a, rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use funtal_syntax::build::*;

    #[test]
    fn arithmetic() {
        assert_eq!(
            type_of(&Env::new(), &fadd(fint_e(1), fint_e(2))),
            Ok(FTy::Int)
        );
        assert!(type_of(&Env::new(), &fadd(funit_e(), fint_e(2))).is_err());
    }

    #[test]
    fn lambda_and_app() {
        let id = lam(vec![("x", fint())], var("x"));
        assert_eq!(
            type_of(&Env::new(), &id),
            Ok(FTy::arrow(vec![FTy::Int], FTy::Int))
        );
        assert_eq!(
            type_of(&Env::new(), &app(id.clone(), vec![fint_e(3)])),
            Ok(FTy::Int)
        );
        assert!(matches!(
            type_of(&Env::new(), &app(id.clone(), vec![])),
            Err(FTypeError::Arity { .. })
        ));
        assert!(type_of(&Env::new(), &app(id, vec![funit_e()])).is_err());
    }

    #[test]
    fn if0_branches_must_agree() {
        let good = if0(fint_e(0), fint_e(1), fint_e(2));
        assert_eq!(type_of(&Env::new(), &good), Ok(FTy::Int));
        let bad = if0(fint_e(0), fint_e(1), funit_e());
        assert!(type_of(&Env::new(), &bad).is_err());
    }

    #[test]
    fn tuples_and_projection() {
        let t = ftuple(vec![fint_e(1), funit_e()]);
        assert_eq!(
            type_of(&Env::new(), &t),
            Ok(FTy::Tuple(vec![FTy::Int, FTy::Unit]))
        );
        assert_eq!(type_of(&Env::new(), &proj(1, t.clone())), Ok(FTy::Int));
        assert_eq!(type_of(&Env::new(), &proj(2, t.clone())), Ok(FTy::Unit));
        assert!(type_of(&Env::new(), &proj(0, t.clone())).is_err());
        assert!(type_of(&Env::new(), &proj(3, t)).is_err());
    }

    #[test]
    fn fold_unfold() {
        // µa.(a) → int — the self-application type of Fig 17.
        let mu_ty = fmu("a", arrow(vec![fvar_ty("a")], fint()));
        let f = lam(vec![("f", mu_ty.clone())], fint_e(0));
        let folded = ffold(mu_ty.clone(), f);
        assert_eq!(type_of(&Env::new(), &folded), Ok(mu_ty.clone()));
        let unfolded = funfold(folded);
        assert_eq!(
            type_of(&Env::new(), &unfolded),
            Ok(arrow(vec![mu_ty], fint()))
        );
    }

    #[test]
    fn boundaries_rejected() {
        let b = boundary(
            fint(),
            tcomp(
                seq(vec![mv(r1(), int_v(1))], halt(int(), nil(), r1())),
                vec![],
            ),
        );
        assert!(matches!(
            type_of(&Env::new(), &b),
            Err(FTypeError::MultiLanguage(_))
        ));
    }

    #[test]
    fn stack_lambdas_rejected() {
        let l = lam_sm(vec![("x", fint())], "z", vec![], vec![int()], var("x"));
        assert!(matches!(
            type_of(&Env::new(), &l),
            Err(FTypeError::MultiLanguage(_))
        ));
    }
}
