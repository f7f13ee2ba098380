//! The FT multi-language type system (Fig 7 of the paper):
//! `Ψ; ∆; Γ; χ; σ; q ⊢ e : τ; σ'`.
//!
//! F expressions are typed at the `out` marker with the stack typing
//! threaded through in evaluation order; T components are typed by the
//! `funtal-tal` rules extended (via the hook mechanism) with the
//! multi-language instructions `protect` and `import` and the boundary
//! rule.

use std::collections::BTreeMap;

use funtal_fun::check::subst_fty_var;
use funtal_syntax::alpha::{alpha_eq_fty, alpha_eq_stack, alpha_eq_tty};
use funtal_syntax::{
    Component, FExpr, FTy, HeapTyping, Instr, RegFileTy, RetMarker, StackTail, StackTy, TComp, TTy,
    TyVarDecl, VarName,
};
use funtal_tal::check::{check_component_with, check_instr, TCtx};
use funtal_tal::error::{TResult, TypeError};
use funtal_tal::wf::{wf_fty, wf_stack, Delta};

use crate::translate::fty_to_tty;

/// The F typing environment `Γ`.
pub type Gamma = BTreeMap<VarName, FTy>;

/// The FT static context for F expressions (the marker is implicitly
/// `out`).
#[derive(Clone, Debug)]
pub struct FtCtx {
    /// Heap typing `Ψ`.
    pub psi: HeapTyping,
    /// Type environment `∆`.
    pub delta: Delta,
    /// Term environment `Γ`.
    pub gamma: Gamma,
    /// Register-file typing `χ` (threaded unchanged through F rules, as
    /// in Fig 7; boundaries reset it).
    pub chi: RegFileTy,
    /// Stack typing `σ`.
    pub sigma: StackTy,
}

impl FtCtx {
    /// A context for a closed, whole program: empty everything, empty
    /// concrete stack.
    pub fn top() -> Self {
        FtCtx {
            psi: HeapTyping::new(),
            delta: Delta::new(),
            gamma: Gamma::new(),
            chi: RegFileTy::new(),
            sigma: StackTy::nil(),
        }
    }
}

fn expect_fty(want: &FTy, got: &FTy, what: &'static str) -> TResult<()> {
    if alpha_eq_fty(want, got) {
        Ok(())
    } else {
        Err(TypeError::mismatch(what, want, got))
    }
}

/// Splits `sigma` as `exposed ++ suffix`, returning the exposed prefix.
///
/// The tails must be literally equal (both `•` or the same variable) and
/// the suffix's visible prefix must be a suffix of `sigma`'s.
fn split_suffix(sigma: &StackTy, suffix: &StackTy) -> TResult<Vec<TTy>> {
    if sigma.tail != suffix.tail {
        return Err(TypeError::StackShape {
            need: format!("a stack ending in {suffix}"),
            found: sigma.clone(),
        });
    }
    let n = sigma.prefix.len();
    let k = suffix.prefix.len();
    if k > n {
        return Err(TypeError::StackShape {
            need: format!("a stack ending in {suffix}"),
            found: sigma.clone(),
        });
    }
    let (front, back) = sigma.prefix.split_at(n - k);
    for (a, b) in back.iter().zip(&suffix.prefix) {
        if !alpha_eq_tty(a, b) {
            return Err(TypeError::StackShape {
                need: format!("a stack ending in {suffix}"),
                found: sigma.clone(),
            });
        }
    }
    Ok(front.to_vec())
}

/// Infers the type and output stack of an F expression:
/// `Ψ; ∆; Γ; χ; σ; out ⊢ e : τ; σ'`.
pub fn type_of_fexpr(ctx: &FtCtx, e: &FExpr) -> TResult<(FTy, StackTy)> {
    let env = Env {
        psi: &ctx.psi,
        delta: &ctx.delta,
        gamma: &ctx.gamma,
    };
    type_at(env, ctx.sigma.clone(), e)
}

/// The parts of the F context that the Fig 7 rules pass down unchanged
/// (`Ψ; ∆; Γ`), borrowed; only σ is threaded from subexpression to
/// subexpression, so [`type_at`] takes it on its own. (χ is threaded
/// unchanged too, but no F rule reads it: a boundary checks its
/// component under the empty register file.)
#[derive(Clone, Copy)]
struct Env<'a> {
    psi: &'a HeapTyping,
    delta: &'a Delta,
    gamma: &'a Gamma,
}

/// [`type_of_fexpr`] on an input stack `sigma`.
fn type_at(env: Env<'_>, sigma: StackTy, e: &FExpr) -> TResult<(FTy, StackTy)> {
    match e {
        FExpr::Var(x) => {
            let t = env
                .gamma
                .get(x)
                .cloned()
                .ok_or_else(|| TypeError::UnboundVar(x.to_string()))?;
            Ok((t, sigma))
        }
        FExpr::Unit => Ok((FTy::Unit, sigma)),
        FExpr::Int(_) => Ok((FTy::Int, sigma)),
        FExpr::Binop { lhs, rhs, .. } => {
            let (tl, s1) = type_at(env, sigma, lhs)?;
            expect_fty(&FTy::Int, &tl, "left operand")?;
            let (tr, s2) = type_at(env, s1, rhs)?;
            expect_fty(&FTy::Int, &tr, "right operand")?;
            Ok((FTy::Int, s2))
        }
        FExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => {
            let (tc, s0) = type_at(env, sigma, cond)?;
            expect_fty(&FTy::Int, &tc, "if0 condition")?;
            let (t1, sa) = type_at(env, s0.clone(), then_branch)?;
            let (t2, sb) = type_at(env, s0, else_branch)?;
            expect_fty(&t1, &t2, "if0 branches")?;
            if !alpha_eq_stack(&sa, &sb) {
                return Err(TypeError::mismatch("if0 branch stacks", &sa, &sb));
            }
            Ok((t1, sa))
        }
        FExpr::Lam(lam) => {
            if env.delta.lookup(&lam.zeta).is_some() {
                return Err(TypeError::DuplicateTyVar(lam.zeta.clone()));
            }
            let inner_delta = env.delta.extended(TyVarDecl::stack(lam.zeta.clone()));
            for (_, t) in &lam.params {
                wf_fty(env.delta, t)?;
            }
            for t in lam.phi_in.iter().chain(&lam.phi_out) {
                funtal_tal::wf::wf_tty(&inner_delta, t)?;
            }
            let mut gamma = env.gamma.clone();
            for (x, t) in &lam.params {
                gamma.insert(x.clone(), t.clone());
            }
            let body_sigma = StackTy {
                prefix: lam.phi_in.clone(),
                tail: StackTail::Var(lam.zeta.clone()),
            };
            let body_env = Env {
                delta: &inner_delta,
                gamma: &gamma,
                ..env
            };
            let (ret, out_sigma) = type_at(body_env, body_sigma, &lam.body)?;
            let want_out = StackTy {
                prefix: lam.phi_out.clone(),
                tail: StackTail::Var(lam.zeta.clone()),
            };
            if !alpha_eq_stack(&out_sigma, &want_out) {
                return Err(TypeError::mismatch(
                    "lambda body output stack",
                    &want_out,
                    &out_sigma,
                ));
            }
            Ok((
                FTy::Arrow {
                    params: lam.params.iter().map(|(_, t)| t.clone()).collect(),
                    phi_in: lam.phi_in.clone(),
                    phi_out: lam.phi_out.clone(),
                    ret: Box::new(ret),
                },
                sigma,
            ))
        }
        FExpr::App { func, args } => {
            let (tf, mut s) = type_at(env, sigma, func)?;
            let FTy::Arrow {
                params,
                phi_in,
                phi_out,
                ret,
            } = &tf
            else {
                return Err(TypeError::wrong_form("a function", &tf));
            };
            if params.len() != args.len() {
                return Err(TypeError::Other(format!(
                    "application expects {} arguments, got {}",
                    params.len(),
                    args.len()
                )));
            }
            for (p, a) in params.iter().zip(args) {
                let (ta, s2) = type_at(env, s, a)?;
                expect_fty(p, &ta, "argument")?;
                s = s2;
            }
            // The stack must expose φi on top at application time.
            let (front, rest) = s.split(phi_in.len()).ok_or_else(|| TypeError::StackShape {
                need: format!("prefix {}", funtal_syntax::display::PrefixDisplay(phi_in)),
                found: s.clone(),
            })?;
            for (have, want) in front.iter().zip(phi_in) {
                if !alpha_eq_tty(have, want) {
                    return Err(TypeError::mismatch("application stack prefix", want, have));
                }
            }
            Ok(((**ret).clone(), rest.cons_prefix(phi_out)))
        }
        FExpr::Fold { ann, body } => {
            wf_fty(env.delta, ann)?;
            let FTy::Rec(a, inner) = ann else {
                return Err(TypeError::wrong_form("a recursive-type annotation", ann));
            };
            let unrolled = subst_fty_var(inner, a, ann);
            let (tb, s) = type_at(env, sigma, body)?;
            expect_fty(&unrolled, &tb, "fold body")?;
            Ok((ann.clone(), s))
        }
        FExpr::Unfold(body) => {
            let (t, s) = type_at(env, sigma, body)?;
            let FTy::Rec(a, inner) = &t else {
                return Err(TypeError::wrong_form("a value of recursive type", &t));
            };
            Ok((subst_fty_var(inner, a, &t), s))
        }
        FExpr::Tuple(es) => {
            let mut tys = Vec::with_capacity(es.len());
            let mut s = sigma;
            for e in es {
                let (t, s2) = type_at(env, s, e)?;
                tys.push(t);
                s = s2;
            }
            Ok((FTy::Tuple(tys), s))
        }
        FExpr::Proj { idx, tuple } => {
            let (t, s) = type_at(env, sigma, tuple)?;
            let FTy::Tuple(ts) = &t else {
                return Err(TypeError::wrong_form("a tuple", &t));
            };
            if *idx == 0 || *idx > ts.len() {
                return Err(TypeError::BadFieldIndex {
                    idx: *idx,
                    width: ts.len(),
                });
            }
            Ok((ts[*idx - 1].clone(), s))
        }
        FExpr::Boundary {
            ty,
            sigma_out,
            comp,
        } => {
            wf_fty(env.delta, ty)?;
            let sigma_prime = sigma_out.clone().unwrap_or_else(|| sigma.clone());
            wf_stack(env.delta, &sigma_prime)?;
            let t_ty = fty_to_tty(ty);
            // Fig 7: the component is checked under an *empty* register
            // file (embedded assembly may assume nothing about
            // registers) at marker end{τ𝒯; σ'}.
            let tctx = TCtx::new(
                env.psi.clone(),
                env.delta.clone(),
                RegFileTy::new(),
                sigma,
                RetMarker::end(t_ty, sigma_prime.clone()),
            );
            check_tcomp(tctx, env.gamma, comp)?;
            Ok((ty.clone(), sigma_prime))
        }
    }
}

/// Checks the `protect φ, ζ` instruction (Fig 7).
fn check_protect(mut tctx: TCtx, phi: &[TTy], zeta: &funtal_syntax::TyVar) -> TResult<TCtx> {
    if tctx.delta.lookup(zeta).is_some() {
        return Err(TypeError::DuplicateTyVar(zeta.clone()));
    }
    let (front, rest) = tctx
        .sigma
        .split(phi.len())
        .ok_or_else(|| TypeError::StackShape {
            need: format!(
                "visible prefix {}",
                funtal_syntax::display::PrefixDisplay(phi)
            ),
            found: tctx.sigma.clone(),
        })?;
    for (have, want) in front.iter().zip(phi) {
        if !alpha_eq_tty(have, want) {
            return Err(TypeError::mismatch("protect prefix", want, have));
        }
    }
    // Transform the marker: a stack marker may not be hidden; an end
    // marker whose stack ends in the protected tail is re-expressed in
    // terms of ζ.
    match &mut tctx.q {
        RetMarker::Stack(i) if *i >= phi.len() => {
            return Err(TypeError::ClobbersMarker(
                "protect would hide the marker slot",
            ));
        }
        RetMarker::End { sigma, .. } => {
            let exposed = split_suffix(sigma, &rest).map_err(|_| TypeError::StackShape {
                need: format!("an end-marker stack ending in the protected tail {rest}"),
                found: sigma.clone(),
            })?;
            *sigma = StackTy {
                prefix: exposed,
                tail: StackTail::Var(zeta.clone()),
            };
        }
        _ => {}
    }
    tctx.delta.push(TyVarDecl::stack(zeta.clone()));
    tctx.sigma = StackTy {
        prefix: front,
        tail: StackTail::Var(zeta.clone()),
    };
    Ok(tctx)
}

/// Checks the `import rd, ζ = σ0, TF[τ](e)` instruction (Fig 7).
fn check_import(
    mut tctx: TCtx,
    gamma: &Gamma,
    rd: funtal_syntax::Reg,
    zeta: &funtal_syntax::TyVar,
    protected: &StackTy,
    ty: &FTy,
    body: &FExpr,
) -> TResult<TCtx> {
    if tctx.delta.lookup(zeta).is_some() {
        return Err(TypeError::DuplicateTyVar(zeta.clone()));
    }
    wf_fty(&tctx.delta, ty)?;
    wf_stack(&tctx.delta, protected)?;
    let exposed = split_suffix(&tctx.sigma, protected)?;
    // The marker must live inside the protected tail (or be end{..}):
    // "we must be sure that q cannot be clobbered by T code embedded in
    // e" (§4.2).
    match &tctx.q {
        RetMarker::Stack(i) => {
            if *i < exposed.len() {
                return Err(TypeError::BadMarker {
                    found: tctx.q.clone(),
                    need: "import requires the marker inside the protected tail",
                });
            }
        }
        RetMarker::End { .. } => {}
        other => {
            return Err(TypeError::BadMarker {
                found: other.clone(),
                need: "import requires a stack or end{τ;σ} marker",
            })
        }
    }
    let inner_delta = tctx.delta.extended(TyVarDecl::stack(zeta.clone()));
    let body_env = Env {
        psi: &tctx.psi,
        delta: &inner_delta,
        gamma,
    };
    let body_sigma = StackTy {
        prefix: exposed.clone(),
        tail: StackTail::Var(zeta.clone()),
    };
    let (tb, out_sigma) = type_at(body_env, body_sigma, body)?;
    if !alpha_eq_fty(&tb, ty) {
        return Err(TypeError::mismatch("import body type", ty, &tb));
    }
    if out_sigma.tail != StackTail::Var(zeta.clone()) {
        return Err(TypeError::StackShape {
            need: format!("an import body preserving the abstract tail {zeta}"),
            found: out_sigma,
        });
    }
    let out_prefix = out_sigma.prefix;
    let delta_len = out_prefix.len() as isize - exposed.len() as isize;
    // Fig 7: the result register file is exactly {rd : τ𝒯} — embedded F
    // evaluation may clobber every register.
    tctx.chi = RegFileTy::from_pairs([(rd, fty_to_tty(ty))]);
    // Splice the protected tail back under the body's output prefix:
    // σ' = φ' :: σ0.
    let mut prefix = out_prefix;
    prefix.extend(protected.prefix.iter().cloned());
    tctx.sigma = StackTy {
        prefix,
        tail: protected.tail.clone(),
    };
    tctx.q = tctx.q.shifted_by(delta_len);
    Ok(tctx)
}

/// Checks a T component under the FT rules (Fig 2's component rule with
/// Fig 7's `import`/`protect` extensions), returning `τ; σ'` from
/// `ret-type`.
pub fn check_tcomp(tctx: TCtx, gamma: &Gamma, comp: &TComp) -> TResult<(TTy, StackTy)> {
    let mut hook = |c: TCtx, instr: &Instr| match instr {
        Instr::Protect { phi, zeta } => check_protect(c, phi, zeta),
        Instr::Import {
            rd,
            zeta,
            protected,
            ty,
            body,
        } => check_import(c, gamma, *rd, zeta, protected, ty, body),
        _ => check_instr(c, instr),
    };
    check_component_with(tctx, comp, &mut hook)
}

/// Type-checks a closed FT component as a whole program.
///
/// - `Component::F(e)`: returns the F type of `e`, checked on the empty
///   concrete stack.
/// - `Component::T(c)`: checks the component at marker
///   `end{τ𝒯; •}` for the provided expected type.
pub fn typecheck_component(comp: &Component, expected: Option<&FTy>) -> TResult<FTy> {
    match comp {
        Component::F(e) => typecheck_closed(e, expected),
        Component::T(c) => {
            let want = expected.ok_or_else(|| {
                TypeError::Other(
                    "checking a top-level T component requires an expected type".to_string(),
                )
            })?;
            let t_ty = fty_to_tty(want);
            let tctx = TCtx::new(
                HeapTyping::new(),
                Delta::new(),
                RegFileTy::new(),
                StackTy::nil(),
                RetMarker::end(t_ty, StackTy::nil()),
            );
            check_tcomp(tctx, &Gamma::new(), c)?;
            Ok(want.clone())
        }
    }
}

/// Convenience: type-check a closed F expression as a whole program.
pub fn typecheck(e: &FExpr) -> TResult<FTy> {
    typecheck_closed(e, None)
}

/// The `Component::F` case of [`typecheck_component`].
fn typecheck_closed(e: &FExpr, expected: Option<&FTy>) -> TResult<FTy> {
    let (t, s) = type_of_fexpr(&FtCtx::top(), e)?;
    if !alpha_eq_stack(&s, &StackTy::nil()) {
        return Err(TypeError::StackShape {
            need: "a whole program leaving the stack empty".to_string(),
            found: s,
        });
    }
    if let Some(want) = expected {
        expect_fty(want, &t, "program type")?;
    }
    Ok(t)
}
