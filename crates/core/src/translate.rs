//! The boundary translations of the FT multi-language:
//!
//! - the **type translation** `τ𝒯` (Fig 9), mapping F types to T value
//!   types — functions become code pointers following the stack calling
//!   convention with an `ra` continuation and an abstract return marker;
//! - the **value translations** (Fig 10): `ᵗℱ𝒯(v, M)` turning F values
//!   into T word values (allocating glue code for lambdas) and
//!   `τℱ𝒯(w, M)` turning T word values into F values (wrapping code
//!   pointers in lambdas that push arguments and `call`).
//!
//! ## Deviations D3/D4 (see DESIGN.md)
//!
//! As printed, Fig 10's λ→code glue stores the return continuation at
//! stack slot 0 and `import`s with the continuation *outside* the
//! protected tail, which violates Fig 7's side condition that the marker
//! live inside the protected tail. Following the paper's own remark for
//! the stack-modifying case ("re-arrange the stack to put the protected
//! value past the exposed stack prefix"), our glue rotates the
//! continuation *below* the exposed cells. One uniform scheme covers
//! ordinary and stack-modifying lambdas:
//!
//! ```text
//! h = code[z: stk, e: ret]{ra: box ∀[].{r1: τ'𝒯; φo :: z} e; τ̄𝒯 :: φi :: z} ra.
//!     salloc 1;                       // junk cell on top
//!     sld r2, k+1; sst k, r2  (k = 0 .. m-1, m = n + |φi|)
//!                                     // shift args and φi up one slot
//!     sst m, ra;                      // continuation below them; q := m
//!     import r1, zi = (cont :: z), TF[τ'](e_body);
//!     sld ra, |φo|;                   // q := ra
//!     sld r2, k; sst k+1, r2  (k = |φo|-1 .. 0)
//!                                     // slide φo down over the cont cell
//!     sfree 1;
//!     ret ra {r1}
//! ```
//!
//! where `e_body` binds the translated arguments with a stack-modifying
//! administrative lambda, pops the argument cells with an embedded
//! `sfree n` boundary so the callee sees exactly `φi`, and applies the
//! original lambda:
//!
//! ```text
//! e_body = (λ[zo; τ̄𝒯::φi; φo](x̄: τ̄).
//!             (λ[zp; φi; φo](d: unit). v x̄) popper) fetch₁ … fetchₙ
//! popper  = FT[unit; φi::zo](mv r3, (); sfree n; halt unit, φi::zo {r3})
//! fetchᵢ  = FT[τᵢ](sld r1, n−i; halt τᵢ𝒯, τ̄𝒯::φi::zi {r1})
//! ```

use funtal_fun::check::unroll_fty;
use funtal_syntax::build as b;
use funtal_syntax::free::{ftv_fty, ftv_tty};
use funtal_syntax::{
    CodeBlock, FExpr, FTy, HeapVal, InstrSeq, Lam, Mutability, RegFileTy, RetMarker, StackTail,
    StackTy, TComp, TTy, Terminator, TyVar, VarName, WordVal,
};
use funtal_tal::error::{RResult, RuntimeError};
use funtal_tal::machine::Memory;

/// The type translation `τ𝒯` of Fig 9.
///
/// - `α𝒯 = α`, `unit𝒯 = unit`, `int𝒯 = int`, `µα.τ𝒯 = µα.(τ𝒯)`,
///   `⟨τ̄⟩𝒯 = box ⟨τ̄𝒯⟩`;
/// - `(τ̄) → τ'` and `(τ̄) φi;φo → τ'` become
///   `box ∀[ζ, ε].{ra: box ∀[].{r1: τ'𝒯; φo :: ζ} ε; τn𝒯 :: … :: τ1𝒯 :: φi :: ζ} ra`.
pub fn fty_to_tty(t: &FTy) -> TTy {
    match t {
        FTy::Var(v) => TTy::Var(v.clone()),
        FTy::Unit => TTy::Unit,
        FTy::Int => TTy::Int,
        FTy::Rec(a, body) => TTy::Rec(a.clone(), Box::new(fty_to_tty(body))),
        FTy::Tuple(ts) => TTy::boxed_tuple(ts.iter().map(fty_to_tty).collect()),
        FTy::Arrow {
            params,
            phi_in,
            phi_out,
            ret,
        } => {
            // Prefer parseable names for the generated binders (`z`,
            // `e`, then `z1`, `e1`, …), so translated types appearing in
            // static annotations survive a print/parse round trip.
            let avoid = ftv_fty(t);
            let z = pick_name("z", |v| avoid.contains(v));
            let e = pick_name("e", |v| avoid.contains(v) || *v == z);
            arrow_code_ty(params, phi_in, phi_out, ret, &z, &e)
        }
    }
}

/// Picks the first name among `base`, `base1`, `base2`, … not rejected
/// by `avoid`.
fn pick_name(base: &str, avoid: impl Fn(&TyVar) -> bool) -> TyVar {
    let bare = TyVar::new(base);
    if !avoid(&bare) {
        return bare;
    }
    let mut i = 1u32;
    loop {
        let cand = TyVar::new(format!("{base}{i}"));
        if !avoid(&cand) {
            return cand;
        }
        i += 1;
    }
}

/// The code type of a translated arrow with explicit `ζ`/`ε` names.
pub(crate) fn arrow_code_ty(
    params: &[FTy],
    phi_in: &[TTy],
    phi_out: &[TTy],
    ret: &FTy,
    z: &TyVar,
    e: &TyVar,
) -> TTy {
    let cont = arrow_cont_ty(phi_out, ret, z, e);
    // Stack: τn𝒯 :: … :: τ1𝒯 :: φi :: ζ (slot 0 = last argument).
    let mut prefix: Vec<TTy> = params.iter().rev().map(fty_to_tty).collect();
    prefix.extend(phi_in.iter().cloned());
    TTy::code(
        vec![
            funtal_syntax::TyVarDecl::stack(z.clone()),
            funtal_syntax::TyVarDecl::ret(e.clone()),
        ],
        RegFileTy::from_pairs([(b::ra(), cont)]),
        StackTy {
            prefix,
            tail: StackTail::Var(z.clone()),
        },
        RetMarker::Reg(b::ra()),
    )
}

/// The continuation type `box ∀[].{r1: τ'𝒯; φo :: ζ} ε` of a translated
/// arrow.
pub(crate) fn arrow_cont_ty(phi_out: &[TTy], ret: &FTy, z: &TyVar, e: &TyVar) -> TTy {
    TTy::code(
        vec![],
        RegFileTy::from_pairs([(b::r1(), fty_to_tty(ret))]),
        StackTy {
            prefix: phi_out.to_vec(),
            tail: StackTail::Var(z.clone()),
        },
        RetMarker::Var(e.clone()),
    )
}

/// `ᵗℱ𝒯(v, M)`: translates an F value to a T word value at type `ty`,
/// possibly allocating heap cells (tuples, lambda glue code) in `mem`.
///
/// # Errors
///
/// Fails when `v` is not a value of shape `ty` (well-typed boundaries
/// never hit this).
pub(crate) fn f_to_t(mem: &mut Memory, v: &FExpr, ty: &FTy) -> RResult<WordVal> {
    match (v, ty) {
        (FExpr::Int(n), FTy::Int) => Ok(WordVal::Int(*n)),
        (FExpr::Unit, FTy::Unit) => Ok(WordVal::Unit),
        (FExpr::Fold { body, .. }, FTy::Rec(..)) => {
            let inner_ty = unroll_fty(ty).expect("checked Rec");
            let w = f_to_t(mem, body, &inner_ty)?;
            Ok(WordVal::Fold {
                ann: fty_to_tty(ty),
                body: Box::new(w),
            })
        }
        (FExpr::Tuple(vs), FTy::Tuple(ts)) => {
            if vs.len() != ts.len() {
                return Err(RuntimeError::Stuck(format!(
                    "tuple/type width mismatch at boundary: {v} vs {ty}"
                )));
            }
            let mut fields = Vec::with_capacity(vs.len());
            for (v, t) in vs.iter().zip(ts) {
                fields.push(f_to_t(mem, v, t)?);
            }
            let l = mem.alloc(
                "tup",
                HeapVal::Tuple {
                    mutability: Mutability::Boxed,
                    fields,
                },
            );
            Ok(WordVal::Loc(l))
        }
        (
            FExpr::Lam(lam),
            FTy::Arrow {
                params,
                phi_in,
                phi_out,
                ret,
            },
        ) => {
            if lam.params.len() != params.len() {
                return Err(RuntimeError::Stuck(format!(
                    "lambda arity does not match boundary type: {v} vs {ty}"
                )));
            }
            let block = lambda_glue_block(v.clone(), params, phi_in, phi_out, ret);
            let l = mem.alloc("clos", HeapVal::Code(block));
            Ok(WordVal::Loc(l))
        }
        _ => Err(RuntimeError::Stuck(format!(
            "cannot translate F value {v} at type {ty}"
        ))),
    }
}

/// Builds the λ→code glue block (deviations D3/D4; see the module docs
/// for the scheme).
pub(crate) fn lambda_glue_block(
    lam_value: FExpr,
    params: &[FTy],
    phi_in: &[TTy],
    phi_out: &[TTy],
    ret: &FTy,
) -> CodeBlock {
    let n = params.len();
    let m = n + phi_in.len();
    let z = TyVar::new("z");
    let e = TyVar::new("e");
    let zi = TyVar::new("zi");
    let cont = arrow_cont_ty(phi_out, ret, &z, &e);

    // Entry stack τ̄𝒯 :: φi :: z.
    let mut entry_prefix: Vec<TTy> = params.iter().rev().map(fty_to_tty).collect();
    entry_prefix.extend(phi_in.iter().cloned());
    let entry_sigma = StackTy {
        prefix: entry_prefix.clone(),
        tail: StackTail::Var(z.clone()),
    };

    // e_body = (λ[zo; τ̄𝒯::φi; φo](x̄). (λ[zp; φi; φo](d). v x̄) popper)
    //          fetch₁ … fetchₙ
    let xs: Vec<VarName> = (1..=n).map(|i| VarName::new(format!("x{i}"))).collect();
    let zo = TyVar::new("zo");
    let zp = TyVar::new("zp");

    let popper = FExpr::Boundary {
        ty: FTy::Unit,
        sigma_out: Some(StackTy {
            prefix: phi_in.to_vec(),
            tail: StackTail::Var(zo.clone()),
        }),
        comp: Box::new(TComp::bare(InstrSeq::new(
            vec![b::mv(b::r3(), b::unit_v()), b::sfree(n)],
            Terminator::Halt {
                ty: TTy::Unit,
                sigma: StackTy {
                    prefix: phi_in.to_vec(),
                    tail: StackTail::Var(zo.clone()),
                },
                val: b::r3(),
            },
        ))),
    };

    let inner_app = FExpr::app(
        lam_value,
        xs.iter().map(|x| FExpr::Var(x.clone())).collect(),
    );
    let middle = FExpr::Lam(Box::new(Lam {
        params: vec![(VarName::new("d"), FTy::Unit)],
        zeta: zp,
        phi_in: phi_in.to_vec(),
        phi_out: phi_out.to_vec(),
        body: inner_app,
    }));
    let mut outer_phi_in: Vec<TTy> = params.iter().rev().map(fty_to_tty).collect();
    outer_phi_in.extend(phi_in.iter().cloned());
    let outer = FExpr::Lam(Box::new(Lam {
        params: xs
            .iter()
            .zip(params)
            .map(|(x, t)| (x.clone(), t.clone()))
            .collect(),
        zeta: zo,
        phi_in: outer_phi_in,
        phi_out: phi_out.to_vec(),
        body: FExpr::app(middle, vec![popper]),
    }));

    // fetchᵢ reads argument i from slot n−i of the exposed prefix.
    let fetch_sigma = StackTy {
        prefix: entry_prefix.clone(),
        tail: StackTail::Var(zi.clone()),
    };
    let fetchers: Vec<FExpr> = (1..=n)
        .map(|i| FExpr::Boundary {
            ty: params[i - 1].clone(),
            sigma_out: None,
            comp: Box::new(TComp::bare(InstrSeq::new(
                vec![b::sld(b::r1(), n - i)],
                Terminator::Halt {
                    ty: fty_to_tty(&params[i - 1]),
                    sigma: fetch_sigma.clone(),
                    val: b::r1(),
                },
            ))),
        })
        .collect();
    let e_body = FExpr::app(outer, fetchers);

    // The glue instruction sequence.
    let mut instrs = vec![b::salloc(1)];
    for k in 0..m {
        instrs.push(b::sld(b::r2(), k + 1));
        instrs.push(b::sst(k, b::r2()));
    }
    instrs.push(b::sst(m, b::ra()));
    instrs.push(funtal_syntax::Instr::Import {
        rd: b::r1(),
        zeta: zi,
        protected: StackTy {
            prefix: vec![cont.clone()],
            tail: StackTail::Var(z.clone()),
        },
        ty: ret.clone(),
        body: Box::new(e_body),
    });
    instrs.push(b::sld(b::ra(), phi_out.len()));
    for k in (0..phi_out.len()).rev() {
        instrs.push(b::sld(b::r2(), k));
        instrs.push(b::sst(k + 1, b::r2()));
    }
    instrs.push(b::sfree(1));

    CodeBlock {
        delta: vec![
            funtal_syntax::TyVarDecl::stack(z.clone()),
            funtal_syntax::TyVarDecl::ret(e),
        ],
        chi: RegFileTy::from_pairs([(b::ra(), cont)]),
        sigma: entry_sigma,
        q: RetMarker::Reg(b::ra()),
        body: InstrSeq::new(
            instrs,
            Terminator::Ret {
                target: b::ra(),
                val: b::r1(),
            },
        ),
    }
}

/// `τℱ𝒯(w, M)`: translates a T word value to an F value at type `ty`.
///
/// For arrows this builds the Fig 10 wrapper: a lambda that imports each
/// argument, pushes it, installs a fresh halting continuation block
/// `ℓend` in `ra`, and `call`s the code pointer.
pub(crate) fn t_to_f(mem: &mut Memory, w: &WordVal, ty: &FTy) -> RResult<FExpr> {
    match (w, ty) {
        (WordVal::Int(n), FTy::Int) => Ok(FExpr::Int(*n)),
        (WordVal::Unit, FTy::Unit) => Ok(FExpr::Unit),
        (WordVal::Fold { body, .. }, FTy::Rec(..)) => {
            let inner_ty = unroll_fty(ty).expect("checked Rec");
            let v = t_to_f(mem, body, &inner_ty)?;
            Ok(FExpr::Fold {
                ann: ty.clone(),
                body: Box::new(v),
            })
        }
        (WordVal::Loc(l), FTy::Tuple(ts)) => {
            let HeapVal::Tuple { fields, .. } = mem.heap_get(l)?.clone() else {
                return Err(RuntimeError::NotTuple(format!("{l} is code")));
            };
            if fields.len() != ts.len() {
                return Err(RuntimeError::Stuck(format!(
                    "tuple width mismatch translating {l} at {ty}"
                )));
            }
            let mut out = Vec::with_capacity(ts.len());
            for (f, t) in fields.iter().zip(ts) {
                out.push(t_to_f(mem, f, t)?);
            }
            Ok(FExpr::Tuple(out))
        }
        (
            _,
            FTy::Arrow {
                params,
                phi_in,
                phi_out,
                ret,
            },
        ) => {
            // Any code-pointer-shaped word (a location, possibly under
            // pending instantiations) can be wrapped.
            wrap_code_as_lambda(mem, w.clone(), params, phi_in, phi_out, ret)
        }
        _ => Err(RuntimeError::Stuck(format!(
            "cannot translate T value {w} at type {ty}"
        ))),
    }
}

/// Checks that an arrow's stack prefixes are closed, a precondition of
/// the code→λ wrapper (shared by both evaluation strategies).
pub(crate) fn check_wrappable(phi_in: &[TTy], phi_out: &[TTy]) -> RResult<()> {
    let free_prefix: bool = phi_out.iter().any(|t| !ftv_tty(t).is_empty())
        || phi_in.iter().any(|t| !ftv_tty(t).is_empty());
    if free_prefix {
        return Err(RuntimeError::Stuck(
            "cannot wrap a code pointer whose arrow prefixes have free type variables".to_string(),
        ));
    }
    Ok(())
}

/// Builds the `ℓend` halting block of the Fig 10 code→λ wrapper:
/// `code[z2: stk]{r1: τ'𝒯; φo :: z2} end{…}. halt τ'𝒯, φo :: z2 {r1}`.
pub(crate) fn end_block(ret_tty: &TTy, phi_out: &[TTy]) -> CodeBlock {
    let z2 = TyVar::new("z2");
    let end_sigma = StackTy {
        prefix: phi_out.to_vec(),
        tail: StackTail::Var(z2.clone()),
    };
    CodeBlock {
        delta: vec![funtal_syntax::TyVarDecl::stack(z2)],
        chi: RegFileTy::from_pairs([(b::r1(), ret_tty.clone())]),
        sigma: end_sigma.clone(),
        q: RetMarker::end(ret_tty.clone(), end_sigma.clone()),
        body: InstrSeq::just(Terminator::Halt {
            ty: ret_tty.clone(),
            sigma: end_sigma,
            val: b::r1(),
        }),
    }
}

/// Builds the wrapper lambda of Fig 10 around a code-pointer word,
/// given the already-allocated `ℓend` label (shared by both evaluation
/// strategies).
pub(crate) fn wrapper_lambda(
    w: WordVal,
    lend: &funtal_syntax::Label,
    params: &[FTy],
    phi_in: &[TTy],
    phi_out: &[TTy],
    ret: &FTy,
) -> FExpr {
    let ret_tty = fty_to_tty(ret);
    let z = TyVar::new("z");

    // Body component: import and push each argument, set ra, call w.
    let mut instrs = Vec::new();
    let mut cur_stack = StackTy {
        prefix: phi_in.to_vec(),
        tail: StackTail::Var(z.clone()),
    };
    for (i, t) in params.iter().enumerate() {
        let x = VarName::new(format!("x{}", i + 1));
        instrs.push(funtal_syntax::Instr::Import {
            rd: b::r1(),
            zeta: TyVar::new(format!("zi{}", i + 1)),
            protected: cur_stack.clone(),
            ty: t.clone(),
            body: Box::new(FExpr::Var(x)),
        });
        instrs.push(b::salloc(1));
        instrs.push(b::sst(0, b::r1()));
        cur_stack = cur_stack.cons(fty_to_tty(t));
    }
    instrs.push(b::mv(
        b::ra(),
        funtal_syntax::SmallVal::loc(lend.as_str())
            .instantiate(vec![funtal_syntax::Inst::Stack(StackTy::var(z.clone()))]),
    ));
    let out_sigma = StackTy {
        prefix: phi_out.to_vec(),
        tail: StackTail::Var(z.clone()),
    };
    let comp = TComp::bare(InstrSeq::new(
        instrs,
        Terminator::Call {
            target: funtal_syntax::SmallVal::Word(w),
            sigma: StackTy::var(z.clone()),
            q: RetMarker::end(ret_tty, out_sigma.clone()),
        },
    ));

    let body = FExpr::Boundary {
        ty: ret.clone(),
        sigma_out: if phi_out == phi_in && phi_out.is_empty() {
            None
        } else {
            Some(out_sigma)
        },
        comp: Box::new(comp),
    };
    FExpr::Lam(Box::new(Lam {
        params: (1..=params.len())
            .map(|i| (VarName::new(format!("x{i}")), params[i - 1].clone()))
            .collect(),
        zeta: z,
        phi_in: phi_in.to_vec(),
        phi_out: phi_out.to_vec(),
        body,
    }))
}

/// Builds the code→λ wrapper of Fig 10 (uniformly covering
/// stack-modifying arrows) and allocates its `ℓend` halting block.
fn wrap_code_as_lambda(
    mem: &mut Memory,
    w: WordVal,
    params: &[FTy],
    phi_in: &[TTy],
    phi_out: &[TTy],
    ret: &FTy,
) -> RResult<FExpr> {
    check_wrappable(phi_in, phi_out)?;
    let ret_tty = fty_to_tty(ret);
    let lend = mem.alloc("lend", HeapVal::Code(end_block(&ret_tty, phi_out)));
    Ok(wrapper_lambda(w, &lend, params, phi_in, phi_out, ret))
}

#[cfg(test)]
mod tests {
    use super::*;
    use funtal_syntax::alpha::alpha_eq_tty;
    use funtal_syntax::build::*;

    #[test]
    fn fig9_base_types() {
        assert_eq!(fty_to_tty(&fint()), int());
        assert_eq!(fty_to_tty(&funit()), unit());
        assert_eq!(fty_to_tty(&fvar_ty("a")), tvar("a"));
    }

    #[test]
    fn fig9_mu_and_tuples() {
        assert_eq!(
            fty_to_tty(&fmu("a", ftuple_ty(vec![fint(), fvar_ty("a")]))),
            mu("a", box_tuple(vec![int(), tvar("a")]))
        );
    }

    #[test]
    fn fig9_plain_arrow() {
        // (int, unit) → int becomes
        // box ∀[z,e].{ra: box∀[].{r1:int; z}e; unit :: int :: z} ra
        let got = fty_to_tty(&arrow(vec![fint(), funit()], fint()));
        let want = code_ty(
            vec![d_stk("z"), d_ret("e")],
            chi([(
                ra(),
                code_ty(vec![], chi([(r1(), int())]), zvar("z"), q_var("e")),
            )]),
            stack(vec![unit(), int()], zvar("z")),
            q_reg(ra()),
        );
        assert!(alpha_eq_tty(&got, &want), "got {got}");
    }

    #[test]
    fn fig9_stack_modifying_arrow() {
        // (int)[.; int :: .] → unit: the push-7 type.
        let got = fty_to_tty(&arrow_sm(vec![fint()], vec![], vec![int()], funit()));
        let want = code_ty(
            vec![d_stk("z"), d_ret("e")],
            chi([(
                ra(),
                code_ty(
                    vec![],
                    chi([(r1(), unit())]),
                    stack(vec![int()], zvar("z")),
                    q_var("e"),
                ),
            )]),
            stack(vec![int()], zvar("z")),
            q_reg(ra()),
        );
        assert!(alpha_eq_tty(&got, &want), "got {got}");
    }

    #[test]
    fn fig9_avoids_capture() {
        // An arrow mentioning a free variable named z must not capture it
        // in the generated ∀[z, e].
        let t = arrow(vec![fvar_ty("z")], fint());
        let got = fty_to_tty(&t);
        let c = got.as_code().unwrap();
        assert_eq!(c.delta[0].var.as_str(), "z1");
        // The argument slot still refers to the free z.
        assert_eq!(c.sigma.prefix[0], tvar("z"));
    }

    #[test]
    fn fig10_base_round_trip() {
        let mut mem = Memory::new();
        let w = f_to_t(&mut mem, &fint_e(42), &fint()).unwrap();
        assert_eq!(w, WordVal::Int(42));
        let v = t_to_f(&mut mem, &w, &fint()).unwrap();
        assert_eq!(v, fint_e(42));
    }

    #[test]
    fn fig10_tuple_round_trip() {
        let mut mem = Memory::new();
        let ty = ftuple_ty(vec![fint(), ftuple_ty(vec![funit()])]);
        let v = ftuple(vec![fint_e(1), ftuple(vec![funit_e()])]);
        let w = f_to_t(&mut mem, &v, &ty).unwrap();
        assert!(matches!(w, WordVal::Loc(_)));
        let back = t_to_f(&mut mem, &w, &ty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn fig10_fold_round_trip() {
        let mut mem = Memory::new();
        let ty = fmu("a", fint());
        let v = ffold(ty.clone(), fint_e(7));
        let w = f_to_t(&mut mem, &v, &ty).unwrap();
        match &w {
            WordVal::Fold { body, .. } => assert_eq!(**body, WordVal::Int(7)),
            _ => panic!("expected fold"),
        }
        let back = t_to_f(&mut mem, &w, &ty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn fig10_lambda_allocates_glue() {
        let mut mem = Memory::new();
        let v = lam(vec![("x", fint())], fadd(var("x"), fint_e(1)));
        let w = f_to_t(&mut mem, &v, &arrow(vec![fint()], fint())).unwrap();
        let WordVal::Loc(l) = &w else {
            panic!("expected a location")
        };
        assert!(matches!(mem.heap_get(l).unwrap(), HeapVal::Code(_)));
    }

    #[test]
    fn fig10_code_wraps_as_lambda() {
        let mut mem = Memory::new();
        let w = WordVal::Loc(funtal_syntax::Label::new("somecode"));
        let v = t_to_f(&mut mem, &w, &arrow(vec![fint()], fint())).unwrap();
        let FExpr::Lam(lam) = &v else {
            panic!("expected a lambda")
        };
        assert_eq!(lam.params.len(), 1);
        // ℓend was allocated.
        assert_eq!(mem.heap.len(), 1);
    }

    #[test]
    fn translation_mismatch_errors() {
        let mut mem = Memory::new();
        assert!(f_to_t(&mut mem, &fint_e(1), &funit()).is_err());
        assert!(t_to_f(&mut mem, &WordVal::Int(1), &funit()).is_err());
    }
}
