//! The T type system (Fig 2 of the paper): instruction typing
//! `Ψ;∆;χ;σ;q ⊢ ι ⇒ ∆';χ';σ';q'`, sequence typing, terminator rules
//! (including both `call` rules), the `ret-type`/`ret-addr-type`
//! metafunctions, and component typing `Ψ;∆;χ;σ;q ⊢ (I,H) : τ;σ'`.
//!
//! The FT checker reuses everything here via the `*_with` entry points,
//! which take the instruction rule to check with ([`ExtHook`]): the FT
//! checker extends [`check_instr`] with the multi-language instructions
//! (`import`, `protect`).

use std::collections::BTreeMap;
use std::sync::Arc;

use funtal_syntax::alpha::{alpha_eq_ret, alpha_eq_stack, alpha_eq_tty};
use funtal_syntax::subst::Subst;
use funtal_syntax::{
    CodeBlock, CodeTy, HeapTy, HeapTyping, HeapVal, Inst, Instr, InstrSeq, Kind, Label, Mutability,
    Reg, RegFileTy, RetMarker, SmallVal, StackTail, StackTy, TComp, TTy, Terminator, WordVal,
};

use crate::error::{TResult, TypeError};
use crate::machine::MAX_STACK_SLOTS;
use crate::value_ty::{chi_subtype, type_of_small, type_of_word};
use crate::wf::{check_distinct, wf_chi, wf_ret, wf_stack, wf_tty, Delta};

/// The static context threaded through instruction checking:
/// `Ψ; ∆; χ; σ; q`.
#[derive(Clone, Debug)]
pub struct TCtx {
    /// Heap typing `Ψ`.
    pub psi: HeapTyping,
    /// Type environment `∆`.
    pub delta: Delta,
    /// Register-file typing `χ`.
    pub chi: RegFileTy,
    /// Stack typing `σ`.
    pub sigma: StackTy,
    /// Return marker `q`.
    pub q: RetMarker,
}

impl TCtx {
    /// A fresh context from its five parts.
    pub fn new(
        psi: HeapTyping,
        delta: Delta,
        chi: RegFileTy,
        sigma: StackTy,
        q: RetMarker,
    ) -> Self {
        TCtx {
            psi,
            delta,
            chi,
            sigma,
            q,
        }
    }

    fn reg(&self, r: Reg) -> TResult<&TTy> {
        self.chi.get(r).ok_or(TypeError::UnboundReg(r))
    }

    fn slot(&self, i: usize) -> TResult<&TTy> {
        self.sigma.get(i).ok_or(TypeError::BadStackIndex {
            idx: i,
            visible: self.sigma.visible_len(),
        })
    }

    /// Errors if writing `rd` would clobber the return continuation.
    fn guard_write(&self, rd: Reg, what: &'static str) -> TResult<()> {
        if self.q == RetMarker::Reg(rd) {
            Err(TypeError::ClobbersMarker(what))
        } else {
            Ok(())
        }
    }
}

/// The side condition `·[∆]; χ; σ ⊢ q` on the instruction and sequence
/// judgments: executing code must know where its return continuation
/// lives. Register and stack markers must be visible; abstract markers
/// must be bound by the *enclosing block's* `∆` (which is how
/// component-local blocks may carry abstract markers, §3).
pub fn check_marker(ctx: &TCtx) -> TResult<()> {
    match &ctx.q {
        RetMarker::Reg(r) => ctx.reg(*r).map(|_| ()),
        RetMarker::Stack(i) => ctx.slot(*i).map(|_| ()),
        RetMarker::Var(v) => {
            if ctx.delta.binds(v, Kind::Ret) {
                Ok(())
            } else {
                Err(TypeError::UnboundTyVar(v.clone()))
            }
        }
        RetMarker::End { .. } => wf_ret(&ctx.delta, &ctx.q),
        RetMarker::Out => Err(TypeError::BadMarker {
            found: RetMarker::Out,
            need: "a T return marker (out belongs to F code)",
        }),
    }
}

/// Decomposes a continuation type `box ∀[].{r : τ; σ'}q'`, requiring an
/// empty binder list and exactly one register entry.
fn cont_parts(t: &TTy) -> TResult<(Reg, &TTy, &StackTy, &RetMarker)> {
    let code = t
        .as_code()
        .ok_or_else(|| TypeError::wrong_form("a continuation code pointer", t))?;
    if !code.delta.is_empty() {
        return Err(TypeError::wrong_form(
            "a continuation with no remaining type parameters",
            t,
        ));
    }
    let mut entries = code.chi.iter();
    let (r, ty) = entries
        .next()
        .ok_or_else(|| TypeError::wrong_form("a continuation expecting one register", t))?;
    if entries.next().is_some() {
        return Err(TypeError::wrong_form(
            "a continuation expecting exactly one register",
            t,
        ));
    }
    Ok((r, ty, &code.sigma, &code.q))
}

/// `ret-type(q, χ, σ) = τ; σ'` (Fig 2): the type of the value passed to
/// the return continuation at `q`, and the stack at that point.
pub fn ret_type(q: &RetMarker, chi: &RegFileTy, sigma: &StackTy) -> TResult<(TTy, StackTy)> {
    let t = match q {
        RetMarker::Reg(r) => chi.get(*r).ok_or(TypeError::UnboundReg(*r))?,
        RetMarker::Stack(i) => sigma.get(*i).ok_or(TypeError::BadStackIndex {
            idx: *i,
            visible: sigma.visible_len(),
        })?,
        RetMarker::End { ty, sigma } => return Ok(((**ty).clone(), sigma.clone())),
        other => return Err(TypeError::NoRetType(other.clone())),
    };
    let (_, ty, s, _) = cont_parts(t)?;
    Ok((ty.clone(), s.clone()))
}

/// `ret-addr-type(q, χ, σ)` (Fig 2): the full code type of the return
/// continuation at `q` (only defined for register and stack markers).
pub fn ret_addr_type<'a>(
    q: &RetMarker,
    chi: &'a RegFileTy,
    sigma: &'a StackTy,
) -> TResult<&'a CodeTy> {
    let t = match q {
        RetMarker::Reg(r) => chi.get(*r).ok_or(TypeError::UnboundReg(*r))?,
        RetMarker::Stack(i) => sigma.get(*i).ok_or(TypeError::BadStackIndex {
            idx: *i,
            visible: sigma.visible_len(),
        })?,
        other => return Err(TypeError::NoRetType(other.clone())),
    };
    t.as_code()
        .ok_or_else(|| TypeError::wrong_form("a code pointer at the return marker", t))
}

/// Checks a single instruction (`Ψ;∆;χ;σ;q ⊢ ι ⇒ ∆';χ';σ';q'`): the
/// context moves in, the rule updates `∆`, `χ`, `σ` and `q` in place,
/// and the result is the context for the next instruction.
///
/// # Errors
///
/// Returns [`TypeError::MultiLanguage`] for `import`/`protect`; the FT
/// checker's instruction rule ([`ExtHook`]) handles those.
pub fn check_instr(mut ctx: TCtx, instr: &Instr) -> TResult<TCtx> {
    match instr {
        Instr::Arith { rd, rs, src, .. } => {
            let ts = ctx.reg(*rs)?;
            if !alpha_eq_tty(ts, &TTy::Int) {
                return Err(TypeError::mismatch("aop first operand", &TTy::Int, ts));
            }
            let tu = type_of_small(&ctx.psi, &ctx.delta, &ctx.chi, src)?;
            if !alpha_eq_tty(&tu, &TTy::Int) {
                return Err(TypeError::mismatch("aop second operand", &TTy::Int, &tu));
            }
            ctx.guard_write(*rd, "aop destination")?;
            ctx.chi.insert(*rd, TTy::Int);
        }
        Instr::Bnz { r, target } => {
            let tr = ctx.reg(*r)?;
            if !alpha_eq_tty(tr, &TTy::Int) {
                return Err(TypeError::mismatch("bnz register", &TTy::Int, tr));
            }
            check_jump_target(&ctx, target, "bnz")?;
        }
        Instr::Ld { rd, rs, idx } => {
            let fields = match ctx.reg(*rs)? {
                TTy::Ref(ts) => ts,
                TTy::Boxed(h) => match &**h {
                    HeapTy::Tuple(ts) => ts,
                    other => return Err(TypeError::wrong_form("a tuple pointer", other)),
                },
                other => return Err(TypeError::wrong_form("a tuple pointer", other)),
            };
            let ty = fields
                .get(*idx)
                .ok_or(TypeError::BadFieldIndex {
                    idx: *idx,
                    width: fields.len(),
                })?
                .clone();
            ctx.guard_write(*rd, "ld destination")?;
            ctx.chi.insert(*rd, ty);
        }
        Instr::St { rd, idx, rs } => {
            if ctx.q == RetMarker::Reg(*rs) {
                return Err(TypeError::MarkerEscape("st of the return continuation"));
            }
            let fields = match ctx.reg(*rd)? {
                TTy::Ref(ts) => ts,
                other => {
                    return Err(TypeError::wrong_form(
                        "a mutable (ref) tuple pointer",
                        other,
                    ))
                }
            };
            let want = fields.get(*idx).ok_or(TypeError::BadFieldIndex {
                idx: *idx,
                width: fields.len(),
            })?;
            let have = ctx.reg(*rs)?;
            if !alpha_eq_tty(have, want) {
                return Err(TypeError::mismatch("st field", want, have));
            }
        }
        Instr::Ralloc { rd, n } | Instr::Balloc { rd, n } => {
            ctx.guard_write(*rd, "alloc destination")?;
            let front = ctx.sigma.pop_top(*n).ok_or_else(|| TypeError::StackShape {
                need: format!("{n} visible slots to allocate from"),
                found: ctx.sigma.clone(),
            })?;
            if let RetMarker::Stack(i) = ctx.q {
                if i < *n {
                    return Err(TypeError::ClobbersMarker("alloc of the marker slot"));
                }
                ctx.q = RetMarker::Stack(i - n);
            }
            let ty = if matches!(instr, Instr::Ralloc { .. }) {
                TTy::Ref(front)
            } else {
                TTy::boxed_tuple(front)
            };
            ctx.chi.insert(*rd, ty);
        }
        Instr::Mv { rd, src } => {
            // Second rule of Fig 2: moving the continuation moves the
            // marker.
            if let (SmallVal::Reg(rs), RetMarker::Reg(qr)) = (src, &ctx.q) {
                if rs == qr {
                    let ty = ctx.reg(*rs)?.clone();
                    ctx.chi.insert(*rd, ty);
                    ctx.q = RetMarker::Reg(*rd);
                    return Ok(ctx);
                }
            }
            let ty = type_of_small(&ctx.psi, &ctx.delta, &ctx.chi, src)?;
            ctx.guard_write(*rd, "mv destination")?;
            ctx.chi.insert(*rd, ty);
        }
        Instr::Salloc(n) => {
            let visible = ctx.sigma.visible_len();
            if *n > MAX_STACK_SLOTS.saturating_sub(visible) {
                return Err(TypeError::Other(format!(
                    "{visible} visible stack slots grown by {n} pass the bound of \
                     {MAX_STACK_SLOTS} slots"
                )));
            }
            // n fresh `unit` slots on top, in one splice: consing them
            // one at a time copies the stack n times.
            ctx.sigma
                .prefix
                .splice(0..0, std::iter::repeat_n(TTy::Unit, *n));
            ctx.q = ctx.q.shifted_by(*n as isize);
        }
        Instr::Sfree(n) => {
            ctx.sigma.pop_top(*n).ok_or_else(|| TypeError::StackShape {
                need: format!("{n} visible slots to free"),
                found: ctx.sigma.clone(),
            })?;
            if let RetMarker::Stack(i) = ctx.q {
                if i < *n {
                    return Err(TypeError::ClobbersMarker("sfree of the marker slot"));
                }
                ctx.q = RetMarker::Stack(i - n);
            }
        }
        Instr::Sld { rd, idx } => {
            let ty = ctx.slot(*idx)?.clone();
            if ctx.q == RetMarker::Stack(*idx) {
                // Loading the continuation moves the marker into `rd`.
                ctx.q = RetMarker::Reg(*rd);
            } else {
                ctx.guard_write(*rd, "sld destination")?;
            }
            ctx.chi.insert(*rd, ty);
        }
        Instr::Sst { idx, rs } => {
            let ty = ctx.reg(*rs)?.clone();
            ctx.slot(*idx)?;
            if ctx.q == RetMarker::Reg(*rs) {
                // Storing the continuation moves the marker to slot idx.
                ctx.q = RetMarker::Stack(*idx);
            } else if ctx.q == RetMarker::Stack(*idx) {
                return Err(TypeError::ClobbersMarker("sst over the marker slot"));
            }
            ctx.sigma.prefix[*idx] = ty;
        }
        Instr::Unpack { tv, rd, src } => {
            if ctx.delta.lookup(tv).is_some() {
                return Err(TypeError::DuplicateTyVar(tv.clone()));
            }
            let t = type_of_small(&ctx.psi, &ctx.delta, &ctx.chi, src)?;
            let TTy::Exists(a, body) = &t else {
                return Err(TypeError::wrong_form("an existential package", &t));
            };
            ctx.guard_write(*rd, "unpack destination")?;
            let opened = Subst::one(a.clone(), Inst::Ty(TTy::Var(tv.clone()))).tty(body);
            ctx.delta.push(funtal_syntax::TyVarDecl::ty(tv.clone()));
            ctx.chi.insert(*rd, opened);
        }
        Instr::Unfold { rd, src } => {
            let t = type_of_small(&ctx.psi, &ctx.delta, &ctx.chi, src)?;
            let TTy::Rec(a, body) = &t else {
                return Err(TypeError::wrong_form("a value of recursive type", &t));
            };
            ctx.guard_write(*rd, "unfold destination")?;
            let unrolled = Subst::one(a.clone(), Inst::Ty(t.clone())).tty(body);
            ctx.chi.insert(*rd, unrolled);
        }
        Instr::Protect { .. } => return Err(TypeError::MultiLanguage("protect")),
        Instr::Import { .. } => return Err(TypeError::MultiLanguage("import")),
    }
    Ok(ctx)
}

/// Shared precondition check for `jmp`/`bnz` targets: the target must be
/// a fully instantiated code pointer with the same stack type and return
/// marker, and a register file below the current one.
fn check_jump_target(ctx: &TCtx, target: &SmallVal, what: &'static str) -> TResult<()> {
    let t = type_of_small(&ctx.psi, &ctx.delta, &ctx.chi, target)?;
    let code = t
        .as_code()
        .ok_or_else(|| TypeError::wrong_form("a code pointer", &t))?;
    if !code.delta.is_empty() {
        return Err(TypeError::JumpMismatch {
            what: "instantiation",
            expected: "no remaining type parameters".to_string(),
            found: format!("{} remaining", code.delta.len()),
        }
        .at(what));
    }
    if !alpha_eq_ret(&code.q, &ctx.q) {
        return Err(TypeError::JumpMismatch {
            what: "return marker",
            expected: code.q.to_string(),
            found: ctx.q.to_string(),
        }
        .at(what));
    }
    if !alpha_eq_stack(&code.sigma, &ctx.sigma) {
        return Err(TypeError::JumpMismatch {
            what: "stack",
            expected: code.sigma.to_string(),
            found: ctx.sigma.to_string(),
        }
        .at(what));
    }
    chi_subtype(&ctx.chi, &code.chi)?;
    Ok(())
}

/// Checks a terminator (`jmp`, `call`, `ret`, `halt`) against the
/// current context.
pub fn check_terminator(ctx: &TCtx, term: &Terminator) -> TResult<()> {
    match term {
        Terminator::Jmp(u) => check_jump_target(ctx, u, "jmp"),
        Terminator::Ret { target, val } => {
            if ctx.q != RetMarker::Reg(*target) {
                return Err(TypeError::BadMarker {
                    found: ctx.q.clone(),
                    need: "the marker must be the register being returned through",
                });
            }
            let t = ctx.reg(*target)?;
            let (rret, tau, sigma_c, _q_any) = cont_parts(t)?;
            if rret != *val {
                return Err(TypeError::JumpMismatch {
                    what: "return register",
                    expected: rret.to_string(),
                    found: val.to_string(),
                }
                .at("ret"));
            }
            let have = ctx.reg(*val)?;
            if !alpha_eq_tty(have, tau) {
                return Err(TypeError::mismatch("ret value", tau, have));
            }
            if !alpha_eq_stack(sigma_c, &ctx.sigma) {
                return Err(TypeError::JumpMismatch {
                    what: "stack",
                    expected: sigma_c.to_string(),
                    found: ctx.sigma.to_string(),
                }
                .at("ret"));
            }
            Ok(())
        }
        Terminator::Halt { ty, sigma, val } => {
            let RetMarker::End {
                ty: want_ty,
                sigma: want_sigma,
            } = &ctx.q
            else {
                return Err(TypeError::BadMarker {
                    found: ctx.q.clone(),
                    need: "halt requires the end{τ;σ} marker",
                });
            };
            if !alpha_eq_tty(ty, want_ty) {
                return Err(TypeError::mismatch("halt type", want_ty, ty));
            }
            if !alpha_eq_stack(sigma, want_sigma) {
                return Err(TypeError::mismatch(
                    "halt stack annotation",
                    want_sigma,
                    sigma,
                ));
            }
            if !alpha_eq_stack(&ctx.sigma, want_sigma) {
                return Err(TypeError::mismatch(
                    "halt-time stack",
                    want_sigma,
                    &ctx.sigma,
                ));
            }
            let have = ctx.reg(*val)?;
            if !alpha_eq_tty(have, ty) {
                return Err(TypeError::mismatch("halt value", ty, have));
            }
            Ok(())
        }
        Terminator::Call {
            target,
            sigma: sigma0,
            q: qarg,
        } => check_call(ctx, target, sigma0, qarg),
    }
}

/// The two `call` rules of Fig 2 (merged: the halting case and the
/// stack-marker case differ only in how the new marker is computed).
fn check_call(ctx: &TCtx, target: &SmallVal, sigma0: &StackTy, qarg: &RetMarker) -> TResult<()> {
    let t = type_of_small(&ctx.psi, &ctx.delta, &ctx.chi, target)?;
    let code = t
        .as_code()
        .ok_or_else(|| TypeError::wrong_form("a code pointer", &t))?;

    // The callee must abstract exactly its stack tail and return marker:
    // ∀[ζ: stk, ε: ret].
    let (zeta, eps) = match code.delta.as_slice() {
        [z, e] if z.kind == Kind::Stack && e.kind == Kind::Ret => (z.var.clone(), e.var.clone()),
        _ => {
            return Err(TypeError::wrong_form(
                "a callee of type ∀[ζ: stk, ε: ret].{χ;σ}q",
                &t,
            ))
        }
    };

    // σ̂ = τ̄ :: ζ.
    if code.sigma.tail != StackTail::Var(zeta.clone()) {
        return Err(TypeError::wrong_form(
            "a callee whose stack ends in its own abstract tail ζ",
            &code.sigma,
        ));
    }
    let pre = &code.sigma.prefix;

    // σ = τ̄ :: σ0: the current stack splits into the callee's exposed
    // prefix and the protected tail declared by the instruction.
    let (front, rest) = ctx
        .sigma
        .split(pre.len())
        .ok_or_else(|| TypeError::StackShape {
            need: format!("{} exposed slots matching the callee", pre.len()),
            found: ctx.sigma.clone(),
        })?;
    for (have, want) in front.iter().zip(pre) {
        if !alpha_eq_tty(have, want) {
            return Err(TypeError::mismatch("call argument slot", want, have));
        }
    }
    if !alpha_eq_stack(&rest, sigma0) {
        return Err(TypeError::mismatch("call protected tail", sigma0, &rest));
    }
    wf_stack(&ctx.delta, sigma0)?;

    // ∆ ⊢ χ̂ \ q̂: apart from the marker register, the callee's register
    // preconditions may not mention its own ζ/ε.
    let chi_hat_rest = match &code.q {
        RetMarker::Reg(r) => code.chi.without(*r),
        _ => code.chi.clone(),
    };
    wf_chi(&ctx.delta, &chi_hat_rest)
        .map_err(|e| e.at("call: χ̂ \\ q̂ must be well-formed in the caller"))?;

    // ret-addr-type(q̂, χ̂, σ̂) = ∀[].{r : τ; σ̂'}ε.
    let cont = ret_addr_type(&code.q, &code.chi, &code.sigma)?;
    if !cont.delta.is_empty() {
        return Err(TypeError::wrong_form(
            "a callee continuation with an empty ∀",
            &TTy::Boxed(Arc::new(HeapTy::Code(cont.clone()))),
        ));
    }
    if cont.q != RetMarker::Var(eps.clone()) {
        return Err(TypeError::wrong_form(
            "a callee continuation whose marker is the callee's ε",
            &cont.q,
        ));
    }
    let mut cont_regs = cont.chi.iter();
    let Some((_rret, tau_ret)) = cont_regs.next() else {
        return Err(TypeError::wrong_form(
            "a continuation expecting one register",
            &cont.q,
        ));
    };
    if cont_regs.next().is_some() {
        return Err(TypeError::wrong_form(
            "a continuation expecting exactly one register",
            &cont.q,
        ));
    }
    if cont.sigma.tail != StackTail::Var(zeta.clone()) {
        return Err(TypeError::wrong_form(
            "a continuation stack ending in the callee's ζ",
            &cont.sigma,
        ));
    }
    let pre_out = &cont.sigma.prefix;

    // ∆ ⊢ τ: the result type cannot mention the callee's ζ/ε.
    wf_tty(&ctx.delta, tau_ret).map_err(|e| e.at("call result type"))?;

    // The new marker handed to the callee.
    let qnew = match &ctx.q {
        RetMarker::End { .. } => {
            if !alpha_eq_ret(qarg, &ctx.q) {
                return Err(TypeError::mismatch(
                    "call marker (halting case)",
                    &ctx.q,
                    qarg,
                ));
            }
            qarg.clone()
        }
        RetMarker::Stack(i) => {
            // Fig 2: the marker slot must lie inside the protected tail
            // (i > j with entries τ0..τj, i.e. i ≥ |front|), and the
            // callee's continuation sees it at i + k − j.
            if *i < front.len() {
                return Err(TypeError::BadMarker {
                    found: ctx.q.clone(),
                    need: "the marker slot must be inside the protected tail",
                });
            }
            let expect = RetMarker::Stack(i + pre_out.len() - front.len());
            if !alpha_eq_ret(qarg, &expect) {
                return Err(TypeError::mismatch(
                    "call marker (stack case)",
                    &expect,
                    qarg,
                ));
            }
            expect
        }
        other => {
            return Err(TypeError::BadMarker {
                found: other.clone(),
                need: "call requires an end{τ;σ} or stack-slot marker \
                       (save a register continuation to the stack first)",
            })
        }
    };
    wf_ret(&ctx.delta, &qnew)?;

    // θ = [σ0/ζ][qnew/ε]; the instantiated callee type must be
    // well-formed and above the current register file.
    let theta = Subst::from_pairs([
        (zeta.clone(), Inst::Stack(sigma0.clone())),
        (eps.clone(), Inst::Ret(qnew)),
    ]);
    let chi_inst = theta.chi(&code.chi);
    let sigma_inst = theta.stack(&code.sigma);
    wf_chi(&ctx.delta, &chi_inst).map_err(|e| e.at("call: instantiated χ̂"))?;
    wf_stack(&ctx.delta, &sigma_inst).map_err(|e| e.at("call: instantiated σ̂"))?;
    wf_stack(&ctx.delta, &theta.stack(&cont.sigma)).map_err(|e| e.at("call: instantiated σ̂'"))?;
    chi_subtype(&ctx.chi, &chi_inst)?;
    if !alpha_eq_stack(&sigma_inst, &ctx.sigma) {
        return Err(TypeError::mismatch("call stack", &sigma_inst, &ctx.sigma));
    }
    Ok(())
}

/// The instruction rule a sequence is checked with: [`check_instr`] for
/// pure T, and the FT checker's extension of it with the
/// multi-language instructions (`import`, `protect`). Like
/// [`check_instr`], it takes the context by value and returns the
/// context after the instruction.
pub type ExtHook<'a> = dyn FnMut(TCtx, &Instr) -> TResult<TCtx> + 'a;

/// Checks an instruction sequence with the instruction rule `ext`. The
/// one context moves from instruction to instruction.
pub fn check_seq_with(mut ctx: TCtx, seq: &InstrSeq, ext: &mut ExtHook<'_>) -> TResult<()> {
    for (i, instr) in seq.instrs.iter().enumerate() {
        check_marker(&ctx).map_err(|e| e.at(format!("instruction {i} ({instr})")))?;
        ctx = ext(ctx, instr).map_err(|e| e.at(format!("instruction {i} ({instr})")))?;
    }
    check_marker(&ctx).map_err(|e| e.at("terminator"))?;
    check_terminator(&ctx, &seq.term).map_err(|e| e.at(format!("terminator ({})", seq.term)))
}

/// Checks a pure-T instruction sequence (`Ψ;∆;χ;σ;q ⊢ I`).
pub fn check_seq(ctx: TCtx, seq: &InstrSeq) -> TResult<()> {
    check_seq_with(ctx, seq, &mut check_instr)
}

/// Infers the heap typing `Ψ'` of a heap fragment (`Ψ ⊢ H : Ψ'`).
///
/// Code blocks are self-describing; tuple types are inferred from their
/// fields, iterating to cope with tuples pointing at other labels.
/// Each round visits the pending tuples in label order, and a tuple
/// sees `Ψ` plus every type inferred before it, this round included.
/// When `require_box` is set (component-local fragments, Fig 2), any
/// `ref` tuple is rejected.
pub fn infer_heap_typing<'h>(
    heap: impl IntoIterator<Item = (&'h Label, &'h HeapVal)>,
    psi_base: &HeapTyping,
    require_box: bool,
) -> TResult<HeapTyping> {
    let mut out = HeapTyping::new();
    let mut pending: BTreeMap<&Label, (Mutability, &[WordVal])> = BTreeMap::new();
    for (l, hv) in heap {
        match hv {
            HeapVal::Code(b) => {
                out.insert(
                    l.clone(),
                    Mutability::Boxed,
                    HeapTy::Code(CodeTy {
                        delta: b.delta.clone(),
                        chi: b.chi.clone(),
                        sigma: b.sigma.clone(),
                        q: b.q.clone(),
                    }),
                );
            }
            HeapVal::Tuple { mutability, fields } => {
                if require_box && *mutability == Mutability::Ref {
                    return Err(TypeError::LocalHeapNotBox(l.clone()));
                }
                pending.insert(l, (*mutability, fields));
            }
        }
    }
    // `Ψ ∪ Ψ'` so far, built once and grown with `out`.
    let mut lookup = psi_base.clone();
    lookup.extend(&out);
    let delta = Delta::new();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|l, (m, fields)| {
            let tys: TResult<Vec<TTy>> = fields
                .iter()
                .map(|w| type_of_word(&lookup, &delta, w))
                .collect();
            let Ok(tys) = tys else { return true };
            let ty = Arc::new(HeapTy::Tuple(tys));
            lookup.insert((*l).clone(), *m, Arc::clone(&ty));
            out.insert((*l).clone(), *m, ty);
            false
        });
        if pending.len() == before {
            let stuck: Vec<String> = pending.keys().map(|l| l.to_string()).collect();
            return Err(TypeError::HeapInference(format!(
                "unresolvable tuples (cyclic or referencing unbound labels): {}",
                stuck.join(", ")
            )));
        }
    }
    Ok(out)
}

/// Checks one code block under a full heap typing, with the instruction
/// rule `ext`.
pub fn check_block_with(
    psi: &HeapTyping,
    label: &Label,
    block: &CodeBlock,
    ext: &mut ExtHook<'_>,
) -> TResult<()> {
    check_distinct(&block.delta)?;
    let delta = Delta::from_decls(block.delta.iter().cloned());
    wf_chi(&delta, &block.chi).map_err(|e| e.at(format!("block {label} χ")))?;
    wf_stack(&delta, &block.sigma).map_err(|e| e.at(format!("block {label} σ")))?;
    wf_ret(&delta, &block.q).map_err(|e| e.at(format!("block {label} q")))?;
    let ctx = TCtx::new(
        psi.clone(),
        delta,
        block.chi.clone(),
        block.sigma.clone(),
        block.q.clone(),
    );
    check_seq_with(ctx, &block.body, ext).map_err(|e| e.at(format!("block {label}")))
}

/// Checks a T component `Ψ;∆;χ;σ;q ⊢ (I,H) : τ;σ'` (Fig 2) with the
/// instruction rule `ext`, returning the result type and stack from
/// `ret-type(q, χ, σ)`. The context moves on into the entry sequence.
pub fn check_component_with(
    ctx: TCtx,
    comp: &TComp,
    ext: &mut ExtHook<'_>,
) -> TResult<(TTy, StackTy)> {
    let psi_local = infer_heap_typing(comp.heap.iter(), &ctx.psi, true)?;
    let mut psi_full = ctx.psi.clone();
    psi_full.extend(&psi_local);
    for (l, hv) in comp.heap.iter() {
        if let HeapVal::Code(b) = hv {
            check_block_with(&psi_full, l, b, ext)?;
        }
    }
    let result = ret_type(&ctx.q, &ctx.chi, &ctx.sigma)?;
    check_seq_with(
        TCtx {
            psi: psi_full,
            ..ctx
        },
        &comp.seq,
        ext,
    )?;
    Ok(result)
}

/// Checks a pure-T component.
pub fn check_component(ctx: TCtx, comp: &TComp) -> TResult<(TTy, StackTy)> {
    check_component_with(ctx, comp, &mut check_instr)
}

/// Checks a closed, whole T program: a component executed on an empty
/// stack and register file, halting with `result_ty`.
pub fn check_program(comp: &TComp, result_ty: &TTy) -> TResult<()> {
    let ctx = TCtx::new(
        HeapTyping::new(),
        Delta::new(),
        RegFileTy::new(),
        StackTy::nil(),
        RetMarker::end(result_ty.clone(), StackTy::nil()),
    );
    let (ty, _) = check_component(ctx, comp)?;
    if !alpha_eq_tty(&ty, result_ty) {
        return Err(TypeError::mismatch("program result", result_ty, &ty));
    }
    Ok(())
}
