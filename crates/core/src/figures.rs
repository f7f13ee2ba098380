//! The paper's mixed-language example programs (Figures 11, 16, 17 and
//! the §4.2 push-7 example), reconstructed as syntax trees.
//!
//! Deviation (D11, see DESIGN.md): Figures 16 and 17 end blocks with
//! `ret ra {r7}`-style returns whose continuation type expects the
//! result in `r1` (the calling convention of Fig 9). The `ret` rule of
//! Fig 2 requires the instruction's register to be the continuation's
//! register, so we move results into `r1` before returning.

use funtal_syntax::build::*;
use funtal_syntax::{FExpr, FTy, HeapVal, TTy};

use crate::translate::fty_to_tty;

/// The continuation type `box ∀[].{r1: int; ζ} ε` shared by the figure
/// blocks.
pub(crate) fn int_cont_ty(z: &str, e: &str) -> TTy {
    code_ty(vec![], chi([(r1(), int())]), zvar(z), q_var(e))
}

/// A block signature `code[ζ: stk, ε: ret]{ra: box∀[].{r1:int;ζ}ε, …; int::ζ} ra`
/// — the translated type of `(int) → int` (Fig 9).
fn int_to_int_block(
    extra_chi: Vec<(funtal_syntax::Reg, TTy)>,
    body: funtal_syntax::InstrSeq,
) -> HeapVal {
    let mut pairs = vec![(ra(), int_cont_ty("z", "e"))];
    pairs.extend(extra_chi);
    code_block(
        vec![d_stk("z"), d_ret("e")],
        chi(pairs),
        stack(vec![int()], zvar("z")),
        q_reg(ra()),
        body,
    )
}

/// Figure 16, `f1`: one basic block that adds 1 twice.
pub fn fig16_f1() -> FExpr {
    let arrow_ty = arrow(vec![fint()], fint());
    let t_arrow = fty_to_tty(&arrow_ty);
    let block = int_to_int_block(
        vec![],
        seq(
            vec![
                sld(r1(), 0),
                add(r1(), r1(), int_v(1)),
                add(r1(), r1(), int_v(1)),
                sfree(1),
            ],
            ret(ra(), r1()),
        ),
    );
    lam_z(
        vec![("x", fint())],
        "zl",
        app(
            boundary(
                arrow_ty,
                tcomp(
                    seq(
                        vec![protect(vec![], "zp"), mv(r1(), loc("l"))],
                        halt(t_arrow, zvar("zp"), r1()),
                    ),
                    vec![("l", block)],
                ),
            ),
            vec![var("x")],
        ),
    )
}

/// Figure 16, `f2`: the same function split across two basic blocks,
/// with the intermediate value passed through the stack.
pub fn fig16_f2() -> FExpr {
    let arrow_ty = arrow(vec![fint()], fint());
    let t_arrow = fty_to_tty(&arrow_ty);
    let block1 = int_to_int_block(
        vec![],
        seq(
            vec![sld(r1(), 0), add(r1(), r1(), int_v(1)), sst(0, r1())],
            jmp(loc_i("l2", vec![i_stk(zvar("z")), i_ret(q_var("e"))])),
        ),
    );
    let block2 = int_to_int_block(
        vec![],
        seq(
            vec![sld(r1(), 0), add(r1(), r1(), int_v(1)), sfree(1)],
            ret(ra(), r1()),
        ),
    );
    lam_z(
        vec![("x", fint())],
        "zl",
        app(
            boundary(
                arrow_ty,
                tcomp(
                    seq(
                        vec![protect(vec![], "zp"), mv(r1(), loc("l"))],
                        halt(t_arrow, zvar("zp"), r1()),
                    ),
                    vec![("l", block1), ("l2", block2)],
                ),
            ),
            vec![var("x")],
        ),
    )
}

/// The recursive-type self-application type used by `factF`:
/// `µa.(a, int) → int`.
pub fn fact_mu_ty() -> FTy {
    fmu("a", arrow(vec![fvar_ty("a"), fint()], fint()))
}

/// Figure 17, `factF`: the standard recursive functional factorial via
/// iso-recursive self-application.
pub fn fig17_fact_f() -> FExpr {
    let mu_ty = fact_mu_ty();
    let big_f = lam_z(
        vec![("f", mu_ty.clone()), ("x", fint())],
        "zf",
        if0(
            var("x"),
            fint_e(1),
            fmul(
                app(funfold(var("f")), vec![var("f"), fsub(var("x"), fint_e(1))]),
                var("x"),
            ),
        ),
    );
    lam_z(
        vec![("x", fint())],
        "zx",
        app(big_f.clone(), vec![ffold(mu_ty, big_f), var("x")]),
    )
}

/// Figure 17, `factT`: the imperative factorial computed in registers
/// with a two-block loop.
pub fn fig17_fact_t() -> FExpr {
    let arrow_ty = arrow(vec![fint()], fint());
    let t_arrow = fty_to_tty(&arrow_ty);
    // H(ℓfact): load the argument, set the accumulator, branch to the
    // loop if non-zero.
    let lfact = int_to_int_block(
        vec![],
        seq(
            vec![
                sld(r3(), 0),
                mv(r7(), int_v(1)),
                bnz(
                    r3(),
                    loc_i("lloop", vec![i_stk(zvar("z")), i_ret(q_var("e"))]),
                ),
                sfree(1),
                mv(r1(), reg(r7())),
            ],
            ret(ra(), r1()),
        ),
    );
    // H(ℓloop): multiply, decrement, loop.
    let lloop = int_to_int_block(
        vec![(r3(), int()), (r7(), int())],
        seq(
            vec![
                mul(r7(), r7(), reg(r3())),
                sub(r3(), r3(), int_v(1)),
                bnz(
                    r3(),
                    loc_i("lloop", vec![i_stk(zvar("z")), i_ret(q_var("e"))]),
                ),
                sfree(1),
                mv(r1(), reg(r7())),
            ],
            ret(ra(), r1()),
        ),
    );
    lam_z(
        vec![("x", fint())],
        "zl",
        app(
            boundary(
                arrow_ty,
                tcomp(
                    seq(
                        vec![protect(vec![], "zp"), mv(r1(), loc("lfact"))],
                        halt(t_arrow, zvar("zp"), r1()),
                    ),
                    vec![("lfact", lfact), ("lloop", lloop)],
                ),
            ),
            vec![var("x")],
        ),
    )
}

/// Figure 11: the JIT example. `f` and `h` have been compiled to the
/// blocks `ℓ` and `ℓh`; `g` remains an F function; the program is
/// `e = f g` and evaluates to 2.
pub fn fig11_jit() -> FExpr {
    let int_arrow = arrow(vec![fint()], fint());
    let tau_g = arrow(vec![int_arrow.clone()], fint());
    let tau_f = arrow(vec![tau_g.clone()], fint());
    let tau_g_t = fty_to_tty(&tau_g);

    // g = λ(h : (int)→int). h 1
    let g = lam_z(vec![("h", int_arrow)], "zg", app(var("h"), vec![fint_e(1)]));

    // H(ℓ): load g off the stack, push ℓh as its argument, save the
    // continuation on the stack, install ℓgret, and call back into F.
    let l = code_block(
        vec![d_stk("z"), d_ret("e")],
        chi([(ra(), int_cont_ty("z", "e"))]),
        stack(vec![tau_g_t], zvar("z")),
        q_reg(ra()),
        seq(
            vec![
                sld(r1(), 0),
                salloc(1),
                mv(r2(), loc("lh")),
                sst(0, r2()),
                sst(1, ra()),
                mv(
                    ra(),
                    loc_i("lgret", vec![i_stk(zvar("z")), i_ret(q_var("e"))]),
                ),
            ],
            call(
                reg(r1()),
                stack(vec![int_cont_ty("z", "e")], zvar("z")),
                q_i(0),
            ),
        ),
    );

    // H(ℓh): doubles its argument — the compiled h.
    let lh = int_to_int_block(
        vec![],
        seq(
            vec![sld(r1(), 0), sfree(1), mul(r1(), r1(), int_v(2))],
            ret(ra(), r1()),
        ),
    );

    // H(ℓgret): the shim that recovers the saved continuation.
    let lgret = code_block(
        vec![d_stk("z"), d_ret("e")],
        chi([(r1(), int())]),
        stack(vec![int_cont_ty("z", "e")], zvar("z")),
        q_i(0),
        seq(vec![sld(ra(), 0), sfree(1)], ret(ra(), r1())),
    );

    // e = (intFT (mv r1, ℓ; halt (τ)→int𝒯, • {r1}, H)) g
    let t_tau_f = fty_to_tty(&tau_f);
    app(
        boundary(
            tau_f,
            tcomp(
                seq(vec![mv(r1(), loc("l"))], halt(t_tau_f, nil(), r1())),
                vec![("l", l), ("lh", lh), ("lgret", lgret)],
            ),
        ),
        vec![g],
    )
}

/// The §4.2 example: a stack-modifying lambda that pushes 7 onto the
/// stack using embedded assembly.
pub fn push7() -> FExpr {
    lam_sm(
        vec![("x", fint())],
        "z",
        vec![],
        vec![int()],
        boundary_out(
            funit(),
            stack(vec![int()], zvar("z")),
            tcomp(
                seq(
                    vec![
                        protect(vec![], "z2"),
                        mv(r1(), int_v(7)),
                        salloc(1),
                        sst(0, r1()),
                        mv(r1(), unit_v()),
                    ],
                    halt(unit(), stack(vec![int()], zvar("z2")), r1()),
                ),
                vec![],
            ),
        ),
    )
}
