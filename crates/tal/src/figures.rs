//! The paper's pure-T example programs, reconstructed as syntax trees.
//!
//! [`fig3_call_to_call`] is Figure 3 ("T Example: Call to Call"), whose
//! control flow is Figure 4. The §3 inline examples live in the test
//! suite (`sec3_*` tests).

use funtal_syntax::build::*;
use funtal_syntax::{TComp, TTy};

/// The continuation type `box ∀[].{r1: int; ζ} ε` that threads through
/// Figure 3, parameterized by the names of `ζ` and `ε`.
pub(crate) fn fig3_cont_ty(z: &str, e: &str) -> TTy {
    code_ty(vec![], chi([(r1(), int())]), zvar(z), q_var(e))
}

/// Figure 3 of the paper: the component `f` that calls `ℓ1`, which in
/// turn calls `ℓ2`; `ℓ2` jumps to `ℓ2aux`, which returns through
/// `ℓ2ret` and finally `ℓ1ret` halts with `2`.
pub fn fig3_call_to_call() -> TComp {
    // H(ℓ1ret) = code[]{r1: int; •} end{int;•}. halt int, • {r1}
    let l1ret = code_block(
        vec![],
        chi([(r1(), int())]),
        nil(),
        q_end(int(), nil()),
        seq(vec![], halt(int(), nil(), r1())),
    );

    // H(ℓ1) = code[ζ,ε]{ra: box∀[].{r1:int;ζ}ε; ζ} ra.
    //   salloc 1; sst 0, ra; mv ra, ℓ2ret[ζ,ε];
    //   call ℓ2 {box∀[].{r1:int;ζ}ε :: ζ, 0}
    let l1 = code_block(
        vec![d_stk("z"), d_ret("e")],
        chi([(ra(), fig3_cont_ty("z", "e"))]),
        zvar("z"),
        q_reg(ra()),
        seq(
            vec![
                salloc(1),
                sst(0, ra()),
                mv(
                    ra(),
                    loc_i("l2ret", vec![i_stk(zvar("z")), i_ret(q_var("e"))]),
                ),
            ],
            call(
                loc("l2"),
                stack(vec![fig3_cont_ty("z", "e")], zvar("z")),
                q_i(0),
            ),
        ),
    );

    // H(ℓ2) = code[ζ,ε]{ra: box∀[].{r1:int;ζ}ε; ζ} ra.
    //   mv r1, 1; jmp ℓ2aux[ζ, ε]
    let l2 = code_block(
        vec![d_stk("z"), d_ret("e")],
        chi([(ra(), fig3_cont_ty("z", "e"))]),
        zvar("z"),
        q_reg(ra()),
        seq(
            vec![mv(r1(), int_v(1))],
            jmp(loc_i("l2aux", vec![i_stk(zvar("z")), i_ret(q_var("e"))])),
        ),
    );

    // H(ℓ2aux) = code[ζ,ε]{r1: int, ra: box∀[].{r1:int;ζ}ε; ζ} ra.
    //   mul r1, r1, 2; ret ra {r1}
    let l2aux = code_block(
        vec![d_stk("z"), d_ret("e")],
        chi([(r1(), int()), (ra(), fig3_cont_ty("z", "e"))]),
        zvar("z"),
        q_reg(ra()),
        seq(vec![mul(r1(), r1(), int_v(2))], ret(ra(), r1())),
    );

    // H(ℓ2ret) = code[ζ,ε]{r1: int; box∀[].{r1:int;ζ}ε :: ζ} 0.
    //   sld ra, 0; sfree 1; ret ra {r1}
    let l2ret = code_block(
        vec![d_stk("z"), d_ret("e")],
        chi([(r1(), int())]),
        stack(vec![fig3_cont_ty("z", "e")], zvar("z")),
        q_i(0),
        seq(vec![sld(ra(), 0), sfree(1)], ret(ra(), r1())),
    );

    // f = (mv ra, ℓ1ret; call ℓ1 {•, end{int;•}}, H)
    tcomp(
        seq(
            vec![mv(ra(), loc("l1ret"))],
            call(loc("l1"), nil(), q_end(int(), nil())),
        ),
        vec![
            ("l1", l1),
            ("l1ret", l1ret),
            ("l2", l2),
            ("l2aux", l2aux),
            ("l2ret", l2ret),
        ],
    )
}
