//! Benchmark harness support crate (see `benches/`).
//!
//! The measurable code all lives in the other crates; this crate exists
//! to host the bench binaries (`compile`, `figures`, `scaling`,
//! `batch`), the program builders they share, and their
//! dev-dependencies. Run them with
//! `cargo bench -p funtal-bench`; set `BENCH_OUTPUT=/path.json` to
//! capture a machine-readable snapshot (see `BENCH_baseline.json` at
//! the repo root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use funtal_syntax::build::*;
use funtal_syntax::FExpr;

/// `k` boundary crossings around a trivial computation: F applies a
/// boundary-wrapped T identity `k` times in a row — the §6
/// multi-language crossing cost (`pingpong/crossings` and
/// `boundary_overhead/crossings`).
pub fn crossings(k: usize) -> FExpr {
    let ident = boundary(
        arrow(vec![fint()], fint()),
        tcomp(
            seq(
                vec![protect(vec![], "zp"), mv(r1(), loc("id"))],
                halt(
                    funtal::fty_to_tty(&arrow(vec![fint()], fint())),
                    zvar("zp"),
                    r1(),
                ),
            ),
            vec![(
                "id",
                code_block(
                    vec![d_stk("z"), d_ret("e")],
                    chi([(
                        ra(),
                        code_ty(vec![], chi([(r1(), int())]), zvar("z"), q_var("e")),
                    )]),
                    stack(vec![int()], zvar("z")),
                    q_reg(ra()),
                    seq(vec![sld(r1(), 0), sfree(1)], ret(ra(), r1())),
                ),
            )],
        ),
    );
    let mut e = fint_e(1);
    for _ in 0..k {
        e = app(ident.clone(), vec![e]);
    }
    e
}
