//! The bounded logical relation: executable analogues of the paper's
//! `V⟦τ⟧` and `E⟦q ⊢ τ;σ⟧` (Figs 13–14), restricted to closed values
//! and the `out` marker.
//!
//! | paper | here |
//! |-------|------|
//! | `(W, v1, v2) ∈ V⟦τ⟧ρ` | [`v_rel`] with a fuel/depth budget in place of the world `W` |
//! | `(W, e1, e2) ∈ E⟦out ⊢ τ;σ⟧ρ` | [`e_rel`]: run both, compare observations, relate values |
//! | `(W, e1, e2) ∈ O` | both [`Observation`]s agree in class |
//!
//! Function values are related as in the paper: *given related inputs,
//! they produce related outputs* — with "all inputs in all future
//! worlds" replaced by a deterministic sample.

use funtal_fun::check::unroll_fty;
use funtal_syntax::{FExpr, FTy};

use crate::gen::{gen_value, SplitMix};
use crate::{observe, EquivCfg, Observation};

/// The bounded value relation `V⟦τ⟧`.
///
/// - `int`/`unit`: structural equality;
/// - tuples: pointwise;
/// - `µα.τ`: unfold one level (the depth budget plays the step index,
///   exactly the induction measure the paper uses for recursive types);
/// - arrows: apply both sides to the same sampled inputs and relate the
///   resulting computations with [`e_rel`].
pub(crate) fn v_rel(
    v1: &FExpr,
    v2: &FExpr,
    ty: &FTy,
    cfg: &EquivCfg,
    rng: &mut SplitMix,
    depth: u32,
) -> bool {
    match ty {
        FTy::Int | FTy::Unit => v1 == v2,
        FTy::Var(_) => v1 == v2,
        FTy::Tuple(ts) => match (v1, v2) {
            (FExpr::Tuple(xs), FExpr::Tuple(ys)) => {
                xs.len() == ts.len()
                    && ys.len() == ts.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .zip(ts)
                        .all(|((a, b), t)| v_rel(a, b, t, cfg, rng, depth))
            }
            _ => false,
        },
        FTy::Rec(..) => {
            if depth == 0 {
                // Below the index: everything is related, as in a
                // step-indexed model at world 0.
                return true;
            }
            match (v1, v2) {
                (FExpr::Fold { body: b1, .. }, FExpr::Fold { body: b2, .. }) => {
                    let unrolled = unroll_fty(ty).expect("a recursive type unrolls");
                    v_rel(b1, b2, &unrolled, cfg, rng, depth - 1)
                }
                _ => false,
            }
        }
        FTy::Arrow {
            params,
            phi_in,
            phi_out,
            ret,
        } => {
            if !phi_in.is_empty() || !phi_out.is_empty() {
                // Stack-modifying functions cannot be applied on an
                // empty ambient stack; callers compare them in richer
                // harness programs. Fall back to syntactic equality.
                return funtal_syntax::alpha::alpha_eq_fexpr(v1, v2);
            }
            if depth == 0 {
                return true;
            }
            for _ in 0..cfg.samples.max(1) {
                let args: Vec<FExpr> = params
                    .iter()
                    .map(|t| gen_value(t, rng, depth - 1))
                    .collect();
                let a1 = FExpr::app(v1.clone(), args.clone());
                let a2 = FExpr::app(v2.clone(), args);
                if !e_rel(&a1, &a2, ret, cfg, rng, depth - 1) {
                    return false;
                }
            }
            true
        }
    }
}

/// The bounded expression relation `E⟦out ⊢ τ⟧`: run both sides and
/// compare observations, relating terminal values with [`v_rel`].
pub(crate) fn e_rel(
    e1: &FExpr,
    e2: &FExpr,
    ty: &FTy,
    cfg: &EquivCfg,
    rng: &mut SplitMix,
    depth: u32,
) -> bool {
    let (o1, o2) = (observe(e1, cfg.fuel), observe(e2, cfg.fuel));
    match (o1, o2) {
        (Observation::Timeout, Observation::Timeout) => true,
        (Observation::Value(v1), Observation::Value(v2)) => v_rel(&v1, &v2, ty, cfg, rng, depth),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funtal_syntax::build::*;

    fn cfg() -> EquivCfg {
        EquivCfg {
            fuel: 10_000,
            samples: 6,
            depth: 2,
            seed: 11,
        }
    }

    #[test]
    fn base_values() {
        let c = cfg();
        let mut rng = SplitMix::new(c.seed);
        assert!(v_rel(&fint_e(3), &fint_e(3), &fint(), &c, &mut rng, 2));
        assert!(!v_rel(&fint_e(3), &fint_e(4), &fint(), &c, &mut rng, 2));
        assert!(v_rel(&funit_e(), &funit_e(), &funit(), &c, &mut rng, 2));
    }

    #[test]
    fn tuples_pointwise() {
        let c = cfg();
        let mut rng = SplitMix::new(c.seed);
        let t = ftuple_ty(vec![fint(), funit()]);
        assert!(v_rel(
            &ftuple(vec![fint_e(1), funit_e()]),
            &ftuple(vec![fint_e(1), funit_e()]),
            &t,
            &c,
            &mut rng,
            2
        ));
        assert!(!v_rel(
            &ftuple(vec![fint_e(1), funit_e()]),
            &ftuple(vec![fint_e(2), funit_e()]),
            &t,
            &c,
            &mut rng,
            2
        ));
    }

    #[test]
    fn extensionally_equal_lambdas_related() {
        let c = cfg();
        let mut rng = SplitMix::new(c.seed);
        let f1 = lam(vec![("x", fint())], fmul(var("x"), fint_e(2)));
        let f2 = lam(vec![("x", fint())], fadd(var("x"), var("x")));
        assert!(v_rel(
            &f1,
            &f2,
            &arrow(vec![fint()], fint()),
            &c,
            &mut rng,
            2
        ));
    }

    #[test]
    fn different_lambdas_unrelated() {
        let c = cfg();
        let mut rng = SplitMix::new(c.seed);
        let f1 = lam(vec![("x", fint())], fmul(var("x"), fint_e(2)));
        let f2 = lam(vec![("x", fint())], fmul(var("x"), fint_e(3)));
        assert!(!v_rel(
            &f1,
            &f2,
            &arrow(vec![fint()], fint()),
            &c,
            &mut rng,
            2
        ));
    }

    #[test]
    fn higher_order_distinction() {
        // λg. g 0  vs  λg. g 1 — distinguished by a generated g that
        // inspects its argument.
        let c = cfg();
        let mut rng = SplitMix::new(c.seed);
        let hot = arrow(vec![arrow(vec![fint()], fint())], fint());
        let f1 = lam(
            vec![("g", arrow(vec![fint()], fint()))],
            app(var("g"), vec![fint_e(0)]),
        );
        let f2 = lam(
            vec![("g", arrow(vec![fint()], fint()))],
            app(var("g"), vec![fint_e(1)]),
        );
        assert!(!v_rel(&f1, &f2, &hot, &c, &mut rng, 3));
    }
}
