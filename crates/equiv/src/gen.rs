//! Deterministic generation of test inputs and distinguishing contexts.
//!
//! Inputs play the role of the "related inputs" quantified over by the
//! paper's `V⟦τ⟧` at function types; contexts approximate the contexts
//! quantified over by `≈ctx` (Theorem 5.2).

use funtal_fun::check::unroll_fty;
use funtal_syntax::build::*;
use funtal_syntax::{FExpr, FTy, TComp};

/// A tiny deterministic RNG (SplitMix64), so every equivalence verdict
/// is reproducible from its seed without external dependencies in this
/// crate's core path.
#[derive(Clone, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A small integer in `[-bound, bound]`.
    pub(crate) fn small_int(&mut self, bound: i64) -> i64 {
        let span = (2 * bound + 1) as u64;
        (self.next_u64() % span) as i64 - bound
    }

    /// An index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Generates a closed F *value* of the given type (used as a "related
/// input": the same value is fed to both sides).
///
/// Function-type inputs are drawn from a small grammar of total
/// functions (constants, projections of the argument into arithmetic).
/// Stack-modifying arrows and type variables are out of scope for
/// generation and fall back to the simplest inhabitant available.
pub fn gen_value(ty: &FTy, rng: &mut SplitMix, depth: u32) -> FExpr {
    match ty {
        FTy::Int => fint_e(rng.small_int(20)),
        FTy::Unit => funit_e(),
        FTy::Tuple(ts) => ftuple(ts.iter().map(|t| gen_value(t, rng, depth)).collect()),
        FTy::Rec(_, _) => {
            // Build a fold of a generated value at the unrolled type,
            // bottoming out quickly.
            if depth == 0 {
                // A one-level unrolling is always possible for the types
                // our tests use; deeper recursive structure is capped.
                fold_min(ty)
            } else {
                match unroll_fty(ty) {
                    Some(inner) => ffold(ty.clone(), gen_value(&inner, rng, depth - 1)),
                    None => fold_min(ty),
                }
            }
        }
        FTy::Arrow {
            params,
            phi_in,
            phi_out,
            ret,
        } => {
            if !phi_in.is_empty() || !phi_out.is_empty() {
                // Stack-modifying functions are not generated; use a
                // function that ignores the stack discipline is unsound,
                // so tests supply their own inputs at these types.
                // Fall back to a constant-result ordinary-shaped lambda.
            }
            let names: Vec<String> = (1..=params.len()).map(|i| format!("g{i}")).collect();
            let body = gen_fun_body(params, ret, &names, rng, depth);
            // The stack-tail binder is indexed by the generation depth:
            // any lambda nested inside this one is generated at a
            // strictly smaller depth, so binders never shadow (the FT
            // checker rejects duplicate type variables in Δ).
            let zeta = format!("zg{depth}");
            lam_z(
                names
                    .iter()
                    .zip(params)
                    .map(|(n, t)| (n.as_str(), t.clone()))
                    .collect(),
                &zeta,
                body,
            )
        }
        FTy::Var(_) => funit_e(),
    }
}

fn fold_min(ty: &FTy) -> FExpr {
    fold_min_at(ty, 0)
}

fn fold_min_at(ty: &FTy, lvl: u32) -> FExpr {
    match unroll_fty(ty) {
        Some(inner) => ffold(ty.clone(), min_value_at(&inner, lvl)),
        None => funit_e(),
    }
}

/// `lvl` indexes the stack-tail binder of each lambda so nested
/// lambdas never shadow (`zm0` contains `zm1` contains ...).
fn min_value_at(ty: &FTy, lvl: u32) -> FExpr {
    match ty {
        FTy::Int => fint_e(0),
        FTy::Unit | FTy::Var(_) => funit_e(),
        FTy::Tuple(ts) => ftuple(ts.iter().map(|t| min_value_at(t, lvl)).collect()),
        FTy::Rec(_, _) => fold_min_at(ty, lvl),
        FTy::Arrow { params, ret, .. } => {
            let names: Vec<String> = (1..=params.len()).map(|i| format!("m{i}")).collect();
            let zeta = format!("zm{lvl}");
            lam_z(
                names
                    .iter()
                    .zip(params)
                    .map(|(n, t)| (n.as_str(), t.clone()))
                    .collect(),
                &zeta,
                min_value_at(ret, lvl + 1),
            )
        }
    }
}

/// A body for a generated function: combines integer parameters with
/// arithmetic, calls function parameters, or returns a constant.
fn gen_fun_body(
    params: &[FTy],
    ret: &FTy,
    names: &[String],
    rng: &mut SplitMix,
    depth: u32,
) -> FExpr {
    if *ret == FTy::Int && depth > 0 {
        // Try to involve the parameters.
        let int_params: Vec<&String> = names
            .iter()
            .zip(params)
            .filter(|(_, t)| **t == FTy::Int)
            .map(|(n, _)| n)
            .collect();
        let fun_params: Vec<(&String, &FTy)> = names
            .iter()
            .zip(params)
            .filter(|(_, t)| matches!(t, FTy::Arrow { .. }))
            .collect();
        match rng.below(3) {
            0 if !int_params.is_empty() => {
                let p = var(int_params[rng.below(int_params.len())]);
                let k = fint_e(rng.small_int(5));
                return match rng.below(3) {
                    0 => fadd(p, k),
                    1 => fmul(p, k),
                    _ => fsub(k, p),
                };
            }
            1 if !fun_params.is_empty() => {
                let (n, t) = fun_params[rng.below(fun_params.len())];
                if let FTy::Arrow {
                    params: ps,
                    ret: r,
                    phi_in,
                    phi_out,
                } = t
                {
                    if **r == FTy::Int && phi_in.is_empty() && phi_out.is_empty() {
                        let args: Vec<FExpr> =
                            ps.iter().map(|t| gen_value(t, rng, depth - 1)).collect();
                        return app(var(n), args);
                    }
                }
            }
            _ => {}
        }
        return fint_e(rng.small_int(10));
    }
    gen_value(ret, rng, depth.saturating_sub(1))
}

/// A generated experiment: a context `C[·]`, a plugging function, and
/// the type of the whole experiment's result.
pub struct GenCtx {
    /// Human-readable description for counterexample reports.
    pub describe: String,
    /// The result type of the plugged program.
    pub(crate) result_ty: FTy,
    plug: Box<dyn Fn(&FExpr) -> FExpr>,
}

impl GenCtx {
    /// Plugs a term into the hole.
    pub fn plug(&self, e: &FExpr) -> FExpr {
        (self.plug)(e)
    }
}

/// Generates a distinguishing context for a term of type `ty`.
///
/// For ordinary function types the context applies the term to sampled
/// related inputs (the applicative experiments of `V⟦τ→τ'⟧`); for base
/// and tuple types it observes the value through arithmetic and
/// projections.
pub fn gen_context(ty: &FTy, rng: &mut SplitMix, depth: u32) -> GenCtx {
    match ty {
        FTy::Arrow {
            params,
            phi_in,
            phi_out,
            ret,
        } if phi_in.is_empty() && phi_out.is_empty() => {
            let args: Vec<FExpr> = params.iter().map(|t| gen_value(t, rng, depth)).collect();
            let describe = format!(
                "apply to ({})",
                args.iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let result_ty = (**ret).clone();
            GenCtx {
                describe,
                result_ty,
                plug: Box::new(move |e| app(e.clone(), args.clone())),
            }
        }
        FTy::Tuple(ts) if !ts.is_empty() => {
            let i = rng.below(ts.len()) + 1;
            let inner = gen_context(&ts[i - 1], rng, depth);
            let describe = format!("pi[{i}] then {}", inner.describe);
            let result_ty = inner.result_ty.clone();
            GenCtx {
                describe,
                result_ty,
                plug: Box::new(move |e| inner.plug(&proj(i, e.clone()))),
            }
        }
        FTy::Int => {
            let k = rng.small_int(7);
            GenCtx {
                describe: format!("add {k}"),
                result_ty: FTy::Int,
                plug: Box::new(move |e| fadd(e.clone(), fint_e(k))),
            }
        }
        FTy::Rec(_, _) => {
            if let Some(inner) = unroll_fty(ty) {
                if depth > 0 {
                    let ictx = gen_context(&inner, rng, depth - 1);
                    let describe = format!("unfold then {}", ictx.describe);
                    let result_ty = ictx.result_ty.clone();
                    return GenCtx {
                        describe,
                        result_ty,
                        plug: Box::new(move |e| ictx.plug(&funfold(e.clone()))),
                    };
                }
            }
            identity_ctx(ty)
        }
        _ => identity_ctx(ty),
    }
}

// ---------------------------------------------------------------------------
// Whole-program generation (driver-level differential testing)
// ---------------------------------------------------------------------------

/// A generated whole program: closed, well-typed, with deterministic
/// observable behavior. The raw material of the driver's differential
/// tests, which assert that the Substitution oracle, the Environment
/// machine, and the batch engine agree on every one of these.
#[derive(Clone, Debug)]
pub struct GenProgram {
    /// Human-readable provenance for failure reports.
    pub describe: String,
    /// The closed program.
    pub expr: FExpr,
    /// Its FT type.
    pub ty: FTy,
}

/// Generates a small closed F type inhabited by [`gen_value`] (no
/// stack-modifying arrows, no type variables).
pub fn gen_type(rng: &mut SplitMix, depth: u32) -> FTy {
    let pick = if depth == 0 {
        rng.below(2)
    } else {
        rng.below(5)
    };
    match pick {
        0 => fint(),
        1 => funit(),
        2 => {
            let n = 1 + rng.below(3);
            ftuple_ty((0..n).map(|_| gen_type(rng, depth - 1)).collect())
        }
        3 => arrow(vec![fint()], fint()),
        _ => {
            let n = 1 + rng.below(2);
            arrow(
                (0..n).map(|_| gen_type(rng, depth - 1)).collect(),
                gen_type(rng, depth - 1),
            )
        }
    }
}

/// A pure-T boundary of type `int`: move a constant, do some assembly
/// arithmetic, halt (the `τFT` halt-translation rule of Fig 8).
///
/// T operands have no negative-literal concrete syntax, so immediates
/// stay non-negative — generated programs must round-trip through the
/// parser (the batch engine consumes their rendering as source).
pub(crate) fn gen_t_boundary(rng: &mut SplitMix) -> FExpr {
    let a = rng.below(20) as i64;
    let b = rng.below(9) as i64;
    let instr = match rng.below(3) {
        0 => add(r1(), r1(), int_v(b)),
        1 => sub(r1(), r1(), int_v(b)),
        _ => mul(r1(), r1(), int_v(b)),
    };
    boundary(
        fint(),
        TComp::bare(seq(
            vec![mv(r1(), int_v(a)), instr],
            halt(int(), nil(), r1()),
        )),
    )
}

/// The Fig 9/10 import/export shape of `examples/double_twice.ft`: an
/// F lambda whose body crosses into T, `import`s an F computation over
/// the argument (the `TFτ` value translation), combines it with
/// assembly arithmetic, and halts (translating back out via `τFT`).
pub(crate) fn gen_import_lam(rng: &mut SplitMix) -> FExpr {
    let j = rng.below(5) as i64;
    let k = rng.below(5) as i64;
    let import_body = match rng.below(3) {
        0 => var("x"),
        1 => fadd(var("x"), fint_e(j)),
        _ => fmul(var("x"), fint_e(j)),
    };
    let instr = match rng.below(3) {
        0 => add(r1(), r1(), int_v(k)),
        1 => mul(r1(), r1(), int_v(k)),
        _ => add(r1(), r1(), reg(r1())),
    };
    lam_z(
        vec![("x", fint())],
        "zl",
        boundary(
            fint(),
            TComp::bare(seq(
                vec![
                    protect(vec![], "zp"),
                    import(r1(), "zi", zvar("zp"), fint(), import_body),
                    instr,
                ],
                halt(int(), zvar("zp"), r1()),
            )),
        ),
    )
}

/// Generates one closed, well-typed program. The grammar mixes pure F
/// (values observed through generated contexts), pure-T boundaries,
/// Fig 9/10-style import/export lambdas, mixed F-over-T arithmetic,
/// and the paper's own figures at sampled inputs.
pub fn gen_program(rng: &mut SplitMix, depth: u32) -> GenProgram {
    match rng.below(6) {
        0 => {
            let ty = gen_type(rng, depth);
            let v = gen_value(&ty, rng, depth);
            let ctx = gen_context(&ty, rng, depth);
            GenProgram {
                describe: format!("pure F at {ty}: {}", ctx.describe),
                ty: ctx.result_ty.clone(),
                expr: ctx.plug(&v),
            }
        }
        1 => GenProgram {
            describe: "pure T boundary".to_string(),
            expr: gen_t_boundary(rng),
            ty: fint(),
        },
        2 => {
            let arg = rng.below(20) as i64;
            GenProgram {
                describe: format!("import/export lambda applied to {arg}"),
                expr: app(gen_import_lam(rng), vec![fint_e(arg)]),
                ty: fint(),
            }
        }
        3 => GenProgram {
            describe: "F arithmetic over two boundaries".to_string(),
            expr: fadd(
                gen_t_boundary(rng),
                fmul(fint_e(rng.small_int(5)), gen_t_boundary(rng)),
            ),
            ty: fint(),
        },
        4 => {
            let f = gen_value(&arrow(vec![fint()], fint()), rng, depth);
            GenProgram {
                describe: "generated function applied to a boundary result".to_string(),
                expr: app(f, vec![gen_t_boundary(rng)]),
                ty: fint(),
            }
        }
        _ => {
            let n = rng.below(6) as i64;
            match rng.below(3) {
                0 => GenProgram {
                    describe: format!("Fig 17 factT({n})"),
                    expr: app(funtal::figures::fig17_fact_t(), vec![fint_e(n)]),
                    ty: fint(),
                },
                1 => GenProgram {
                    describe: format!("Fig 17 factF({n})"),
                    expr: app(funtal::figures::fig17_fact_f(), vec![fint_e(n)]),
                    ty: fint(),
                },
                _ => GenProgram {
                    describe: "Fig 11 JIT example".to_string(),
                    expr: funtal::figures::fig11_jit(),
                    ty: fint(),
                },
            }
        }
    }
}

fn identity_ctx(ty: &FTy) -> GenCtx {
    GenCtx {
        describe: "observe directly".to_string(),
        result_ty: ty.clone(),
        plug: Box::new(|e| e.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funtal::typecheck;

    #[test]
    fn generated_values_are_well_typed() {
        let mut rng = SplitMix::new(7);
        let tys = [
            fint(),
            funit(),
            ftuple_ty(vec![fint(), funit()]),
            arrow(vec![fint()], fint()),
            arrow(vec![arrow(vec![fint()], fint())], fint()),
        ];
        for ty in &tys {
            for _ in 0..20 {
                let v = gen_value(ty, &mut rng, 3);
                assert!(v.is_value(), "{v} not a value");
                let got = typecheck(&v).unwrap();
                assert!(
                    funtal_syntax::alpha::alpha_eq_fty(&got, ty),
                    "generated {v} : {got}, wanted {ty}"
                );
            }
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn generated_programs_typecheck_and_round_trip() {
        let mut rng = SplitMix::new(11);
        for i in 0..60 {
            let p = gen_program(&mut rng, 2);
            let got = typecheck(&p.expr)
                .unwrap_or_else(|e| panic!("#{i} {}: ill-typed: {e}\n{}", p.describe, p.expr));
            assert!(
                funtal_syntax::alpha::alpha_eq_fty(&got, &p.ty),
                "#{i} {}: typed {got}, claimed {}",
                p.describe,
                p.ty
            );
            // The batch engine consumes renderings as source; every
            // generated program must survive the round trip.
            let printed = p.expr.to_string();
            let reparsed = funtal_parser::parse_fexpr(&printed)
                .unwrap_or_else(|e| panic!("#{i} {}: reparse failed: {e}\n{printed}", p.describe));
            assert!(
                funtal_syntax::alpha::alpha_eq_fexpr(&reparsed, &p.expr),
                "#{i} {}: round-trip changed the term",
                p.describe
            );
        }
    }

    #[test]
    fn generated_programs_evaluate_deterministically() {
        let mut rng = SplitMix::new(23);
        for i in 0..40 {
            let p = gen_program(&mut rng, 2);
            let a = funtal::machine::eval_to_value(&p.expr, 200_000)
                .unwrap_or_else(|e| panic!("#{i} {}: stuck: {e}", p.describe));
            let b = funtal::machine::eval_to_value(&p.expr, 200_000).unwrap();
            assert_eq!(a, b, "#{i} {}", p.describe);
        }
    }

    #[test]
    fn contexts_produce_well_typed_programs() {
        let mut rng = SplitMix::new(3);
        let ty = arrow(vec![fint()], fint());
        let f = lam(vec![("x", fint())], fadd(var("x"), fint_e(1)));
        for _ in 0..10 {
            let ctx = gen_context(&ty, &mut rng, 2);
            let prog = ctx.plug(&f);
            typecheck(&prog).unwrap();
        }
    }
}
