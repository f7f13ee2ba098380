//! Encoding MiniF definitions as (pure or mixed) F expressions.
//!
//! Interpreted definitions become F lambdas; self-recursion uses the
//! paper's Fig 17 self-application encoding (`factF`), and calls to
//! other definitions are inlined with whatever expression the caller's
//! environment has *materialized* for them — a plain F lambda for
//! interpreted callees or a boundary-wrapped compiled component for
//! compiled ones. This is exactly the space of configurations the §6
//! JIT discussion moves between.

use std::collections::BTreeMap;

use funtal_syntax::build::*;
use funtal_syntax::{FExpr, FTy, VarName};

use crate::lang::{Def, MExpr};

/// The recursive-self type `µa.(a, int, …, int) → int` for an `n`-ary
/// self-recursive definition.
pub(crate) fn self_mu_ty(arity: usize) -> FTy {
    let mut params = vec![fvar_ty("a")];
    params.extend(std::iter::repeat_n(fint(), arity));
    fmu("a", arrow(params, fint()))
}

/// Converts a definition to a closed F expression of type
/// `(int, …, int) → int`, given materialized expressions for its
/// (non-self) callees.
pub fn def_to_fexpr(def: &Def, materialized: &BTreeMap<String, FExpr>) -> FExpr {
    let n = def.params.len();
    if !def.is_self_recursive() {
        let body = conv(&def.body, def, None, materialized);
        return FExpr::Lam(Box::new(funtal_syntax::Lam {
            params: def
                .params
                .iter()
                .map(|p| (VarName::new(p.as_str()), fint()))
                .collect(),
            zeta: funtal_syntax::TyVar::new(format!("zl_{}", def.name)),
            phi_in: vec![],
            phi_out: vec![],
            body,
        }));
    }
    // Self-application encoding: λ(x̄). F (fold F) x̄ with
    // F = λ(self, x̄). body[f(ē) ↦ (unfold self)(self, ē)].
    let mu = self_mu_ty(n);
    let self_var = fresh_self_name(def);
    let inner_body = conv(&def.body, def, Some(&self_var), materialized);
    let mut big_params: Vec<(VarName, FTy)> = vec![(self_var.clone(), mu.clone())];
    big_params.extend(
        def.params
            .iter()
            .map(|p| (VarName::new(p.as_str()), fint())),
    );
    let big_f = FExpr::Lam(Box::new(funtal_syntax::Lam {
        params: big_params,
        zeta: funtal_syntax::TyVar::new(format!("zr_{}", def.name)),
        phi_in: vec![],
        phi_out: vec![],
        body: inner_body,
    }));
    let mut outer_args = vec![ffold(mu, big_f.clone())];
    outer_args.extend(def.params.iter().map(|p| var(p.as_str())));
    FExpr::Lam(Box::new(funtal_syntax::Lam {
        params: def
            .params
            .iter()
            .map(|p| (VarName::new(p.as_str()), fint()))
            .collect(),
        zeta: funtal_syntax::TyVar::new(format!("zl_{}", def.name)),
        phi_in: vec![],
        phi_out: vec![],
        body: FExpr::app(big_f, outer_args),
    }))
}

fn fresh_self_name(def: &Def) -> VarName {
    let mut name = format!("self_{}", def.name);
    while def.params.contains(&name) {
        name.push('_');
    }
    VarName::new(name)
}

fn conv(
    e: &MExpr,
    def: &Def,
    self_var: Option<&VarName>,
    materialized: &BTreeMap<String, FExpr>,
) -> FExpr {
    match e {
        MExpr::Var(x) => var(x.as_str()),
        MExpr::Int(n) => fint_e(*n),
        MExpr::Binop { op, lhs, rhs } => FExpr::binop(
            *op,
            conv(lhs, def, self_var, materialized),
            conv(rhs, def, self_var, materialized),
        ),
        MExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => if0(
            conv(cond, def, self_var, materialized),
            conv(then_branch, def, self_var, materialized),
            conv(else_branch, def, self_var, materialized),
        ),
        MExpr::Call { callee, args } => {
            let args: Vec<FExpr> = args
                .iter()
                .map(|a| conv(a, def, self_var, materialized))
                .collect();
            if *callee == def.name {
                let sv = self_var.expect("self-call in a non-recursive conversion");
                let mut full = vec![FExpr::Var(sv.clone())];
                full.extend(args);
                app(funfold(FExpr::Var(sv.clone())), full)
            } else {
                let target = materialized
                    .get(callee)
                    .unwrap_or_else(|| panic!("callee {callee} not materialized"))
                    .clone();
                app(target, args)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{factorial_program, fib_program};
    use funtal::machine::eval_to_value;
    use funtal::typecheck;

    #[test]
    fn interpreted_factorial_agrees_with_reference() {
        let p = factorial_program();
        let f = def_to_fexpr(&p.defs["fact"], &BTreeMap::new());
        assert_eq!(typecheck(&f).unwrap(), arrow(vec![fint()], fint()));
        for n in 0..7 {
            let got = eval_to_value(&app(f.clone(), vec![fint_e(n)]), 1_000_000).unwrap();
            assert_eq!(got, fint_e(p.eval("fact", &[n], 100).unwrap()));
        }
    }

    #[test]
    fn interpreted_dag_inlines_callees() {
        let p = fib_program();
        let mut mat = BTreeMap::new();
        let fib = def_to_fexpr(&p.defs["fib"], &mat);
        mat.insert("fib".to_string(), fib);
        let dbl = def_to_fexpr(&p.defs["double_fib"], &mat);
        assert_eq!(typecheck(&dbl).unwrap(), arrow(vec![fint()], fint()));
        let got = eval_to_value(&app(dbl, vec![fint_e(7)]), 5_000_000).unwrap();
        assert_eq!(got, fint_e(p.eval("double_fib", &[7], 100).unwrap()));
    }
}
