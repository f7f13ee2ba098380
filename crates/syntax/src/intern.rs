//! Arc-shared F expressions for the fast machine.
//!
//! The substitution-based FT machine (Fig 8) re-walks and re-allocates
//! whole terms on every reduction. [`IExpr`] is the shared-subtree
//! counterpart walked by the environment-passing evaluator: every node
//! is behind an [`Arc`], so a closure or continuation frame holds a
//! subterm by reference instead of cloning it.
//!
//! Conversion to and from the plain [`FExpr`] tree is lossless
//! ([`IExpr::from_fexpr`], [`IExpr::to_fexpr`]); embedded T components
//! are shared whole (`Arc<TComp>`).

use std::sync::Arc;

use crate::ids::{TyVar, VarName};
use crate::term::{ArithOp, FExpr, Lam, TComp};
use crate::ty::{FTy, StackTy, TTy};

/// The node forms of an interned F expression, mirroring [`FExpr`].
#[derive(Clone, Debug, PartialEq)]
pub enum IKind {
    /// A variable.
    Var(VarName),
    /// `()`.
    Unit,
    /// An integer literal.
    Int(i64),
    /// `e p e`.
    Binop {
        /// The operation.
        op: ArithOp,
        /// Left operand.
        lhs: IExpr,
        /// Right operand.
        rhs: IExpr,
    },
    /// `if0 e e e`.
    If0 {
        /// The scrutinee.
        cond: IExpr,
        /// Taken when the scrutinee is 0.
        then_branch: IExpr,
        /// Taken otherwise.
        else_branch: IExpr,
    },
    /// A lambda; parameters and stack prefixes are shared, the body is
    /// interned.
    Lam {
        /// Parameters with their types.
        params: Arc<[(VarName, FTy)]>,
        /// The abstract stack-tail binder.
        zeta: TyVar,
        /// Required stack prefix.
        phi_in: Arc<[TTy]>,
        /// Produced stack prefix.
        phi_out: Arc<[TTy]>,
        /// The interned body.
        body: IExpr,
    },
    /// Application.
    App {
        /// The function.
        func: IExpr,
        /// The arguments, evaluated left to right.
        args: Arc<[IExpr]>,
    },
    /// `fold_{µα.τ} e`.
    Fold {
        /// The recursive type annotation.
        ann: Arc<FTy>,
        /// The folded expression.
        body: IExpr,
    },
    /// `unfold e`.
    Unfold(IExpr),
    /// `⟨e̅⟩`.
    Tuple(Arc<[IExpr]>),
    /// `πi(e)`.
    Proj {
        /// The 1-based field index.
        idx: usize,
        /// The projected tuple.
        tuple: IExpr,
    },
    /// A boundary `τFT e`; the component is shared whole.
    Boundary {
        /// The F type directing the translation.
        ty: Arc<FTy>,
        /// Output stack annotation, if any.
        sigma_out: Option<Arc<StackTy>>,
        /// The embedded T component.
        comp: Arc<TComp>,
    },
}

/// An interned F expression: a shared node. Cloning is an `Arc` bump.
#[derive(Clone, Debug, PartialEq)]
pub struct IExpr(Arc<IKind>);

// Interned artifacts are shared across batch workers via `Arc`.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<IExpr>();
};

impl IExpr {
    /// The node form.
    pub fn kind(&self) -> &IKind {
        &self.0
    }

    /// Interns a plain F expression.
    pub fn from_fexpr(e: &FExpr) -> IExpr {
        IExpr(Arc::new(match e {
            FExpr::Var(x) => IKind::Var(x.clone()),
            FExpr::Unit => IKind::Unit,
            FExpr::Int(n) => IKind::Int(*n),
            FExpr::Binop { op, lhs, rhs } => IKind::Binop {
                op: *op,
                lhs: IExpr::from_fexpr(lhs),
                rhs: IExpr::from_fexpr(rhs),
            },
            FExpr::If0 {
                cond,
                then_branch,
                else_branch,
            } => IKind::If0 {
                cond: IExpr::from_fexpr(cond),
                then_branch: IExpr::from_fexpr(then_branch),
                else_branch: IExpr::from_fexpr(else_branch),
            },
            FExpr::Lam(lam) => IKind::Lam {
                params: lam.params.clone().into(),
                zeta: lam.zeta.clone(),
                phi_in: lam.phi_in.clone().into(),
                phi_out: lam.phi_out.clone().into(),
                body: IExpr::from_fexpr(&lam.body),
            },
            FExpr::App { func, args } => IKind::App {
                func: IExpr::from_fexpr(func),
                args: args.iter().map(IExpr::from_fexpr).collect(),
            },
            FExpr::Fold { ann, body } => IKind::Fold {
                ann: Arc::new(ann.clone()),
                body: IExpr::from_fexpr(body),
            },
            FExpr::Unfold(body) => IKind::Unfold(IExpr::from_fexpr(body)),
            FExpr::Tuple(es) => IKind::Tuple(es.iter().map(IExpr::from_fexpr).collect()),
            FExpr::Proj { idx, tuple } => IKind::Proj {
                idx: *idx,
                tuple: IExpr::from_fexpr(tuple),
            },
            FExpr::Boundary {
                ty,
                sigma_out,
                comp,
            } => IKind::Boundary {
                ty: Arc::new(ty.clone()),
                sigma_out: sigma_out.clone().map(Arc::new),
                comp: Arc::new((**comp).clone()),
            },
        }))
    }

    /// Converts back to a plain F expression tree.
    pub fn to_fexpr(&self) -> FExpr {
        match self.kind() {
            IKind::Var(x) => FExpr::Var(x.clone()),
            IKind::Unit => FExpr::Unit,
            IKind::Int(n) => FExpr::Int(*n),
            IKind::Binop { op, lhs, rhs } => FExpr::Binop {
                op: *op,
                lhs: Box::new(lhs.to_fexpr()),
                rhs: Box::new(rhs.to_fexpr()),
            },
            IKind::If0 {
                cond,
                then_branch,
                else_branch,
            } => FExpr::If0 {
                cond: Box::new(cond.to_fexpr()),
                then_branch: Box::new(then_branch.to_fexpr()),
                else_branch: Box::new(else_branch.to_fexpr()),
            },
            IKind::Lam {
                params,
                zeta,
                phi_in,
                phi_out,
                body,
            } => FExpr::Lam(Box::new(Lam {
                params: params.to_vec(),
                zeta: zeta.clone(),
                phi_in: phi_in.to_vec(),
                phi_out: phi_out.to_vec(),
                body: body.to_fexpr(),
            })),
            IKind::App { func, args } => FExpr::App {
                func: Box::new(func.to_fexpr()),
                args: args.iter().map(IExpr::to_fexpr).collect(),
            },
            IKind::Fold { ann, body } => FExpr::Fold {
                ann: (**ann).clone(),
                body: Box::new(body.to_fexpr()),
            },
            IKind::Unfold(body) => FExpr::Unfold(Box::new(body.to_fexpr())),
            IKind::Tuple(es) => FExpr::Tuple(es.iter().map(IExpr::to_fexpr).collect()),
            IKind::Proj { idx, tuple } => FExpr::Proj {
                idx: *idx,
                tuple: Box::new(tuple.to_fexpr()),
            },
            IKind::Boundary {
                ty,
                sigma_out,
                comp,
            } => FExpr::Boundary {
                ty: (**ty).clone(),
                sigma_out: sigma_out.as_ref().map(|s| (**s).clone()),
                comp: Box::new((**comp).clone()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn round_trip_preserves_structure() {
        let e = app(
            lam(vec![("x", fint())], fadd(var("x"), fint_e(1))),
            vec![fint_e(41)],
        );
        let i = IExpr::from_fexpr(&e);
        assert_eq!(i.to_fexpr(), e);
    }
}
