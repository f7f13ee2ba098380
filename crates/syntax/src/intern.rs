//! Arc-interned F expressions with cached free-variable sets.
//!
//! The substitution-based FT machine (Fig 8) re-walks and re-allocates
//! whole terms on every reduction. [`IExpr`] is the shared-subtree
//! counterpart used by the environment-passing evaluator: every node is
//! behind an [`Arc`], and every node caches
//!
//! - its free *term* variables (`fv`), so value substitution
//!   ([`subst_ivars`]) can skip — i.e. share, not clone — any subtree
//!   the substitution cannot reach, and
//! - its free *type* variables (`ftv`), so [`Subst::apply`] is O(1) on
//!   closed terms and prunes untouched subtrees elsewhere.
//!
//! Conversion to and from the plain [`FExpr`] tree is lossless
//! ([`IExpr::from_fexpr`], [`IExpr::to_fexpr`]); embedded T components
//! are shared whole (`Arc<TComp>`), with their free-variable sets
//! computed once at conversion time.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Weak};

use crate::free::{ftv_fty, ftv_heap_val, ftv_seq, ftv_stack, ftv_tty, fv_heap_val, fv_seq};
use crate::ids::{TyVar, VarName};
use crate::subst::{subst_fvars, Subst};
use crate::term::HeapVal;
use crate::term::{ArithOp, FExpr, Lam, TComp};
use crate::ty::{FTy, StackTy, TTy};

/// A shared set of free variables; `None` means the empty set, so the
/// overwhelmingly common "closed below here" case costs nothing.
type FvSet<T> = Option<Arc<BTreeSet<T>>>;

fn set_contains<T: Ord>(s: &FvSet<T>, x: &T) -> bool {
    s.as_ref().is_some_and(|s| s.contains(x))
}

fn set_disjoint<'a, T: Ord + 'a>(s: &FvSet<T>, keys: impl IntoIterator<Item = &'a T>) -> bool {
    match s {
        None => true,
        Some(s) => keys.into_iter().all(|k| !s.contains(k)),
    }
}

/// Unions child sets, sharing a single non-empty input unchanged.
fn union<T: Ord + Clone>(parts: impl IntoIterator<Item = FvSet<T>>) -> FvSet<T> {
    let mut acc: FvSet<T> = None;
    for part in parts {
        let Some(part) = part else { continue };
        match &mut acc {
            None => acc = Some(part),
            Some(cur) => {
                if !part.iter().all(|x| cur.contains(x)) {
                    let merged = Arc::make_mut(cur);
                    merged.extend(part.iter().cloned());
                }
            }
        }
    }
    acc
}

fn owned<T: Ord>(s: BTreeSet<T>) -> FvSet<T> {
    if s.is_empty() {
        None
    } else {
        Some(Arc::new(s))
    }
}

fn minus<T: Ord + Clone>(s: FvSet<T>, remove: impl Fn(&T) -> bool) -> FvSet<T> {
    match s {
        None => None,
        Some(s) => {
            if !s.iter().any(&remove) {
                return Some(s);
            }
            owned(s.iter().filter(|x| !remove(x)).cloned().collect())
        }
    }
}

// Free-variable sets of shared heap values, keyed by `Arc` identity and
// validated by upgrading the stored weak handle, so converting the same
// component repeatedly (compiled programs re-entering the evaluator)
// never re-walks its blocks.
thread_local! {
    #[allow(clippy::type_complexity)]
    static HEAP_SETS: RefCell<HashMap<usize, (Weak<HeapVal>, FvSet<VarName>, FvSet<TyVar>)>> =
        RefCell::new(HashMap::new());
}

fn heap_val_sets(hv: &Arc<HeapVal>) -> (FvSet<VarName>, FvSet<TyVar>) {
    let key = Arc::as_ptr(hv) as usize;
    HEAP_SETS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some((weak, fv, ftv)) = cache.get(&key) {
            if let Some(live) = weak.upgrade() {
                if Arc::ptr_eq(&live, hv) {
                    return (fv.clone(), ftv.clone());
                }
            }
        }
        let fv = owned(fv_heap_val(hv));
        let ftv = owned(ftv_heap_val(hv));
        if cache.len() >= 4096 {
            cache.retain(|_, (w, _, _)| w.upgrade().is_some());
        }
        cache.insert(key, (Arc::downgrade(hv), fv.clone(), ftv.clone()));
        (fv, ftv)
    })
}

/// Free term/type variables of a component, using the per-block cache.
fn tcomp_sets(comp: &TComp) -> (FvSet<VarName>, FvSet<TyVar>) {
    let mut fv = owned(fv_seq(&comp.seq));
    let mut ftv = owned(ftv_seq(&comp.seq));
    for (_, hv) in comp.heap.iter_shared() {
        let (bfv, bftv) = heap_val_sets(hv);
        fv = union([fv, bfv]);
        ftv = union([ftv, bftv]);
    }
    (fv, ftv)
}

/// The node forms of an interned F expression, mirroring [`FExpr`].
#[derive(Clone, Debug)]
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

#[derive(Debug)]
struct INode {
    kind: IKind,
    fv: FvSet<VarName>,
    ftv: FvSet<TyVar>,
}

/// An interned F expression: a shared node with cached free-variable
/// sets. Cloning is an `Arc` bump.
#[derive(Clone, Debug)]
pub struct IExpr(Arc<INode>);

// Interned artifacts are shared across batch workers via `Arc`; the
// per-thread caches above are thread-local precisely so the shared
// structures themselves stay `Send + Sync`.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<IExpr>();
};

impl IExpr {
    fn mk(kind: IKind, fv: FvSet<VarName>, ftv: FvSet<TyVar>) -> IExpr {
        IExpr(Arc::new(INode { kind, fv, ftv }))
    }

    /// The node form.
    pub fn kind(&self) -> &IKind {
        &self.0.kind
    }

    /// True when `x` occurs free.
    pub fn has_fv(&self, x: &VarName) -> bool {
        set_contains(&self.0.fv, x)
    }

    /// True when the expression has no free term variables.
    pub fn is_closed(&self) -> bool {
        self.0.fv.is_none()
    }

    /// Iterates over the free term variables (from the cached set).
    pub fn free_vars(&self) -> impl Iterator<Item = &VarName> {
        self.0.fv.iter().flat_map(|s| s.iter())
    }

    /// True when the expression has no free type variables.
    pub fn is_ty_closed(&self) -> bool {
        self.0.ftv.is_none()
    }

    /// True when this is a syntactic value (Fig 5).
    pub fn is_value(&self) -> bool {
        match self.kind() {
            IKind::Unit | IKind::Int(_) | IKind::Lam { .. } => true,
            IKind::Fold { body, .. } => body.is_value(),
            IKind::Tuple(es) => es.iter().all(IExpr::is_value),
            _ => false,
        }
    }

    /// Interns a plain F expression, computing the cached sets
    /// bottom-up in one pass.
    pub fn from_fexpr(e: &FExpr) -> IExpr {
        match e {
            FExpr::Var(x) => IExpr::mk(
                IKind::Var(x.clone()),
                owned(BTreeSet::from([x.clone()])),
                None,
            ),
            FExpr::Unit => IExpr::mk(IKind::Unit, None, None),
            FExpr::Int(n) => IExpr::mk(IKind::Int(*n), None, None),
            FExpr::Binop { op, lhs, rhs } => {
                let lhs = IExpr::from_fexpr(lhs);
                let rhs = IExpr::from_fexpr(rhs);
                let fv = union([lhs.0.fv.clone(), rhs.0.fv.clone()]);
                let ftv = union([lhs.0.ftv.clone(), rhs.0.ftv.clone()]);
                IExpr::mk(IKind::Binop { op: *op, lhs, rhs }, fv, ftv)
            }
            FExpr::If0 {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = IExpr::from_fexpr(cond);
                let t = IExpr::from_fexpr(then_branch);
                let f = IExpr::from_fexpr(else_branch);
                let fv = union([cond.0.fv.clone(), t.0.fv.clone(), f.0.fv.clone()]);
                let ftv = union([cond.0.ftv.clone(), t.0.ftv.clone(), f.0.ftv.clone()]);
                IExpr::mk(
                    IKind::If0 {
                        cond,
                        then_branch: t,
                        else_branch: f,
                    },
                    fv,
                    ftv,
                )
            }
            FExpr::Lam(lam) => {
                let body = IExpr::from_fexpr(&lam.body);
                let fv = minus(body.0.fv.clone(), |x| {
                    lam.params.iter().any(|(p, _)| p == x)
                });
                let mut ann_ftv = BTreeSet::new();
                for (_, t) in &lam.params {
                    ann_ftv.extend(ftv_fty(t));
                }
                let inner = union([
                    owned(
                        lam.phi_in
                            .iter()
                            .chain(&lam.phi_out)
                            .flat_map(ftv_tty)
                            .collect(),
                    ),
                    body.0.ftv.clone(),
                ]);
                let ftv = union([owned(ann_ftv), minus(inner, |v| *v == lam.zeta)]);
                IExpr::mk(
                    IKind::Lam {
                        params: lam.params.clone().into(),
                        zeta: lam.zeta.clone(),
                        phi_in: lam.phi_in.clone().into(),
                        phi_out: lam.phi_out.clone().into(),
                        body,
                    },
                    fv,
                    ftv,
                )
            }
            FExpr::App { func, args } => {
                let func = IExpr::from_fexpr(func);
                let args: Vec<IExpr> = args.iter().map(IExpr::from_fexpr).collect();
                let fv = union(
                    std::iter::once(func.0.fv.clone()).chain(args.iter().map(|a| a.0.fv.clone())),
                );
                let ftv = union(
                    std::iter::once(func.0.ftv.clone()).chain(args.iter().map(|a| a.0.ftv.clone())),
                );
                IExpr::mk(
                    IKind::App {
                        func,
                        args: args.into(),
                    },
                    fv,
                    ftv,
                )
            }
            FExpr::Fold { ann, body } => {
                let body = IExpr::from_fexpr(body);
                let fv = body.0.fv.clone();
                let ftv = union([owned(ftv_fty(ann)), body.0.ftv.clone()]);
                IExpr::mk(
                    IKind::Fold {
                        ann: Arc::new(ann.clone()),
                        body,
                    },
                    fv,
                    ftv,
                )
            }
            FExpr::Unfold(body) => {
                let body = IExpr::from_fexpr(body);
                let (fv, ftv) = (body.0.fv.clone(), body.0.ftv.clone());
                IExpr::mk(IKind::Unfold(body), fv, ftv)
            }
            FExpr::Tuple(es) => {
                let es: Vec<IExpr> = es.iter().map(IExpr::from_fexpr).collect();
                let fv = union(es.iter().map(|e| e.0.fv.clone()));
                let ftv = union(es.iter().map(|e| e.0.ftv.clone()));
                IExpr::mk(IKind::Tuple(es.into()), fv, ftv)
            }
            FExpr::Proj { idx, tuple } => {
                let tuple = IExpr::from_fexpr(tuple);
                let (fv, ftv) = (tuple.0.fv.clone(), tuple.0.ftv.clone());
                IExpr::mk(IKind::Proj { idx: *idx, tuple }, fv, ftv)
            }
            FExpr::Boundary {
                ty,
                sigma_out,
                comp,
            } => {
                let (comp_fv, comp_ftv) = tcomp_sets(comp);
                let mut ftv = ftv_fty(ty);
                if let Some(s) = sigma_out {
                    ftv.extend(ftv_stack(s));
                }
                let ftv = union([owned(ftv), comp_ftv]);
                IExpr::mk(
                    IKind::Boundary {
                        ty: Arc::new(ty.clone()),
                        sigma_out: sigma_out.clone().map(Arc::new),
                        comp: Arc::new((**comp).clone()),
                    },
                    comp_fv,
                    ftv,
                )
            }
        }
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

/// Substitutes interned values for free term variables, sharing every
/// subtree the substitution cannot reach.
///
/// When a replacement's free variables would be captured by a binder
/// (impossible for the machine, whose replacements are closed values),
/// the affected subtree falls back to the capture-avoiding
/// [`subst_fvars`] on the plain tree.
pub fn subst_ivars(e: &IExpr, map: &BTreeMap<VarName, IExpr>) -> IExpr {
    if map.is_empty() || set_disjoint(&e.0.fv, map.keys()) {
        return e.clone();
    }
    match e.kind() {
        IKind::Var(x) => map.get(x).cloned().unwrap_or_else(|| e.clone()),
        IKind::Unit | IKind::Int(_) => e.clone(),
        IKind::Binop { op, lhs, rhs } => {
            let lhs = subst_ivars(lhs, map);
            let rhs = subst_ivars(rhs, map);
            let fv = union([lhs.0.fv.clone(), rhs.0.fv.clone()]);
            let ftv = union([lhs.0.ftv.clone(), rhs.0.ftv.clone()]);
            IExpr::mk(IKind::Binop { op: *op, lhs, rhs }, fv, ftv)
        }
        IKind::If0 {
            cond,
            then_branch,
            else_branch,
        } => {
            let cond = subst_ivars(cond, map);
            let t = subst_ivars(then_branch, map);
            let f = subst_ivars(else_branch, map);
            let fv = union([cond.0.fv.clone(), t.0.fv.clone(), f.0.fv.clone()]);
            let ftv = union([cond.0.ftv.clone(), t.0.ftv.clone(), f.0.ftv.clone()]);
            IExpr::mk(
                IKind::If0 {
                    cond,
                    then_branch: t,
                    else_branch: f,
                },
                fv,
                ftv,
            )
        }
        IKind::Lam {
            params,
            zeta,
            phi_in,
            phi_out,
            body,
        } => {
            // Drop shadowed bindings; check remaining replacements for
            // capture by the parameters.
            let inner: BTreeMap<VarName, IExpr> = map
                .iter()
                .filter(|(k, _)| !params.iter().any(|(p, _)| p == *k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            if inner.is_empty() || set_disjoint(&body.0.fv, inner.keys()) {
                return e.clone();
            }
            let captured = inner
                .values()
                .any(|v| params.iter().any(|(p, _)| v.has_fv(p)));
            if captured {
                let plain: BTreeMap<VarName, FExpr> =
                    map.iter().map(|(k, v)| (k.clone(), v.to_fexpr())).collect();
                return IExpr::from_fexpr(&subst_fvars(&e.to_fexpr(), &plain));
            }
            let body = subst_ivars(body, &inner);
            let fv = minus(body.0.fv.clone(), |x| params.iter().any(|(p, _)| p == x));
            let ann_ftv: BTreeSet<TyVar> = params.iter().flat_map(|(_, t)| ftv_fty(t)).collect();
            let prefix_ftv: BTreeSet<TyVar> = phi_in
                .iter()
                .chain(phi_out.iter())
                .flat_map(ftv_tty)
                .collect();
            let ftv = union([
                owned(ann_ftv),
                minus(union([owned(prefix_ftv), body.0.ftv.clone()]), |v| {
                    v == zeta
                }),
            ]);
            IExpr::mk(
                IKind::Lam {
                    params: params.clone(),
                    zeta: zeta.clone(),
                    phi_in: phi_in.clone(),
                    phi_out: phi_out.clone(),
                    body,
                },
                fv,
                ftv,
            )
        }
        IKind::App { func, args } => {
            let func = subst_ivars(func, map);
            let args: Vec<IExpr> = args.iter().map(|a| subst_ivars(a, map)).collect();
            let fv = union(
                std::iter::once(func.0.fv.clone()).chain(args.iter().map(|a| a.0.fv.clone())),
            );
            let ftv = union(
                std::iter::once(func.0.ftv.clone()).chain(args.iter().map(|a| a.0.ftv.clone())),
            );
            IExpr::mk(
                IKind::App {
                    func,
                    args: args.into(),
                },
                fv,
                ftv,
            )
        }
        IKind::Fold { ann, body } => {
            let body = subst_ivars(body, map);
            let fv = body.0.fv.clone();
            let ftv = union([owned(ftv_fty(ann)), body.0.ftv.clone()]);
            IExpr::mk(
                IKind::Fold {
                    ann: ann.clone(),
                    body,
                },
                fv,
                ftv,
            )
        }
        IKind::Unfold(body) => {
            let body = subst_ivars(body, map);
            let (fv, ftv) = (body.0.fv.clone(), body.0.ftv.clone());
            IExpr::mk(IKind::Unfold(body), fv, ftv)
        }
        IKind::Tuple(es) => {
            let es: Vec<IExpr> = es.iter().map(|x| subst_ivars(x, map)).collect();
            let fv = union(es.iter().map(|x| x.0.fv.clone()));
            let ftv = union(es.iter().map(|x| x.0.ftv.clone()));
            IExpr::mk(IKind::Tuple(es.into()), fv, ftv)
        }
        IKind::Proj { idx, tuple } => {
            let tuple = subst_ivars(tuple, map);
            let (fv, ftv) = (tuple.0.fv.clone(), tuple.0.ftv.clone());
            IExpr::mk(IKind::Proj { idx: *idx, tuple }, fv, ftv)
        }
        IKind::Boundary { .. } => {
            // The substitution reaches `import` bodies inside the
            // component; rebuild through the plain tree.
            let plain: BTreeMap<VarName, FExpr> =
                map.iter().map(|(k, v)| (k.clone(), v.to_fexpr())).collect();
            IExpr::from_fexpr(&subst_fvars(&e.to_fexpr(), &plain))
        }
    }
}

impl Subst {
    /// Applies the type substitution to an interned expression.
    ///
    /// Thanks to the cached free-type-variable sets this is O(1) on any
    /// subtree the substitution's domain cannot reach — in particular on
    /// every type-closed term — and shares all untouched subtrees of a
    /// partially affected one.
    pub fn apply(&self, e: &IExpr) -> IExpr {
        if self.is_empty() || set_disjoint(&e.0.ftv, self.domain()) {
            return e.clone();
        }
        match e.kind() {
            IKind::Var(_) | IKind::Unit | IKind::Int(_) => e.clone(),
            IKind::Binop { op, lhs, rhs } => {
                let lhs = self.apply(lhs);
                let rhs = self.apply(rhs);
                let fv = union([lhs.0.fv.clone(), rhs.0.fv.clone()]);
                let ftv = union([lhs.0.ftv.clone(), rhs.0.ftv.clone()]);
                IExpr::mk(IKind::Binop { op: *op, lhs, rhs }, fv, ftv)
            }
            IKind::If0 {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.apply(cond);
                let t = self.apply(then_branch);
                let f = self.apply(else_branch);
                let fv = union([cond.0.fv.clone(), t.0.fv.clone(), f.0.fv.clone()]);
                let ftv = union([cond.0.ftv.clone(), t.0.ftv.clone(), f.0.ftv.clone()]);
                IExpr::mk(
                    IKind::If0 {
                        cond,
                        then_branch: t,
                        else_branch: f,
                    },
                    fv,
                    ftv,
                )
            }
            IKind::App { func, args } => {
                let func = self.apply(func);
                let args: Vec<IExpr> = args.iter().map(|a| self.apply(a)).collect();
                let fv = union(
                    std::iter::once(func.0.fv.clone()).chain(args.iter().map(|a| a.0.fv.clone())),
                );
                let ftv = union(
                    std::iter::once(func.0.ftv.clone()).chain(args.iter().map(|a| a.0.ftv.clone())),
                );
                IExpr::mk(
                    IKind::App {
                        func,
                        args: args.into(),
                    },
                    fv,
                    ftv,
                )
            }
            IKind::Unfold(body) => {
                let body = self.apply(body);
                let (fv, ftv) = (body.0.fv.clone(), body.0.ftv.clone());
                IExpr::mk(IKind::Unfold(body), fv, ftv)
            }
            IKind::Tuple(es) => {
                let es: Vec<IExpr> = es.iter().map(|x| self.apply(x)).collect();
                let fv = union(es.iter().map(|x| x.0.fv.clone()));
                let ftv = union(es.iter().map(|x| x.0.ftv.clone()));
                IExpr::mk(IKind::Tuple(es.into()), fv, ftv)
            }
            IKind::Proj { idx, tuple } => {
                let tuple = self.apply(tuple);
                let (fv, ftv) = (tuple.0.fv.clone(), tuple.0.ftv.clone());
                IExpr::mk(IKind::Proj { idx: *idx, tuple }, fv, ftv)
            }
            // Binder-crossing and component-embedding forms (Lam with
            // its ζ, Fold annotations, boundaries) rebuild through the
            // capture-avoiding plain-tree substitution.
            IKind::Lam { .. } | IKind::Fold { .. } | IKind::Boundary { .. } => {
                IExpr::from_fexpr(&self.fexpr(&e.to_fexpr()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::ty::Inst;

    #[test]
    fn round_trip_preserves_structure() {
        let e = app(
            lam(vec![("x", fint())], fadd(var("x"), fint_e(1))),
            vec![fint_e(41)],
        );
        let i = IExpr::from_fexpr(&e);
        assert_eq!(i.to_fexpr(), e);
        assert!(i.is_closed());
    }

    #[test]
    fn fv_cache_matches_free_module() {
        let e = fadd(var("x"), app(var("f"), vec![var("x")]));
        let i = IExpr::from_fexpr(&e);
        assert!(!i.is_closed());
        assert!(i.has_fv(&VarName::new("x")) && i.has_fv(&VarName::new("f")));
        assert!(!i.has_fv(&VarName::new("y")));
    }

    #[test]
    fn subst_shares_untouched_subtrees() {
        let untouched = fmul(fint_e(2), fint_e(3));
        let e = fadd(var("x"), untouched.clone());
        let i = IExpr::from_fexpr(&e);
        let map = BTreeMap::from([(VarName::new("x"), IExpr::from_fexpr(&fint_e(1)))]);
        let out = subst_ivars(&i, &map);
        assert_eq!(out.to_fexpr(), fadd(fint_e(1), untouched));
        // The untouched right operand is the same allocation.
        let (IKind::Binop { rhs: before, .. }, IKind::Binop { rhs: after, .. }) =
            (i.kind(), out.kind())
        else {
            panic!("expected binops")
        };
        assert!(Arc::ptr_eq(&before.0, &after.0));
    }

    #[test]
    fn subst_apply_is_identity_on_closed_terms() {
        let e = IExpr::from_fexpr(&app(
            lam(vec![("x", fint())], fadd(var("x"), fint_e(1))),
            vec![fint_e(1)],
        ));
        assert!(e.is_ty_closed());
        let s = Subst::one(TyVar::new("z"), Inst::Ty(TTy::Int));
        let out = s.apply(&e);
        assert!(Arc::ptr_eq(&e.0, &out.0), "closed term must be shared");
    }

    #[test]
    fn lam_shadowing_shares_whole_lambda() {
        let e = IExpr::from_fexpr(&lam(vec![("x", fint())], var("x")));
        let map = BTreeMap::from([(VarName::new("x"), IExpr::from_fexpr(&fint_e(7)))]);
        let out = subst_ivars(&e, &map);
        assert!(Arc::ptr_eq(&e.0, &out.0));
    }

    #[test]
    fn capture_falls_back_to_renaming() {
        // (λ y. x)[x := y] must rename y, matching subst_fvars.
        let e = FExpr::Lam(Box::new(Lam {
            params: vec![(VarName::new("y"), FTy::Int)],
            zeta: TyVar::new("z"),
            phi_in: vec![],
            phi_out: vec![],
            body: FExpr::Var(VarName::new("x")),
        }));
        let i = IExpr::from_fexpr(&e);
        let map = BTreeMap::from([(
            VarName::new("x"),
            IExpr::from_fexpr(&FExpr::Var(VarName::new("y"))),
        )]);
        let plain_map = BTreeMap::from([(VarName::new("x"), FExpr::Var(VarName::new("y")))]);
        assert_eq!(
            subst_ivars(&i, &map).to_fexpr(),
            subst_fvars(&e, &plain_map)
        );
    }
}
