//! The fast FT machine's shared half: an evaluator for the same
//! semantics as [`crate::machine`] (Fig 8) that never rebuilds terms.
//!
//! FT runs on exactly two machines: the substitution oracle of
//! [`crate::machine`] and this one. The substitution machine re-walks
//! the expression to find the redex and deep-clones subterms at every
//! β-reduction; this machine instead keeps
//!
//! - an explicit **continuation stack** ([`Frame`]) and a **value
//!   environment** ([`Env`]) for F — a CEK-style machine over the
//!   `IExpr` interned terms of `crate::intern`;
//! - a register file held in a fixed array, a plain `Vec` stack, and a
//!   flat `Vec`-indexed heap with a label-interning table ([`FastMem`])
//!   for T, whose code runs on the bytecode VM of
//!   [`crate::machine_bc`] (each component lowered whole to a linear
//!   IR; the dispatch loop lives there, the F side and the Fig 10
//!   translations live here).
//!
//! Fuel is consumed at exactly the reduction points of the
//! substitution machine and the same [`Event`] stream is emitted, so
//! the two machines agree step-for-step: the differential suite
//! (`tests/strategy_equiv.rs`) checks outcome equality *and* that the
//! minimal sufficient fuel coincides. Fresh-label generation mirrors
//! [`Memory`] word for word, so even heap labels in outcomes match.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use funtal_fun::check::unroll_fty;
use funtal_syntax::rename::{rename_heap_val, rename_seq};
use funtal_syntax::subst::subst_fvars;
use funtal_syntax::{
    ArithOp, FExpr, FTy, HeapVal, Inst, InstrSeq, Label, Lam, Mutability, Reg, SmallVal, StackTail,
    StackTy, TComp, TTy, TyVar, VarName, WordVal,
};
use funtal_tal::error::{RResult, RuntimeError};
use funtal_tal::machine::Memory;
use funtal_tal::trace::{CountTracer, Event, Tracer};

use crate::intern::{IComp, IExpr, IKind};
use crate::machine::{FtOutcome, RunCfg};
use crate::machine_bc::{lower_block, BcCtrl, BcModule, BcState};
use crate::translate::{check_wrappable, end_block, fty_to_tty, lambda_glue_block, wrapper_lambda};

// ---------------------------------------------------------------------
// Words and memory
// ---------------------------------------------------------------------

/// A T word as the fast machine holds it: immediates inline, heap
/// locations as indices into the flat heap, and everything else (packs,
/// folds, instantiated words) behind a shared, interned [`WordVal`] so
/// moves never deep-clone.
#[derive(Clone, Debug, PartialEq)]
pub enum TWord {
    /// `()`.
    Unit,
    /// An integer.
    Int(i64),
    /// A heap location, resolved to its flat-heap index.
    Loc(u32),
    /// Any other word (pack/fold/inst shapes, or a location literal
    /// whose label is resolved on use), shared.
    Big(Arc<WordVal>),
}

/// A heap cell of the flat heap.
#[derive(Debug)]
pub(crate) enum FastHeapVal {
    /// A code block, shared with the syntax tree; `bc` caches the
    /// lowered bytecode entry point, and `env` is the F
    /// environment captured when the block was merged (the substitution
    /// machine substitutes those values into `import` bodies at β time;
    /// the environment machine defers the lookup to execution).
    Code {
        hv: Arc<HeapVal>,
        env: Env,
        bc: Option<crate::machine_bc::BcCell>,
    },
    /// A tuple of fast words (`st` mutates in place).
    Tuple {
        mutability: Mutability,
        fields: Vec<TWord>,
    },
}

/// The fast memory: flat heap + interning table, array register file,
/// and a plain `Vec` stack. Mirrors [`Memory`]'s fresh-label naming
/// exactly so both strategies allocate identical labels.
#[derive(Debug, Default)]
pub struct FastMem {
    pub(crate) heap: Vec<FastHeapVal>,
    pub(crate) index: HashMap<Label, u32>,
    pub(crate) names: Vec<Label>,
    pub(crate) regs: [Option<TWord>; 8],
    pub(crate) stack: Vec<TWord>,
    pub(crate) next_fresh: u64,
}

pub(crate) fn ridx(r: Reg) -> usize {
    r as usize
}

impl FastMem {
    pub(crate) fn from_memory(mem: &Memory) -> FastMem {
        let mut fm = FastMem {
            next_fresh: mem.fresh_counter(),
            ..FastMem::default()
        };
        // Two passes: intern every label first, then convert values
        // (tuple fields may reference labels in any order).
        for (l, _) in mem.heap.iter() {
            fm.intern(l.clone());
        }
        for (l, hv) in mem.heap.iter() {
            let idx = fm.index[l] as usize;
            let converted = fm.convert_heap_val(hv, &Env::default());
            fm.heap[idx] = converted;
        }
        for (r, w) in mem.regs.iter() {
            fm.regs[ridx(*r)] = Some(fm.tword_of_word(w));
        }
        let mut bottom_first: Vec<&WordVal> = mem.stack.iter_top_first().collect();
        bottom_first.reverse();
        for w in bottom_first {
            let tw = fm.tword_of_word(w);
            fm.stack.push(tw);
        }
        fm
    }

    pub(crate) fn write_back(&self, mem: &mut Memory) {
        mem.heap = self
            .names
            .iter()
            .zip(&self.heap)
            .map(|(l, hv)| {
                let shared = match hv {
                    // The substitution machine β-substitutes into a
                    // component's `import` bodies *before* merging, so
                    // a block whose imports close over the captured
                    // environment must be written back in substituted
                    // form — otherwise the final heap would diverge
                    // from the oracle and a later run on this memory
                    // would see free variables.
                    FastHeapVal::Code { hv, env, .. } if env.is_empty() => hv.clone(),
                    FastHeapVal::Code { hv, env, .. } => {
                        let free = funtal_syntax::free::fv_heap_val(hv);
                        let map: BTreeMap<VarName, FExpr> = free
                            .iter()
                            .filter_map(|x| env.lookup(x).map(|v| (x.clone(), reify_val(v))))
                            .collect();
                        if map.is_empty() {
                            hv.clone()
                        } else {
                            let HeapVal::Code(block) = &**hv else {
                                unreachable!("fv_heap_val found vars in a tuple")
                            };
                            Arc::new(HeapVal::Code(funtal_syntax::CodeBlock {
                                body: funtal_syntax::subst::subst_fvars_seq(&block.body, &map),
                                ..block.clone()
                            }))
                        }
                    }
                    FastHeapVal::Tuple { mutability, fields } => Arc::new(HeapVal::Tuple {
                        mutability: *mutability,
                        fields: fields.iter().map(|w| self.reify_word(w)).collect(),
                    }),
                };
                (l.clone(), shared)
            })
            .collect();
        mem.regs = Reg::ALL
            .iter()
            .filter_map(|r| {
                self.regs[ridx(*r)]
                    .as_ref()
                    .map(|w| (*r, self.reify_word(w)))
            })
            .collect();
        let mut stack = funtal_tal::machine::Stack::new();
        for w in &self.stack {
            stack.push(self.reify_word(w));
        }
        mem.stack = stack;
        mem.set_fresh_counter(self.next_fresh);
    }

    /// Registers a label, returning its index. Pre-existing labels keep
    /// their slot.
    pub(crate) fn intern(&mut self, l: Label) -> u32 {
        if let Some(i) = self.index.get(&l) {
            return *i;
        }
        let i = self.heap.len() as u32;
        self.heap.push(FastHeapVal::Tuple {
            mutability: Mutability::Boxed,
            fields: Vec::new(),
        });
        self.names.push(l.clone());
        self.index.insert(l, i);
        i
    }

    fn convert_heap_val(&self, hv: &Arc<HeapVal>, env: &Env) -> FastHeapVal {
        match &**hv {
            HeapVal::Code(_) => FastHeapVal::Code {
                hv: hv.clone(),
                env: env.clone(),
                bc: None,
            },
            HeapVal::Tuple { mutability, fields } => FastHeapVal::Tuple {
                mutability: *mutability,
                fields: fields.iter().map(|w| self.tword_of_word(w)).collect(),
            },
        }
    }

    /// Converts a syntax-level word, resolving known labels to indices.
    pub(crate) fn tword_of_word(&self, w: &WordVal) -> TWord {
        match w {
            WordVal::Unit => TWord::Unit,
            WordVal::Int(n) => TWord::Int(*n),
            WordVal::Loc(l) => match self.index.get(l) {
                Some(i) => TWord::Loc(*i),
                None => TWord::Big(Arc::new(w.clone())),
            },
            _ => TWord::Big(Arc::new(w.clone())),
        }
    }

    /// Reifies a fast word back to the syntax-level form.
    pub(crate) fn reify_word(&self, w: &TWord) -> WordVal {
        match w {
            TWord::Unit => WordVal::Unit,
            TWord::Int(n) => WordVal::Int(*n),
            TWord::Loc(i) => WordVal::Loc(self.names[*i as usize].clone()),
            TWord::Big(w) => (**w).clone(),
        }
    }

    pub(crate) fn reg(&self, r: Reg) -> RResult<&TWord> {
        self.regs[ridx(r)]
            .as_ref()
            .ok_or(RuntimeError::UnboundReg(r))
    }

    pub(crate) fn set_reg(&mut self, r: Reg, w: TWord) {
        self.regs[ridx(r)] = Some(w);
    }

    /// Mirrors [`Memory::fresh_label`] exactly.
    pub(crate) fn fresh_label(&mut self, hint: &str) -> Label {
        let n = self.next_fresh;
        self.next_fresh += 1;
        Label::new(format!("{hint}${n}"))
    }

    pub(crate) fn alloc(&mut self, hint: &str, hv: FastHeapVal) -> u32 {
        let l = self.fresh_label(hint);
        let i = self.intern(l);
        self.heap[i as usize] = hv;
        i
    }

    pub(crate) fn loc_of(&self, w: &TWord) -> RResult<u32> {
        match w {
            TWord::Loc(i) => Ok(*i),
            TWord::Big(b) => match &**b {
                WordVal::Loc(l) => self
                    .index
                    .get(l)
                    .copied()
                    .ok_or_else(|| RuntimeError::UnboundLabel(l.clone())),
                other => Err(RuntimeError::NotTuple(other.to_string())),
            },
            other => Err(RuntimeError::NotTuple(self.reify_word(other).to_string())),
        }
    }

    /// Reads a register that must hold an integer without cloning the
    /// word — the bytecode VM's arithmetic fast path.
    pub(crate) fn int_reg(&self, r: Reg) -> RResult<i64> {
        match &self.regs[ridx(r)] {
            Some(TWord::Int(n)) => Ok(*n),
            Some(w) => Err(RuntimeError::NotInt(self.reify_word(w).to_string())),
            None => Err(RuntimeError::UnboundReg(r)),
        }
    }

    pub(crate) fn as_int(&self, w: &TWord) -> RResult<i64> {
        match w {
            TWord::Int(n) => Ok(*n),
            other => Err(RuntimeError::NotInt(self.reify_word(other).to_string())),
        }
    }

    pub(crate) fn stack_pop_n(&mut self, n: usize) -> RResult<Vec<TWord>> {
        if self.stack.len() < n {
            return Err(RuntimeError::StackUnderflow {
                need: n,
                have: self.stack.len(),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.stack.pop().expect("length checked"));
        }
        Ok(out)
    }

    /// Pops `n` words without materializing them — `sfree`'s fast path
    /// (no intermediate `Vec`).
    pub(crate) fn stack_drop_n(&mut self, n: usize) -> RResult<()> {
        if self.stack.len() < n {
            return Err(RuntimeError::StackUnderflow {
                need: n,
                have: self.stack.len(),
            });
        }
        self.stack.truncate(self.stack.len() - n);
        Ok(())
    }

    pub(crate) fn stack_get(&self, i: usize) -> RResult<&TWord> {
        let len = self.stack.len();
        if i < len {
            Ok(&self.stack[len - 1 - i])
        } else {
            Err(RuntimeError::BadStackIndex(i))
        }
    }

    pub(crate) fn stack_set(&mut self, i: usize, w: TWord) -> RResult<()> {
        let len = self.stack.len();
        if i < len {
            self.stack[len - 1 - i] = w;
            Ok(())
        } else {
            Err(RuntimeError::BadStackIndex(i))
        }
    }

    /// Merges a fragment's blocks into the flat heap, mirroring
    /// [`Memory::merge_fragment`] (same collision detection, same
    /// fresh names, same sharing of untouched blocks). The outcome
    /// carries the renamed entry sequence when a label collided
    /// (`renamed_entry: None` means the entry is `comp.seq` verbatim,
    /// so the caller can reuse a cached lowering) plus the flat-heap
    /// index of each merged block in fragment order, which the bytecode
    /// VM uses to bind lower-time block ordinals to this instance.
    pub(crate) fn merge_fragment(&mut self, comp: &TComp, env: &Env) -> MergeOutcome {
        if comp.heap.is_empty() {
            return MergeOutcome::default();
        }
        let colliding: Vec<Label> = comp
            .heap
            .iter()
            .filter(|(l, _)| self.index.contains_key(*l))
            .map(|(l, _)| l.clone())
            .collect();
        let renaming: BTreeMap<Label, Label> = colliding
            .into_iter()
            .map(|l| {
                let fresh = self.fresh_label(l.as_str());
                (l, fresh)
            })
            .collect();
        let mut indices = Vec::with_capacity(comp.heap.0.len());
        for (l, hv) in comp.heap.iter_shared() {
            let shared = if renaming.is_empty() {
                hv.clone()
            } else {
                Arc::new(rename_heap_val(hv, &renaming))
            };
            let target = renaming.get(l).cloned().unwrap_or_else(|| l.clone());
            let idx = self.intern(target);
            let converted = self.convert_heap_val(&shared, env);
            self.heap[idx as usize] = converted;
            indices.push(idx);
        }
        let renamed_entry = if renaming.is_empty() {
            None
        } else {
            Some(rename_seq(&comp.seq, &renaming))
        };
        MergeOutcome {
            renamed_entry,
            indices,
        }
    }
}

/// What merging a fragment did: the renamed entry sequence (when a
/// label collided) and the flat-heap index of every merged block, in
/// fragment order.
#[derive(Debug, Default)]
pub(crate) struct MergeOutcome {
    pub(crate) renamed_entry: Option<InstrSeq>,
    pub(crate) indices: Vec<u32>,
}

// ---------------------------------------------------------------------
// Operands
// ---------------------------------------------------------------------

/// An operand, pre-lowered so the hot path never traverses
/// [`SmallVal`]: registers and literal words are immediate (literal
/// conversion shares one interned word per instruction), and only the
/// rare pack/fold/inst shapes stay symbolic.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum FastOp {
    Reg(Reg),
    Word(TWord),
    Dyn(Arc<SmallVal>),
}

/// Evaluates a small value that mentions no registers to its word form
/// (the common case for jump targets and instantiated continuations),
/// so the hot path shares one interned word instead of rebuilding the
/// instantiation spine on every execution.
pub(crate) fn const_small(u: &SmallVal) -> Option<WordVal> {
    match u {
        SmallVal::Reg(_) => None,
        SmallVal::Word(w) => Some(w.clone()),
        SmallVal::Pack { hidden, body, ann } => Some(WordVal::Pack {
            hidden: hidden.clone(),
            body: Box::new(const_small(body)?),
            ann: ann.clone(),
        }),
        SmallVal::Fold { ann, body } => Some(WordVal::Fold {
            ann: ann.clone(),
            body: Box::new(const_small(body)?),
        }),
        SmallVal::Inst { body, args } => Some(const_small(body)?.instantiate(args.clone())),
    }
}

pub(crate) fn lower_op(u: &SmallVal) -> FastOp {
    match u {
        SmallVal::Reg(r) => FastOp::Reg(*r),
        other => match const_small(other) {
            Some(WordVal::Unit) => FastOp::Word(TWord::Unit),
            Some(WordVal::Int(n)) => FastOp::Word(TWord::Int(n)),
            Some(w) => FastOp::Word(TWord::Big(Arc::new(w))),
            None => FastOp::Dyn(Arc::new(other.clone())),
        },
    }
}

// ---------------------------------------------------------------------
// F values, environments, frames
// ---------------------------------------------------------------------

/// A machine-level F value. Tuples and fold bodies are shared (`Rc`:
/// values never leave the evaluation thread) so projection and unfold
/// are O(1).
#[derive(Clone, Debug)]
pub enum FastVal {
    /// `()`.
    Unit,
    /// An integer.
    Int(i64),
    /// A tuple of values.
    Tuple(Rc<Vec<FastVal>>),
    /// `fold_{µα.τ} v`.
    Fold {
        /// The recursive type annotation.
        ann: Arc<FTy>,
        /// The folded value.
        body: Rc<FastVal>,
    },
    /// A closure: a lambda node plus its captured environment.
    Clos(Rc<Closure>),
}

/// A closure: the interned `IKind::Lam` node plus the environment its
/// free variables are looked up in.
#[derive(Debug)]
pub struct Closure {
    lam: IExpr,
    env: Env,
}

#[derive(Debug)]
struct EnvFrame {
    params: Arc<[(VarName, FTy)]>,
    vals: Vec<FastVal>,
    parent: Env,
}

/// A persistent environment: a chain of frames, cloned by reference.
#[derive(Clone, Debug, Default)]
pub(crate) struct Env(Option<Rc<EnvFrame>>);

impl Env {
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    pub(crate) fn lookup(&self, x: &VarName) -> Option<&FastVal> {
        let frame = self.0.as_ref()?;
        // Later parameters shadow earlier ones (matching the
        // last-wins map the substitution machine builds).
        if let Some(i) = frame.params.iter().rposition(|(p, _)| p == x) {
            return Some(&frame.vals[i]);
        }
        frame.parent.lookup(x)
    }

    pub(crate) fn extend(&self, params: Arc<[(VarName, FTy)]>, vals: Vec<FastVal>) -> Env {
        Env(Some(Rc::new(EnvFrame {
            params,
            vals,
            parent: self.clone(),
        })))
    }
}

/// One continuation frame of the mixed machine.
pub(crate) enum Frame {
    BinopL {
        op: ArithOp,
        rhs: IExpr,
        env: Env,
    },
    BinopR {
        op: ArithOp,
        lhs: FastVal,
    },
    If0 {
        then_branch: IExpr,
        else_branch: IExpr,
        env: Env,
    },
    AppFunc {
        args: Arc<[IExpr]>,
        env: Env,
    },
    AppArg {
        func: FastVal,
        done: Vec<FastVal>,
        args: Arc<[IExpr]>,
        env: Env,
    },
    FoldF {
        ann: Arc<FTy>,
    },
    UnfoldF,
    TupleF {
        done: Vec<FastVal>,
        es: Arc<[IExpr]>,
        env: Env,
    },
    ProjF {
        idx: usize,
    },
    /// T code is running under a boundary of this type, whose
    /// component (and its wrapper slot) is `comp`.
    BoundaryT {
        ty: Arc<FTy>,
        comp: Arc<IComp>,
    },
    /// An `import` body is being evaluated; `saved` resumes the
    /// enclosing T sequence after the translated value lands in `rd`.
    ImportF {
        rd: Reg,
        ty: Arc<FTy>,
        saved: BcCtrl,
    },
}

pub(crate) enum Ctrl {
    Eval(IExpr, Env),
    Ret(FastVal),
    T(BcCtrl),
}

// ---------------------------------------------------------------------
// Value translation (Fig 10) over the fast memory
// ---------------------------------------------------------------------

type LamParts<'a> = (
    &'a Arc<[(VarName, FTy)]>,
    &'a TyVar,
    &'a Arc<[TTy]>,
    &'a Arc<[TTy]>,
    &'a IExpr,
);

fn lam_parts(lam: &IExpr) -> LamParts<'_> {
    let IKind::Lam {
        params,
        zeta,
        phi_in,
        phi_out,
        body,
    } = lam.kind()
    else {
        unreachable!("closure holds a non-lambda")
    };
    (params, zeta, phi_in, phi_out, body)
}

/// Reifies a machine value back to a closed F expression — the shape
/// the substitution machine would have produced, since β there is just
/// the eager form of this lazy substitution.
fn reify_val(v: &FastVal) -> FExpr {
    match v {
        FastVal::Unit => FExpr::Unit,
        FastVal::Int(n) => FExpr::Int(*n),
        FastVal::Tuple(vs) => FExpr::Tuple(vs.iter().map(reify_val).collect()),
        FastVal::Fold { ann, body } => FExpr::Fold {
            ann: (**ann).clone(),
            body: Box::new(reify_val(body)),
        },
        FastVal::Clos(c) => reify_closure(c),
    }
}

fn reify_closure(c: &Closure) -> FExpr {
    let (params, zeta, phi_in, phi_out, body) = lam_parts(&c.lam);
    let mut body_f = body.to_fexpr();
    if !c.env.is_empty() {
        let map: BTreeMap<VarName, FExpr> = funtal_syntax::free::fv_fexpr(&body_f)
            .into_iter()
            .filter(|x| !params.iter().any(|(p, _)| p == x))
            .filter_map(|x| c.env.lookup(&x).map(reify_val).map(|v| (x, v)))
            .collect();
        body_f = subst_fvars(&body_f, &map);
    }
    FExpr::Lam(Box::new(Lam {
        params: params.to_vec(),
        zeta: zeta.clone(),
        phi_in: phi_in.to_vec(),
        phi_out: phi_out.to_vec(),
        body: body_f,
    }))
}

/// `ᵗℱ𝒯(v, M)` over the fast memory, mirroring
/// [`crate::translate::f_to_t`] (including allocation order, so labels
/// coincide between strategies).
fn f_to_t_fast(mem: &mut FastMem, v: &FastVal, ty: &FTy) -> RResult<TWord> {
    match (v, ty) {
        (FastVal::Int(n), FTy::Int) => Ok(TWord::Int(*n)),
        (FastVal::Unit, FTy::Unit) => Ok(TWord::Unit),
        (FastVal::Fold { body, .. }, FTy::Rec(..)) => {
            let inner_ty = unroll_fty(ty).expect("checked Rec");
            let w = f_to_t_fast(mem, body, &inner_ty)?;
            Ok(TWord::Big(Arc::new(WordVal::Fold {
                ann: fty_to_tty(ty),
                body: Box::new(mem.reify_word(&w)),
            })))
        }
        (FastVal::Tuple(vs), FTy::Tuple(ts)) => {
            if vs.len() != ts.len() {
                return Err(RuntimeError::Stuck(format!(
                    "tuple/type width mismatch at boundary: {} vs {ty}",
                    reify_val(v)
                )));
            }
            let mut fields = Vec::with_capacity(vs.len());
            for (v, t) in vs.iter().zip(ts) {
                fields.push(f_to_t_fast(mem, v, t)?);
            }
            let i = mem.alloc(
                "tup",
                FastHeapVal::Tuple {
                    mutability: Mutability::Boxed,
                    fields,
                },
            );
            Ok(TWord::Loc(i))
        }
        (
            FastVal::Clos(c),
            FTy::Arrow {
                params,
                phi_in,
                phi_out,
                ret,
            },
        ) => {
            let (cparams, ..) = lam_parts(&c.lam);
            if cparams.len() != params.len() {
                return Err(RuntimeError::Stuck(format!(
                    "lambda arity does not match boundary type: {} vs {ty}",
                    reify_val(v)
                )));
            }
            let block = lambda_glue_block(reify_closure(c), params, phi_in, phi_out, ret);
            let i = mem.alloc(
                "clos",
                FastHeapVal::Code {
                    hv: Arc::new(HeapVal::Code(block)),
                    env: Env::default(),
                    bc: None,
                },
            );
            Ok(TWord::Loc(i))
        }
        _ => Err(RuntimeError::Stuck(format!(
            "cannot translate F value {} at type {ty}",
            reify_val(v)
        ))),
    }
}

/// A boundary's memoized Fig 10 code→λ wrapper, kept on the boundary
/// node ([`IComp`]) when its type is an arrow. The first translation
/// out of the boundary fills the slot; a later one reuses it only when
/// its key — the fresh counter (which names `ℓend`) and the code word —
/// equals the stored key by value, so a hit is exactly what a miss
/// would compute. The node fixes the arrow type, and only the
/// outermost arrow reads the slot.
pub(crate) type WrapperSlot = OnceLock<Wrapper>;

/// The content of a [`WrapperSlot`]: its key, the `ℓend` block and its
/// lowered module, and the wrapper λ (whose boundary nodes keep their
/// own modules).
#[derive(Debug)]
pub(crate) struct Wrapper {
    counter: u64,
    word: WordVal,
    end: Arc<HeapVal>,
    end_module: Arc<BcModule>,
    lam: IExpr,
}

impl Machine<'_> {
    /// `τℱ𝒯(w, M)` over the fast memory, mirroring
    /// [`crate::translate::t_to_f`]. `slot` is the boundary's wrapper
    /// slot, consulted only for the outermost arrow.
    fn t_to_f(&mut self, w: &TWord, ty: &FTy, slot: Option<&WrapperSlot>) -> RResult<FastVal> {
        match (w, ty) {
            (TWord::Int(n), FTy::Int) => Ok(FastVal::Int(*n)),
            (TWord::Unit, FTy::Unit) => Ok(FastVal::Unit),
            (TWord::Big(b), FTy::Rec(..)) if matches!(&**b, WordVal::Fold { .. }) => {
                let WordVal::Fold { body, .. } = &**b else {
                    unreachable!()
                };
                let inner_ty = unroll_fty(ty).expect("checked Rec");
                let inner = self.mem.tword_of_word(body);
                let v = self.t_to_f(&inner, &inner_ty, None)?;
                Ok(FastVal::Fold {
                    ann: Arc::new(ty.clone()),
                    body: Rc::new(v),
                })
            }
            // Syntactic locations only, as in the oracle's `(Loc, Tuple)`
            // arm: wrapped words at tuple type fall through to the
            // catch-all below.
            (TWord::Loc(_), FTy::Tuple(ts)) | (TWord::Big(_), FTy::Tuple(ts))
                if matches!(w, TWord::Loc(_))
                    || matches!(w, TWord::Big(b) if matches!(&**b, WordVal::Loc(_))) =>
            {
                let i = self.mem.loc_of(w)?;
                let FastHeapVal::Tuple { fields, .. } = &self.mem.heap[i as usize] else {
                    return Err(RuntimeError::NotTuple(format!(
                        "{} is code",
                        self.mem.names[i as usize]
                    )));
                };
                if fields.len() != ts.len() {
                    return Err(RuntimeError::Stuck(format!(
                        "tuple width mismatch translating {} at {ty}",
                        self.mem.names[i as usize]
                    )));
                }
                let fields = fields.clone();
                let mut out = Vec::with_capacity(ts.len());
                for (f, t) in fields.iter().zip(ts) {
                    out.push(self.t_to_f(f, t, None)?);
                }
                Ok(FastVal::Tuple(Rc::new(out)))
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
                check_wrappable(phi_in, phi_out)?;
                let word = self.mem.reify_word(w);
                // The wrapper (and its ℓend block) is a pure function of
                // (fresh-counter state, code word, arrow type) — the
                // counter determines the embedded ℓend label. Steady-state
                // workloads re-translate the same pointer at the same type
                // with the same counter state every run, so the boundary's
                // slot keeps the first one.
                let counter = self.mem.next_fresh;
                let lend = self.mem.fresh_label("lend");
                let build = |word: WordVal| {
                    let end = Arc::new(HeapVal::Code(end_block(&fty_to_tty(ret), phi_out)));
                    let lam = wrapper_lambda(word, &lend, params, phi_in, phi_out, ret);
                    (end, IExpr::from_fexpr(&lam))
                };
                let hit = slot
                    .map(|slot| {
                        slot.get_or_init(|| {
                            let (end, lam) = build(word.clone());
                            let HeapVal::Code(block) = &*end else {
                                unreachable!("ℓend is a code block")
                            };
                            Wrapper {
                                counter,
                                word: word.clone(),
                                end_module: Arc::new(lower_block(block)),
                                end,
                                lam,
                            }
                        })
                    })
                    .filter(|wr| wr.counter == counter && wr.word == word);
                let (end, lam) = match hit {
                    Some(wr) => (wr.end.clone(), wr.lam.clone()),
                    None => build(word),
                };
                let lend_idx = self.mem.intern(lend);
                self.mem.heap[lend_idx as usize] = FastHeapVal::Code {
                    hv: end,
                    env: Env::default(),
                    bc: None,
                };
                // A reused wrapper brings its ℓend module along, so the
                // cell is bound now instead of lowered again on entry.
                if let Some(wr) = hit {
                    self.bind_block(lend_idx, wr.end_module.clone(), Env::default())?;
                }
                Ok(FastVal::Clos(Rc::new(Closure {
                    lam,
                    env: Env::default(),
                })))
            }
            _ => Err(RuntimeError::Stuck(format!(
                "cannot translate T value {} at type {ty}",
                self.mem.reify_word(w)
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// The machine
// ---------------------------------------------------------------------

pub(crate) struct Machine<'t> {
    pub(crate) mem: FastMem,
    pub(crate) frames: Vec<Frame>,
    pub(crate) fuel: u64,
    pub(crate) guard: bool,
    /// Cached `tracer.enabled()`: lets the hot loops skip event
    /// construction (label clones) when nobody is listening.
    pub(crate) trace: bool,
    pub(crate) tracer: &'t mut dyn Tracer,
    /// The step counts of an untraced run, bumped where a traced run
    /// emits the counted events and handed to the tracer
    /// ([`Tracer::add_counts`]) when the run ends.
    pub(crate) counts: CountTracer,
    /// The bytecode VM's per-run state.
    pub(crate) bc: BcState,
}

macro_rules! tick {
    ($self:ident) => {
        if $self.fuel == 0 {
            return Ok(Step::Done(FtOutcome::OutOfFuel));
        }
        $self.fuel -= 1;
    };
}

/// Emits `$ev` to an enabled tracer, or else counts it in `$class`.
macro_rules! note {
    ($self:ident, $class:ident, $ev:expr) => {
        if $self.trace {
            $self.tracer.event(&$ev);
        } else {
            $self.counts.$class += 1;
        }
    };
}

pub(crate) enum Step {
    Continue(Ctrl),
    Done(FtOutcome),
}

/// The coarse value shape the dynamic guard compares against types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Unit,
    Int,
    Loc,
    Other,
}

impl<'t> Machine<'t> {
    /// A machine over `mem` with no frames, configured by `cfg`.
    pub(crate) fn new(mem: FastMem, cfg: RunCfg, tracer: &'t mut dyn Tracer) -> Machine<'t> {
        Machine {
            mem,
            frames: Vec::new(),
            fuel: cfg.fuel,
            guard: cfg.guard,
            trace: tracer.enabled(),
            tracer,
            counts: CountTracer::new(),
            bc: BcState::default(),
        }
    }

    pub(crate) fn run(&mut self, mut ctrl: Ctrl) -> RResult<FtOutcome> {
        loop {
            let step = match ctrl {
                Ctrl::Eval(e, env) => self.eval(e, env)?,
                Ctrl::Ret(v) => self.ret(v)?,
                Ctrl::T(t) => self.step_bc(t)?,
            };
            match step {
                Step::Continue(next) => ctrl = next,
                Step::Done(out) => {
                    self.tracer.add_counts(&self.counts);
                    return Ok(out);
                }
            }
        }
    }

    fn eval(&mut self, e: IExpr, env: Env) -> RResult<Step> {
        let next = match e.kind() {
            IKind::Var(x) => match env.lookup(x) {
                Some(v) => Ctrl::Ret(v.clone()),
                None => return Err(RuntimeError::Stuck(format!("free variable {x}"))),
            },
            IKind::Unit => Ctrl::Ret(FastVal::Unit),
            IKind::Int(n) => Ctrl::Ret(FastVal::Int(*n)),
            IKind::Lam { .. } => Ctrl::Ret(FastVal::Clos(Rc::new(Closure {
                lam: e.clone(),
                env,
            }))),
            IKind::Binop { op, lhs, rhs } => {
                self.frames.push(Frame::BinopL {
                    op: *op,
                    rhs: rhs.clone(),
                    env: env.clone(),
                });
                Ctrl::Eval(lhs.clone(), env)
            }
            IKind::If0 {
                cond,
                then_branch,
                else_branch,
            } => {
                self.frames.push(Frame::If0 {
                    then_branch: then_branch.clone(),
                    else_branch: else_branch.clone(),
                    env: env.clone(),
                });
                Ctrl::Eval(cond.clone(), env)
            }
            IKind::App { func, args } => {
                self.frames.push(Frame::AppFunc {
                    args: args.clone(),
                    env: env.clone(),
                });
                Ctrl::Eval(func.clone(), env)
            }
            IKind::Fold { ann, body } => {
                self.frames.push(Frame::FoldF { ann: ann.clone() });
                Ctrl::Eval(body.clone(), env)
            }
            IKind::Unfold(body) => {
                self.frames.push(Frame::UnfoldF);
                Ctrl::Eval(body.clone(), env)
            }
            IKind::Tuple(es) => {
                if es.is_empty() {
                    Ctrl::Ret(FastVal::Tuple(Rc::new(Vec::new())))
                } else {
                    self.frames.push(Frame::TupleF {
                        done: Vec::with_capacity(es.len()),
                        es: es.clone(),
                        env: env.clone(),
                    });
                    Ctrl::Eval(es[0].clone(), env)
                }
            }
            IKind::Proj { idx, tuple } => {
                self.frames.push(Frame::ProjF { idx: *idx });
                Ctrl::Eval(tuple.clone(), env)
            }
            IKind::Boundary { ty, comp, .. } => {
                // Fig 8: the fragment merge is one machine step.
                let merge = if comp.tcomp.heap.is_empty() {
                    MergeOutcome::default()
                } else {
                    tick!(self);
                    note!(self, crossings, Event::BoundaryEnter { ty: (**ty).clone() });
                    self.mem.merge_fragment(&comp.tcomp, &env)
                };
                let t = self.boundary_ctrl(|| comp.module().clone(), &env, merge)?;
                self.frames.push(Frame::BoundaryT {
                    ty: ty.clone(),
                    comp: comp.clone(),
                });
                Ctrl::T(t)
            }
        };
        Ok(Step::Continue(next))
    }

    fn ret(&mut self, v: FastVal) -> RResult<Step> {
        let Some(frame) = self.frames.pop() else {
            return Ok(Step::Done(FtOutcome::Value(reify_val(&v))));
        };
        let next = match frame {
            Frame::BinopL { op, rhs, env } => {
                self.frames.push(Frame::BinopR { op, lhs: v });
                Ctrl::Eval(rhs, env)
            }
            Frame::BinopR { op, lhs } => {
                let (FastVal::Int(a), FastVal::Int(b)) = (&lhs, &v) else {
                    return Err(RuntimeError::Stuck(format!(
                        "binop on non-integers: {} {} {}",
                        reify_val(&lhs),
                        op.symbol(),
                        reify_val(&v)
                    )));
                };
                tick!(self);
                note!(self, f_steps, Event::FStep);
                Ctrl::Ret(FastVal::Int(op.apply(*a, *b)))
            }
            Frame::If0 {
                then_branch,
                else_branch,
                env,
            } => {
                let FastVal::Int(n) = v else {
                    return Err(RuntimeError::Stuck(format!(
                        "if0 on a non-integer: {}",
                        reify_val(&v)
                    )));
                };
                tick!(self);
                note!(self, f_steps, Event::FStep);
                Ctrl::Eval(if n == 0 { then_branch } else { else_branch }, env)
            }
            Frame::AppFunc { args, env } => {
                if args.is_empty() {
                    return self.beta(v, Vec::new());
                }
                self.frames.push(Frame::AppArg {
                    func: v,
                    done: Vec::with_capacity(args.len()),
                    args: args.clone(),
                    env: env.clone(),
                });
                Ctrl::Eval(args[0].clone(), env)
            }
            Frame::AppArg {
                func,
                mut done,
                args,
                env,
            } => {
                done.push(v);
                if done.len() < args.len() {
                    let next = args[done.len()].clone();
                    self.frames.push(Frame::AppArg {
                        func,
                        done,
                        args,
                        env: env.clone(),
                    });
                    Ctrl::Eval(next, env)
                } else {
                    return self.beta(func, done);
                }
            }
            Frame::FoldF { ann } => Ctrl::Ret(FastVal::Fold {
                ann,
                body: Rc::new(v),
            }),
            Frame::UnfoldF => {
                let FastVal::Fold { body, .. } = &v else {
                    return Err(RuntimeError::Stuck(format!(
                        "unfold of a non-fold: {}",
                        reify_val(&v)
                    )));
                };
                tick!(self);
                note!(self, f_steps, Event::FStep);
                Ctrl::Ret((**body).clone())
            }
            Frame::TupleF { mut done, es, env } => {
                done.push(v);
                if done.len() < es.len() {
                    let next = es[done.len()].clone();
                    self.frames.push(Frame::TupleF {
                        done,
                        es,
                        env: env.clone(),
                    });
                    Ctrl::Eval(next, env)
                } else {
                    Ctrl::Ret(FastVal::Tuple(Rc::new(done)))
                }
            }
            Frame::ProjF { idx } => {
                let FastVal::Tuple(vs) = &v else {
                    return Err(RuntimeError::Stuck(format!(
                        "projection from non-tuple: {}",
                        reify_val(&v)
                    )));
                };
                if idx == 0 || idx > vs.len() {
                    return Err(RuntimeError::Stuck(format!("pi[{idx}] out of range")));
                }
                tick!(self);
                note!(self, f_steps, Event::FStep);
                Ctrl::Ret(vs[idx - 1].clone())
            }
            Frame::BoundaryT { .. } => {
                unreachable!("F value returned to a T frame")
            }
            Frame::ImportF { rd, ty, saved } => {
                // The import-of-a-value rewrite step (translate +
                // ImportExit), then the rewritten `mv` itself.
                tick!(self);
                let w = f_to_t_fast(&mut self.mem, &v, &ty)?;
                note!(self, crossings, Event::ImportExit { rd });
                tick!(self);
                note!(self, instrs, Event::Instr);
                self.mem.set_reg(rd, w);
                Ctrl::T(saved)
            }
        };
        Ok(Step::Continue(next))
    }

    fn beta(&mut self, func: FastVal, args: Vec<FastVal>) -> RResult<Step> {
        let FastVal::Clos(c) = &func else {
            return Err(RuntimeError::Stuck(format!(
                "applying a non-function: {}",
                reify_val(&func)
            )));
        };
        let (params, _, _, _, body) = lam_parts(&c.lam);
        if params.len() != args.len() {
            return Err(RuntimeError::Stuck(format!(
                "arity mismatch: {} params, {} args",
                params.len(),
                args.len()
            )));
        }
        tick!(self);
        note!(self, f_steps, Event::FBeta);
        let env = c.env.extend(params.clone(), args);
        Ok(Step::Continue(Ctrl::Eval(body.clone(), env)))
    }

    pub(crate) fn halt(&mut self, val: Reg) -> RResult<Step> {
        match self.frames.last() {
            Some(Frame::BoundaryT { .. }) => {
                // Fig 8: a boundary around a halt value translates —
                // one machine step.
                tick!(self);
                let Some(Frame::BoundaryT { ty, comp }) = self.frames.pop() else {
                    unreachable!()
                };
                let w = self.mem.reg(val)?.clone();
                let v = self.t_to_f(&w, &ty, comp.wrapper.as_ref())?;
                note!(self, crossings, Event::BoundaryExit { ty: (*ty).clone() });
                Ok(Step::Continue(Ctrl::Ret(v)))
            }
            None => {
                // Top-level T halt: detection costs the same loop
                // iteration the substitution machine spends on it.
                tick!(self);
                let w = self.mem.reg(val)?.clone();
                if self.trace {
                    self.tracer.event(&Event::Halt { reg: val });
                }
                Ok(Step::Done(FtOutcome::Halted(self.mem.reify_word(&w))))
            }
            Some(_) => Err(RuntimeError::Stuck(
                "halt reached inside step_ft_seq (caller should have handled it)".to_string(),
            )),
        }
    }

    pub(crate) fn eval_op(&self, op: &FastOp) -> RResult<TWord> {
        match op {
            FastOp::Reg(r) => self.mem.reg(*r).cloned(),
            FastOp::Word(w) => Ok(w.clone()),
            FastOp::Dyn(u) => {
                let w = self.eval_small(u)?;
                Ok(TWord::Big(Arc::new(w)))
            }
        }
    }

    /// The generic small-value evaluator for the rare wrapped operand
    /// shapes, mirroring [`funtal_tal::machine::eval_small`].
    fn eval_small(&self, u: &SmallVal) -> RResult<WordVal> {
        match u {
            SmallVal::Reg(r) => Ok(self.mem.reify_word(self.mem.reg(*r)?)),
            SmallVal::Word(w) => Ok(w.clone()),
            SmallVal::Pack { hidden, body, ann } => Ok(WordVal::Pack {
                hidden: hidden.clone(),
                body: Box::new(self.eval_small(body)?),
                ann: ann.clone(),
            }),
            SmallVal::Fold { ann, body } => Ok(WordVal::Fold {
                ann: ann.clone(),
                body: Box::new(self.eval_small(body)?),
            }),
            SmallVal::Inst { body, args } => Ok(self.eval_small(body)?.instantiate(args.clone())),
        }
    }

    /// Resolves a jump-target word to its flat-heap index, counting
    /// pending instantiations (and collecting them when the dynamic
    /// guard needs their content). Shared by every block entry.
    pub(crate) fn resolve_code(&self, w: &TWord) -> RResult<(u32, usize, Option<Vec<Inst>>)> {
        match w {
            TWord::Loc(i) => Ok((*i, 0, None)),
            TWord::Big(b) => {
                let (base, count) = peel_count(b);
                match base {
                    WordVal::Loc(l) => {
                        let i = self
                            .mem
                            .index
                            .get(l)
                            .copied()
                            .ok_or_else(|| RuntimeError::UnboundLabel(l.clone()))?;
                        let insts = self.guard.then(|| b.peel_insts().1);
                        Ok((i, count, insts))
                    }
                    other => Err(RuntimeError::NotCode(other.to_string())),
                }
            }
            other => Err(RuntimeError::NotCode(
                self.mem.reify_word(other).to_string(),
            )),
        }
    }

    /// The dynamic type-safety guard over fast words, mirroring the
    /// shape checks of the substitution machine.
    pub(crate) fn guard_entry(
        &self,
        label: &Label,
        chi: &funtal_syntax::RegFileTy,
        sigma: &StackTy,
    ) -> RResult<()> {
        for (r, want) in chi.iter() {
            let Some(w) = self.regs_shape(r) else {
                return Err(RuntimeError::GuardViolation(format!(
                    "entering {label}: register {r} required at {want} but uninitialized"
                )));
            };
            let ok = match (want, w) {
                (TTy::Int, Shape::Int) => true,
                (TTy::Unit, Shape::Unit) => true,
                (TTy::Ref(_) | TTy::Boxed(_), Shape::Loc) => true,
                (TTy::Int | TTy::Unit, _) => false,
                _ => true,
            };
            if !ok {
                return Err(RuntimeError::GuardViolation(format!(
                    "entering {label}: register {r} required at {want}, holds {}",
                    self.mem.reify_word(self.mem.reg(r).expect("shape checked"))
                )));
            }
        }
        let depth = self.mem.stack.len();
        let visible = sigma.visible_len();
        let ok = match sigma.tail {
            StackTail::Empty => depth == visible,
            StackTail::Var(_) => depth >= visible,
        };
        if !ok {
            return Err(RuntimeError::GuardViolation(format!(
                "entering {label}: stack typed {sigma} but has depth {depth}"
            )));
        }
        Ok(())
    }

    fn regs_shape(&self, r: Reg) -> Option<Shape> {
        let w = self.mem.regs[ridx(r)].as_ref()?;
        Some(match w {
            TWord::Unit => Shape::Unit,
            TWord::Int(_) => Shape::Int,
            TWord::Loc(_) => Shape::Loc,
            TWord::Big(b) => match b.peel_insts().0 {
                WordVal::Unit => Shape::Unit,
                WordVal::Int(_) => Shape::Int,
                WordVal::Loc(_) => Shape::Loc,
                _ => Shape::Other,
            },
        })
    }
}

/// Counts pending instantiations without cloning them; the machine is
/// type-erasing, so their content matters only to the (opt-in) dynamic
/// guard.
pub(crate) fn peel_count(w: &WordVal) -> (&WordVal, usize) {
    match w {
        WordVal::Inst { body, args } => {
            let (base, n) = peel_count(body);
            (base, n + args.len())
        }
        other => (other, 0),
    }
}
