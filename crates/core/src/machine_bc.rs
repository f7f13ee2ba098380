//! The bytecode VM: the T half of the fast machine.
//!
//! Rather than walking one [`InstrSeq`] at a time and re-resolving
//! every control transfer through the heap (hash lookup on labels,
//! arity check), the VM lowers a whole T component — entry sequence
//! plus every block of its heap fragment — into **one flat instruction
//! stream** ([`BcModule`]):
//!
//! - operands are constant-folded at lower time ([`lower_op`]), and
//!   the common shapes get their own decoded opcodes (`ArithRR`,
//!   `ArithRI`, `MvInt`, …) so the dispatch loop runs one `match` per
//!   instruction over a dense register file;
//! - jump/call targets whose peeled base is a fragment-local label are
//!   resolved to **absolute instruction-stream offsets** at lower time
//!   ([`BcTarget::Static`]) — taken branches are a program-counter
//!   assignment, with the arity check discharged once during lowering;
//! - cross-fragment entries go through a per-heap-cell inline cache
//!   ([`BcCell`]): after the first entry, re-entering a block costs a
//!   pointer compare and a bounds-checked offset load;
//! - the codegen's hot stack idioms get a fused *head* in front of
//!   them (`fuse`): an untraced run with fuel for the whole idiom
//!   applies it in one dispatch, anything else steps through the
//!   unchanged ops behind it.
//!
//! Fuel, events, fresh labels, and error behavior mirror the Fig 8
//! substitution oracle op for op, so the oracle and the fast machine
//! agree on outcomes *and* exact step counts; `tests/strategy_equiv.rs`
//! and the driver's differential suite enforce this. The F side is the
//! CEK machine of [`crate::machine_fast`], which hands every suspended
//! T execution ([`BcCtrl`]) to this module's dispatch loop.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use funtal_syntax::subst::Subst;
use funtal_syntax::{
    ArithOp, CodeBlock, Component, FExpr, FTy, HeapFrag, HeapVal, Inst, Instr, InstrSeq, Label,
    Mutability, Reg, RetMarker, StackTy, TComp, Terminator, WordVal,
};
use funtal_tal::error::{RResult, RuntimeError};
use funtal_tal::machine::{check_salloc, Memory, MAX_STACK_SLOTS};
use funtal_tal::trace::{Event, Tracer};

use crate::bc_verify::module_regions;
use crate::intern::{IComp, IExpr, IKind};
use crate::machine::{FtOutcome, RunCfg};
use crate::machine_fast::{
    lower_op, peel_count, Ctrl, Env, FastHeapVal, FastMem, FastOp, Frame, Machine, MergeOutcome,
    Step, TWord,
};

// ---------------------------------------------------------------------
// The linear IR
// ---------------------------------------------------------------------

/// A control-transfer operand of the linear IR.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum BcTarget {
    /// A fragment-local constant target, resolved at lower time: `off`
    /// is the absolute instruction-stream offset of the block body,
    /// `ord` the block's fragment ordinal (indexing the instance's
    /// label table for events), and `w` the original constant word for
    /// the guarded slow path. The instantiation-arity check was
    /// discharged during lowering.
    Static { off: u32, ord: u32, w: TWord },
    /// Anything else: evaluated and resolved through the heap at
    /// runtime.
    Dyn(FastOp),
}

/// One decoded instruction of the linear IR. Hot operand shapes are
/// specialized so the dispatch loop is a single match with no nested
/// operand interpretation.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum BcOp {
    /// `rd := rs op rt`.
    ArithRR {
        op: ArithOp,
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// `rd := rs op imm` (constant-folded operand).
    ArithRI {
        op: ArithOp,
        rd: Reg,
        rs: Reg,
        imm: i64,
    },
    /// Arith with a rare operand shape.
    ArithDyn {
        op: ArithOp,
        rd: Reg,
        rs: Reg,
        src: FastOp,
    },
    /// `rd := n`.
    MvInt {
        rd: Reg,
        imm: i64,
    },
    /// `rd := ()`.
    MvUnit {
        rd: Reg,
    },
    /// `rd := rs`.
    MvReg {
        rd: Reg,
        rs: Reg,
    },
    /// `rd := loc(labels[ord])` — a bare fragment-local location
    /// literal, pre-resolved to a heap index through the instance's
    /// label table.
    MvLbl {
        rd: Reg,
        ord: u32,
    },
    /// `rd := w` for any other constant word (shared, never rebuilt).
    MvWord {
        rd: Reg,
        w: TWord,
    },
    /// `rd := eval(src)` for the rare symbolic shapes.
    MvDyn {
        rd: Reg,
        src: FastOp,
    },
    Ld {
        rd: Reg,
        rs: Reg,
        idx: usize,
    },
    St {
        rd: Reg,
        idx: usize,
        rs: Reg,
    },
    Ralloc {
        rd: Reg,
        n: usize,
    },
    Balloc {
        rd: Reg,
        n: usize,
    },
    Salloc(usize),
    Sfree(usize),
    Sld {
        rd: Reg,
        idx: usize,
    },
    Sst {
        idx: usize,
        rs: Reg,
    },
    Unpack {
        rd: Reg,
        src: FastOp,
    },
    Unfold {
        rd: Reg,
        src: FastOp,
    },
    Protect,
    Import {
        rd: Reg,
        ty: Arc<FTy>,
        body: IExpr,
    },
    Bnz {
        r: Reg,
        t: BcTarget,
    },
    Jmp(BcTarget),
    Call {
        t: BcTarget,
        sigma: Arc<StackTy>,
        q: Arc<RetMarker>,
    },
    Ret {
        target: Reg,
        val: Reg,
    },
    Halt {
        val: Reg,
    },
    // Fused heads: the codegen's hot stack idioms. `fuse_segment`
    // keeps the plain ops it fuses (the head's *followers*) and puts
    // the head in front of them. The dispatch loop either applies the
    // followers' net effect at the head and skips them, or steps over
    // the head into the followers; every analysis reads only the
    // followers.
    /// `salloc 1; sst 0, rs` (2 steps) — push a register.
    Push {
        rs: Reg,
    },
    /// `salloc 1; sst 0, rs; jmp t` (3 steps) — the call-entry stanza.
    PushJmp {
        rs: Reg,
        t: BcTarget,
    },
    /// `sld rd, idx; salloc 1; sst 0, rd` (3 steps) — copy a slot up.
    SldPush {
        rd: Reg,
        idx: usize,
    },
    /// `sld pr, 0; sfree 1; arith rd, rs, rt` (3 steps) — pop+combine
    /// (`pr` is the register the popped word lands in; `rs`/`rt` may
    /// alias it).
    PopArith {
        op: ArithOp,
        pr: Reg,
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// [`BcOp::PopArith`] followed by `salloc 1; sst 0, rd` (5 steps).
    PopArithPush {
        op: ArithOp,
        pr: Reg,
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// `sld rd, idx; sfree n` (2 steps) — load a slot, drop a frame.
    SldSfree {
        rd: Reg,
        idx: usize,
        n: usize,
    },
    /// `sld ra, 0; sfree n; ret ra, _` (3 steps) — the full return
    /// epilogue: pop the return address and jump through it.
    PopRet {
        ra: Reg,
        n: usize,
    },
}

impl BcOp {
    /// Fuel charged by [`BcOp::Push`] (`salloc; sst`).
    pub(crate) const PUSH_COST: u64 = 2;
    /// Fuel charged by [`BcOp::PushJmp`] (`salloc; sst; jmp`).
    pub(crate) const PUSH_JMP_COST: u64 = 3;
    /// Fuel charged by [`BcOp::SldPush`] (`sld; salloc; sst`).
    pub(crate) const SLD_PUSH_COST: u64 = 3;
    /// Fuel charged by [`BcOp::PopArith`] (`sld; sfree; arith`).
    pub(crate) const POP_ARITH_COST: u64 = 3;
    /// Fuel charged by [`BcOp::PopArithPush`]
    /// (`sld; sfree; arith; salloc; sst`).
    pub(crate) const POP_ARITH_PUSH_COST: u64 = 5;
    /// Fuel charged by [`BcOp::SldSfree`] (`sld; sfree`).
    pub(crate) const SLD_SFREE_COST: u64 = 2;
    /// Fuel charged by [`BcOp::PopRet`] (`sld; sfree; ret`).
    pub(crate) const POP_RET_COST: u64 = 3;

    /// Fuel this opcode charges when dispatched — the shared cost
    /// table. Plain ops tick once. A fused head charges, on its net
    /// route, the fuel of its followers; every follower is a one-tick
    /// plain op, so the cost is also how many followers it has
    /// (`bc_verify` checks both against re-fusion). `Import` charges
    /// nothing at the suspension itself — the two ticks of the import
    /// round-trip (translate, then `mv rd`) are charged by the CEK
    /// machine when the F value returns. `Halt` charges nothing at
    /// dispatch; `halt()` ticks once.
    pub(crate) const fn fuel_cost(&self) -> u64 {
        match self {
            BcOp::Import { .. } | BcOp::Halt { .. } => 0,
            BcOp::Push { .. } => Self::PUSH_COST,
            BcOp::PushJmp { .. } => Self::PUSH_JMP_COST,
            BcOp::SldPush { .. } => Self::SLD_PUSH_COST,
            BcOp::PopArith { .. } => Self::POP_ARITH_COST,
            BcOp::PopArithPush { .. } => Self::POP_ARITH_PUSH_COST,
            BcOp::SldSfree { .. } => Self::SLD_SFREE_COST,
            BcOp::PopRet { .. } => Self::POP_RET_COST,
            _ => 1,
        }
    }

    /// True for a fused head: an op standing for the
    /// [`fuel_cost`](BcOp::fuel_cost) plain ops behind it.
    pub(crate) const fn is_head(&self) -> bool {
        matches!(
            self,
            BcOp::Push { .. }
                | BcOp::PushJmp { .. }
                | BcOp::SldPush { .. }
                | BcOp::PopArith { .. }
                | BcOp::PopArithPush { .. }
                | BcOp::SldSfree { .. }
                | BcOp::PopRet { .. }
        )
    }
}

/// Sentinel arity for fragment ordinals that are not code blocks
/// (tuples): never a valid instantiation count, so no static target or
/// cell binding is ever created for them.
pub(crate) const NOT_CODE: usize = usize::MAX;

/// A lowered module: the component's entry sequence at offset 0
/// followed by every fragment block, as one flat op stream. Shared and
/// immutable (memoized on the boundary node, reusable across runs and
/// threads).
#[derive(Debug)]
pub(crate) struct BcModule {
    pub(crate) ops: Vec<BcOp>,
    /// Per-fragment-ordinal `(offset, instantiation arity)`; tuples get
    /// [`NOT_CODE`].
    pub(crate) blocks: Vec<(u32, usize)>,
    /// Per-fragment-ordinal label.
    pub(crate) labels: Vec<Label>,
}

/// A module bound to one merged fragment in one memory: the shared
/// lowered code plus the flat-heap index of each fragment ordinal and
/// the F environment `import` bodies close over.
#[derive(Debug)]
pub(crate) struct BcInstance {
    pub(crate) module: Arc<BcModule>,
    /// Fragment ordinal → flat-heap index.
    pub(crate) labels: Vec<u32>,
    pub(crate) env: Env,
}

/// The per-heap-cell inline cache for cross-fragment entry: which
/// instance the cell's block belongs to, where its body starts, and
/// its instantiation arity (checked against the entering word's
/// pending instantiations).
#[derive(Clone, Debug)]
pub(crate) struct BcCell {
    pub(crate) inst: Rc<BcInstance>,
    pub(crate) off: u32,
    pub(crate) arity: u32,
}

/// A suspended bytecode execution: an instance and a program counter.
#[derive(Clone, Debug)]
pub(crate) struct BcCtrl {
    inst: Rc<BcInstance>,
    pc: u32,
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// A fragment cell as the lowerer sees it: label plus the shared block
/// (`None` for tuples, which occupy an ordinal but lower to nothing).
type FragCell = (Label, Option<Arc<HeapVal>>);

fn lower_target(
    u: &funtal_syntax::SmallVal,
    extra_insts: usize,
    label_ord: &HashMap<Label, u32>,
    arities: &[usize],
) -> BcTarget {
    let op = lower_op(u);
    if let FastOp::Word(tw) = &op {
        if let TWord::Big(b) = tw {
            let (base, count) = peel_count(b);
            if let WordVal::Loc(l) = base {
                if let Some(&ord) = label_ord.get(l) {
                    if arities[ord as usize] == count + extra_insts {
                        return BcTarget::Static {
                            off: 0, // patched after all blocks are lowered
                            ord,
                            w: tw.clone(),
                        };
                    }
                }
            }
        }
    }
    BcTarget::Dyn(op)
}

fn lower_mv(rd: Reg, src: &funtal_syntax::SmallVal, label_ord: &HashMap<Label, u32>) -> BcOp {
    match lower_op(src) {
        FastOp::Reg(rs) => BcOp::MvReg { rd, rs },
        FastOp::Word(TWord::Int(imm)) => BcOp::MvInt { rd, imm },
        FastOp::Word(TWord::Unit) => BcOp::MvUnit { rd },
        FastOp::Word(w) => {
            if let TWord::Big(b) = &w {
                if let WordVal::Loc(l) = &**b {
                    if let Some(&ord) = label_ord.get(l) {
                        return BcOp::MvLbl { rd, ord };
                    }
                }
            }
            BcOp::MvWord { rd, w }
        }
        src => BcOp::MvDyn { rd, src },
    }
}

fn lower_seq(
    ops: &mut Vec<BcOp>,
    seq: &InstrSeq,
    label_ord: &HashMap<Label, u32>,
    arities: &[usize],
) {
    for i in &seq.instrs {
        let op = match i {
            Instr::Arith { op, rd, rs, src } => match lower_op(src) {
                FastOp::Reg(rt) => BcOp::ArithRR {
                    op: *op,
                    rd: *rd,
                    rs: *rs,
                    rt,
                },
                FastOp::Word(TWord::Int(imm)) => BcOp::ArithRI {
                    op: *op,
                    rd: *rd,
                    rs: *rs,
                    imm,
                },
                src => BcOp::ArithDyn {
                    op: *op,
                    rd: *rd,
                    rs: *rs,
                    src,
                },
            },
            Instr::Bnz { r, target } => BcOp::Bnz {
                r: *r,
                t: lower_target(target, 0, label_ord, arities),
            },
            Instr::Ld { rd, rs, idx } => BcOp::Ld {
                rd: *rd,
                rs: *rs,
                idx: *idx,
            },
            Instr::St { rd, idx, rs } => BcOp::St {
                rd: *rd,
                idx: *idx,
                rs: *rs,
            },
            Instr::Ralloc { rd, n } => BcOp::Ralloc { rd: *rd, n: *n },
            Instr::Balloc { rd, n } => BcOp::Balloc { rd: *rd, n: *n },
            Instr::Mv { rd, src } => lower_mv(*rd, src, label_ord),
            Instr::Salloc(n) => BcOp::Salloc(*n),
            Instr::Sfree(n) => BcOp::Sfree(*n),
            Instr::Sld { rd, idx } => BcOp::Sld { rd: *rd, idx: *idx },
            Instr::Sst { idx, rs } => BcOp::Sst { idx: *idx, rs: *rs },
            Instr::Unpack { rd, src, .. } => BcOp::Unpack {
                rd: *rd,
                src: lower_op(src),
            },
            Instr::Unfold { rd, src } => BcOp::Unfold {
                rd: *rd,
                src: lower_op(src),
            },
            Instr::Protect { .. } => BcOp::Protect,
            Instr::Import { rd, ty, body, .. } => BcOp::Import {
                rd: *rd,
                ty: Arc::new(ty.clone()),
                body: IExpr::from_fexpr(body),
            },
        };
        ops.push(op);
    }
    let term = match &seq.term {
        Terminator::Jmp(u) => BcOp::Jmp(lower_target(u, 0, label_ord, arities)),
        Terminator::Call { target, sigma, q } => BcOp::Call {
            // A call's target is instantiated with two extra
            // instantiations (stack + return marker) at entry.
            t: lower_target(target, 2, label_ord, arities),
            sigma: Arc::new(sigma.clone()),
            q: Arc::new(q.clone()),
        },
        Terminator::Ret { target, val } => BcOp::Ret {
            target: *target,
            val: *val,
        },
        Terminator::Halt { val, .. } => BcOp::Halt { val: *val },
    };
    ops.push(term);
}

/// The fused head for the longest hot idiom at the start of `ops`, and
/// how many ops it spans (its followers). Longest pattern wins.
pub(crate) fn fuse(ops: &[BcOp]) -> Option<(BcOp, usize)> {
    Some(match ops {
        [BcOp::Sld { rd: pr, idx: 0 }, BcOp::Sfree(1), BcOp::ArithRR { op, rd, rs, rt }, BcOp::Salloc(1), BcOp::Sst { idx: 0, rs: rs2 }, ..]
            if rs2 == rd =>
        {
            let (op, pr, rd, rs, rt) = (*op, *pr, *rd, *rs, *rt);
            (BcOp::PopArithPush { op, pr, rd, rs, rt }, 5)
        }
        [BcOp::Sld { rd: pr, idx: 0 }, BcOp::Sfree(1), BcOp::ArithRR { op, rd, rs, rt }, ..] => {
            let (op, pr, rd, rs, rt) = (*op, *pr, *rd, *rs, *rt);
            (BcOp::PopArith { op, pr, rd, rs, rt }, 3)
        }
        [BcOp::Sld { rd: ra, idx: 0 }, BcOp::Sfree(n), BcOp::Ret { target, .. }, ..]
            if target == ra && *n >= 1 =>
        {
            (BcOp::PopRet { ra: *ra, n: *n }, 3)
        }
        [BcOp::Sld { rd, idx }, BcOp::Salloc(1), BcOp::Sst { idx: 0, rs }, ..] if rs == rd => {
            (BcOp::SldPush { rd: *rd, idx: *idx }, 3)
        }
        [BcOp::Salloc(1), BcOp::Sst { idx: 0, rs }, BcOp::Jmp(t), ..] => (
            BcOp::PushJmp {
                rs: *rs,
                t: t.clone(),
            },
            3,
        ),
        [BcOp::Sld { rd, idx }, BcOp::Sfree(n), ..] => {
            let (rd, idx, n) = (*rd, *idx, *n);
            (BcOp::SldSfree { rd, idx, n }, 2)
        }
        [BcOp::Salloc(1), BcOp::Sst { idx: 0, rs }, ..] => (BcOp::Push { rs: *rs }, 2),
        _ => return None,
    })
}

/// Peephole pass over one straight-line segment (`ops[from..]`): puts
/// the head of every fused idiom in front of the ops it fuses, which
/// stay in place. Safe because no control transfer ever lands inside a
/// segment — jumps, calls, and returns always target block starts,
/// and fusion runs before offsets are recorded.
fn fuse_segment(ops: &mut Vec<BcOp>, from: usize) {
    let seg = ops.split_off(from);
    let mut i = 0;
    while i < seg.len() {
        let k = match fuse(&seg[i..]) {
            Some((head, k)) => {
                ops.push(head);
                k
            }
            None => 1,
        };
        ops.extend_from_slice(&seg[i..i + k]);
        i += k;
    }
}

/// Lowers an entry sequence plus its fragment blocks into one module:
/// entry at offset 0, blocks appended in fragment (label) order, then
/// a patch pass resolves every static target to its absolute offset.
fn lower_module(entry: &InstrSeq, frag: &[FragCell]) -> BcModule {
    let arities: Vec<usize> = frag
        .iter()
        .map(|(_, hv)| match hv.as_deref() {
            Some(HeapVal::Code(b)) => b.delta.len(),
            _ => NOT_CODE,
        })
        .collect();
    let label_ord: HashMap<Label, u32> = frag
        .iter()
        .enumerate()
        .map(|(i, (l, _))| (l.clone(), i as u32))
        .collect();
    let mut ops = Vec::new();
    let mut offsets = vec![0u32; frag.len()];
    lower_seq(&mut ops, entry, &label_ord, &arities);
    fuse_segment(&mut ops, 0);
    for (ord, (_, hv)) in frag.iter().enumerate() {
        offsets[ord] = ops.len() as u32;
        if let Some(HeapVal::Code(b)) = hv.as_deref() {
            let from = ops.len();
            lower_seq(&mut ops, &b.body, &label_ord, &arities);
            fuse_segment(&mut ops, from);
        }
    }
    for op in &mut ops {
        if let BcOp::Jmp(t) | BcOp::Bnz { t, .. } | BcOp::Call { t, .. } | BcOp::PushJmp { t, .. } =
            op
        {
            if let BcTarget::Static { off, ord, .. } = t {
                *off = offsets[*ord as usize];
            }
        }
    }
    BcModule {
        ops,
        blocks: offsets.into_iter().zip(arities).collect(),
        labels: frag.iter().map(|(l, _)| l.clone()).collect(),
    }
}

fn frag_cells(heap: &HeapFrag) -> Vec<FragCell> {
    heap.iter_shared()
        .map(|(l, hv)| {
            let cell = match &**hv {
                HeapVal::Code(_) => Some(hv.clone()),
                HeapVal::Tuple { .. } => None,
            };
            (l.clone(), cell)
        })
        .collect()
}

pub(crate) fn lower_comp(comp: &TComp) -> BcModule {
    lower_module(&comp.seq, &frag_cells(&comp.heap))
}

/// Lowers one code block alone, for a cell entered without its
/// fragment (a translation-allocated closure, an `ℓend` block, a block
/// of the initial memory). All targets are dynamic: the same shared
/// block can be bound under different cell names, so no label may be
/// resolved at lower time.
pub(crate) fn lower_block(block: &CodeBlock) -> BcModule {
    lower_module(&block.body, &[])
}

/// Lowers a renamed merge: the module is instance-specific (its labels
/// embed the collision-renamed names), built from the already-renamed
/// cells the merge left in the flat heap.
fn lower_renamed(mem: &FastMem, entry: &InstrSeq, indices: &[u32]) -> BcModule {
    let frag: Vec<FragCell> = indices
        .iter()
        .map(|&i| {
            let l = mem.names[i as usize].clone();
            let hv = match &mem.heap[i as usize] {
                FastHeapVal::Code { hv, .. } => Some(hv.clone()),
                FastHeapVal::Tuple { .. } => None,
            };
            (l, hv)
        })
        .collect();
    lower_module(entry, &frag)
}

// ---------------------------------------------------------------------
// Per-run state
// ---------------------------------------------------------------------

/// The bytecode VM's per-run state: the jump-word cache and the loop
/// gate. Lowered modules live on the boundary nodes ([`IComp`]).
#[derive(Debug, Default)]
pub(crate) struct BcState {
    /// Fully associative cache of resolved `Big`-word jump targets
    /// (return addresses are the hot case: the same shared
    /// `Arc<WordVal>` is moved into a register on every call). Keyed by
    /// `Arc` identity; holding the strong `Arc` rules out ABA reuse of
    /// the address. Label→index bindings are append-only within a run,
    /// so a hit can never go stale. Not indexed by address bits: two
    /// hot words placed in the same slot by the allocator would evict
    /// each other on every return for the whole run.
    big_cache: [Option<(Arc<WordVal>, u32, u32)>; 4],
    /// The static loop gate, set only by [`crate::cost::infer_fuel`]:
    /// while set, every module the run instantiates must have a
    /// loop-free static CFG. Memoized per module; holding the module's
    /// `Arc` rules out a reused address aliasing an old verdict.
    pub(crate) loop_gate: Option<HashMap<usize, (Arc<BcModule>, bool)>>,
}

impl BcState {
    /// Admits a module about to be instantiated: always, unless the
    /// loop gate is set — one branch per instantiation otherwise.
    #[inline]
    fn admit(&mut self, m: &Arc<BcModule>) -> RResult<()> {
        match &mut self.loop_gate {
            None => Ok(()),
            Some(memo) => admit_loop_free(memo, m),
        }
    }
}

/// The loop gate's test: the module's static CFG, rooted at the entry
/// region and every externally enterable block, has no back edge
/// (data-dependent trip counts are not statically bounded). A refused
/// module stops the run.
#[cold]
fn admit_loop_free(
    memo: &mut HashMap<usize, (Arc<BcModule>, bool)>,
    m: &Arc<BcModule>,
) -> RResult<()> {
    let (_, loop_free) = memo.entry(Arc::as_ptr(m) as usize).or_insert_with(|| {
        let loop_free = module_regions(m).is_ok_and(|r| {
            let roots: Vec<usize> = (0..r.enterable.len()).filter(|&i| r.enterable[i]).collect();
            r.cfg.is_loop_free_from(&roots)
        });
        (m.clone(), loop_free)
    });
    if *loop_free {
        Ok(())
    } else {
        Err(RuntimeError::Stuck(
            "loop gate: module has a static back edge".to_owned(),
        ))
    }
}

/// Creates the instance for a freshly merged fragment and binds every
/// merged code cell's inline cache to it.
fn bind_instance(
    mem: &mut FastMem,
    module: Arc<BcModule>,
    indices: Vec<u32>,
    env: Env,
) -> Rc<BcInstance> {
    let inst = Rc::new(BcInstance {
        module,
        labels: indices,
        env,
    });
    for (ord, &idx) in inst.labels.iter().enumerate() {
        let (off, arity) = inst.module.blocks[ord];
        if arity == NOT_CODE {
            continue;
        }
        if let FastHeapVal::Code { bc, .. } = &mut mem.heap[idx as usize] {
            *bc = Some(BcCell {
                inst: inst.clone(),
                off,
                arity: arity as u32,
            });
        }
    }
    inst
}

/// What a control transfer resolved to: a new instance (or `None` when
/// staying in the current one), the offset to jump to, and the target
/// cell's heap index (for the event label).
type Transfer = (Option<Rc<BcInstance>>, u32, u32);

impl Machine<'_> {
    /// Builds the T control for entering a component whose heap
    /// fragment is merged (`merge`, already performed, and ticked and
    /// traced where the step counts). `module` gives the component's
    /// module, unless the merge renamed labels.
    pub(crate) fn boundary_ctrl(
        &mut self,
        module: impl FnOnce() -> Arc<BcModule>,
        env: &Env,
        merge: MergeOutcome,
    ) -> RResult<BcCtrl> {
        let module = match &merge.renamed_entry {
            Some(entry) => Arc::new(lower_renamed(&self.mem, entry, &merge.indices)),
            None => module(),
        };
        self.bc.admit(&module)?;
        let inst = bind_instance(&mut self.mem, module, merge.indices, env.clone());
        Ok(BcCtrl { inst, pc: 0 })
    }

    /// Admits `module`, the lowering of code cell `idx`'s block alone
    /// ([`lower_block`]), and binds the cell's inline cache to a fresh
    /// instance of it.
    pub(crate) fn bind_block(
        &mut self,
        idx: u32,
        module: Arc<BcModule>,
        env: Env,
    ) -> RResult<Rc<BcInstance>> {
        self.bc.admit(&module)?;
        let inst = Rc::new(BcInstance {
            module,
            labels: Vec::new(),
            env,
        });
        if let FastHeapVal::Code { hv, bc, .. } = &mut self.mem.heap[idx as usize] {
            let HeapVal::Code(block) = &**hv else {
                unreachable!("a code cell holds a block")
            };
            *bc = Some(BcCell {
                inst: inst.clone(),
                off: 0,
                arity: block.delta.len() as u32,
            });
        }
        Ok(inst)
    }

    /// The dispatch loop entry: monomorphizes on the trace flag so the
    /// untraced instantiation — the one every counted or uncounted run
    /// takes — carries no tracer code at all (every `if TRACED` block
    /// folds away, and fused heads take their net-effect routes).
    pub(crate) fn step_bc(&mut self, t: BcCtrl) -> RResult<Step> {
        if self.trace {
            self.step_bc_loop::<true>(t)
        } else {
            self.step_bc_loop::<false>(t)
        }
    }

    /// The dispatch loop. Runs until control leaves T (import, halt,
    /// boundary exit), an error, or fuel exhaustion — never returning
    /// to the outer CEK loop for intra-T transfers.
    fn step_bc_loop<const TRACED: bool>(&mut self, t: BcCtrl) -> RResult<Step> {
        let BcCtrl { mut inst, mut pc } = t;
        // Fuel and the instruction count live in locals for the
        // duration of the loop (registers instead of a load+store per
        // op). They are synced back on every `Ok` exit; error exits are
        // terminal, so the machine's fuel and counts are never observed
        // after them.
        let mut fuel = self.fuel;
        let mut instrs = 0u64;
        macro_rules! sync {
            () => {
                self.fuel = fuel;
                self.counts.instrs += instrs;
            };
        }
        macro_rules! tickl {
            () => {
                if fuel == 0 {
                    sync!();
                    return Ok(Step::Done(FtOutcome::OutOfFuel));
                }
                fuel -= 1;
            };
        }
        // One machine step that is a plain instruction.
        macro_rules! instr {
            () => {
                tickl!();
                if TRACED {
                    self.tracer.event(&Event::Instr);
                } else {
                    instrs += 1;
                }
            };
        }
        // A control transfer: its event when traced, else its count.
        macro_rules! transfer {
            ($ev:expr) => {
                if TRACED {
                    self.tracer.event(&$ev);
                } else {
                    self.counts.transfers += 1;
                }
            };
        }
        // A fused head's net route: the fuel and counts of its `$cost`
        // one-tick followers, `$transfers` of which transfer control.
        macro_rules! charge {
            ($cost:expr, $transfers:expr) => {
                fuel -= $cost;
                instrs += $cost - $transfers;
                self.counts.transfers += $transfers;
            };
        }
        'instance: loop {
            let module = inst.module.clone();
            let ops = &module.ops[..];
            loop {
                match &ops[pc as usize] {
                    BcOp::ArithRR { op, rd, rs, rt } => {
                        instr!();
                        let a = self.mem.int_reg(*rs)?;
                        let b = self.mem.int_reg(*rt)?;
                        self.mem.set_reg(*rd, TWord::Int(op.apply(a, b)));
                        pc += 1;
                    }
                    BcOp::ArithRI { op, rd, rs, imm } => {
                        instr!();
                        let a = self.mem.int_reg(*rs)?;
                        self.mem.set_reg(*rd, TWord::Int(op.apply(a, *imm)));
                        pc += 1;
                    }
                    BcOp::ArithDyn { op, rd, rs, src } => {
                        instr!();
                        let a = self.mem.int_reg(*rs)?;
                        let b = self.mem.as_int(&self.eval_op(src)?)?;
                        self.mem.set_reg(*rd, TWord::Int(op.apply(a, b)));
                        pc += 1;
                    }
                    BcOp::MvInt { rd, imm } => {
                        instr!();
                        self.mem.set_reg(*rd, TWord::Int(*imm));
                        pc += 1;
                    }
                    BcOp::MvUnit { rd } => {
                        instr!();
                        self.mem.set_reg(*rd, TWord::Unit);
                        pc += 1;
                    }
                    BcOp::MvReg { rd, rs } => {
                        instr!();
                        let w = self.mem.reg(*rs)?.clone();
                        self.mem.set_reg(*rd, w);
                        pc += 1;
                    }
                    BcOp::MvLbl { rd, ord } => {
                        instr!();
                        let idx = inst.labels[*ord as usize];
                        self.mem.set_reg(*rd, TWord::Loc(idx));
                        pc += 1;
                    }
                    BcOp::MvWord { rd, w } => {
                        instr!();
                        self.mem.set_reg(*rd, w.clone());
                        pc += 1;
                    }
                    BcOp::MvDyn { rd, src } => {
                        instr!();
                        let w = self.eval_op(src)?;
                        self.mem.set_reg(*rd, w);
                        pc += 1;
                    }
                    BcOp::Ld { rd, rs, idx } => {
                        instr!();
                        let i = self.mem.loc_of(self.mem.reg(*rs)?)?;
                        let FastHeapVal::Tuple { fields, .. } = &self.mem.heap[i as usize] else {
                            return Err(RuntimeError::NotTuple(format!(
                                "{} is code",
                                self.mem.names[i as usize]
                            )));
                        };
                        let w = fields
                            .get(*idx)
                            .ok_or(RuntimeError::BadFieldIndex(*idx))?
                            .clone();
                        self.mem.set_reg(*rd, w);
                        pc += 1;
                    }
                    BcOp::St { rd, idx, rs } => {
                        instr!();
                        let i = self.mem.loc_of(self.mem.reg(*rd)?)?;
                        let w = self.mem.reg(*rs)?.clone();
                        let name = self.mem.names[i as usize].clone();
                        let FastHeapVal::Tuple { mutability, fields } =
                            &mut self.mem.heap[i as usize]
                        else {
                            return Err(RuntimeError::NotTuple(format!("{name} is code")));
                        };
                        if *mutability != Mutability::Ref {
                            return Err(RuntimeError::ImmutableStore(name));
                        }
                        let slot = fields
                            .get_mut(*idx)
                            .ok_or(RuntimeError::BadFieldIndex(*idx))?;
                        *slot = w;
                        pc += 1;
                    }
                    BcOp::Ralloc { rd, n } | BcOp::Balloc { rd, n } => {
                        instr!();
                        let fields = self.mem.stack_pop_n(*n)?;
                        let mutability = if matches!(&ops[pc as usize], BcOp::Ralloc { .. }) {
                            Mutability::Ref
                        } else {
                            Mutability::Boxed
                        };
                        let i = self
                            .mem
                            .alloc("t", FastHeapVal::Tuple { mutability, fields });
                        self.mem.set_reg(*rd, TWord::Loc(i));
                        pc += 1;
                    }
                    BcOp::Salloc(n) => {
                        instr!();
                        let len = self.mem.stack.len();
                        check_salloc(len, *n)?;
                        self.mem.stack.resize(len + *n, TWord::Unit);
                        pc += 1;
                    }
                    BcOp::Sfree(n) => {
                        instr!();
                        self.mem.stack_drop_n(*n)?;
                        pc += 1;
                    }
                    BcOp::Sld { rd, idx } => {
                        instr!();
                        let w = self.mem.stack_get(*idx)?.clone();
                        self.mem.set_reg(*rd, w);
                        pc += 1;
                    }
                    BcOp::Sst { idx, rs } => {
                        instr!();
                        let w = self.mem.reg(*rs)?.clone();
                        self.mem.stack_set(*idx, w)?;
                        pc += 1;
                    }
                    BcOp::Unpack { rd, src } => {
                        instr!();
                        let w = self.eval_op(src)?;
                        let TWord::Big(b) = &w else {
                            return Err(RuntimeError::NotPack(self.mem.reify_word(&w).to_string()));
                        };
                        let WordVal::Pack { body, .. } = &**b else {
                            return Err(RuntimeError::NotPack(self.mem.reify_word(&w).to_string()));
                        };
                        let inner = self.mem.tword_of_word(body);
                        self.mem.set_reg(*rd, inner);
                        pc += 1;
                    }
                    BcOp::Unfold { rd, src } => {
                        instr!();
                        let w = self.eval_op(src)?;
                        let TWord::Big(b) = &w else {
                            return Err(RuntimeError::NotFold(self.mem.reify_word(&w).to_string()));
                        };
                        let WordVal::Fold { body, .. } = &**b else {
                            return Err(RuntimeError::NotFold(self.mem.reify_word(&w).to_string()));
                        };
                        let inner = self.mem.tword_of_word(body);
                        self.mem.set_reg(*rd, inner);
                        pc += 1;
                    }
                    BcOp::Protect => {
                        // Typing-only; still one machine step, charged
                        // as a plain instruction so every tick has
                        // exactly one charging event (the profiler's
                        // invariant).
                        instr!();
                        pc += 1;
                    }
                    BcOp::Import { rd, ty, body } => {
                        self.frames.push(Frame::ImportF {
                            rd: *rd,
                            ty: ty.clone(),
                            saved: BcCtrl {
                                inst: inst.clone(),
                                pc: pc + 1,
                            },
                        });
                        sync!();
                        return Ok(Step::Continue(Ctrl::Eval(body.clone(), inst.env.clone())));
                    }
                    BcOp::Bnz { r, t } => {
                        instr!();
                        if self.mem.int_reg(*r)? != 0 {
                            let (next, off, idx) = self.take_target(&inst, t, 0, None)?;
                            transfer!(Event::BnzTaken {
                                to: self.mem.names[idx as usize].clone(),
                            });
                            pc = off;
                            if let Some(n) = next {
                                inst = n;
                                continue 'instance;
                            }
                        } else {
                            pc += 1;
                        }
                    }
                    BcOp::Jmp(t) => {
                        tickl!();
                        let (next, off, idx) = self.take_target(&inst, t, 0, None)?;
                        transfer!(Event::Jmp {
                            to: self.mem.names[idx as usize].clone(),
                        });
                        pc = off;
                        if let Some(n) = next {
                            inst = n;
                            continue 'instance;
                        }
                    }
                    BcOp::Call { t, sigma, q } => {
                        tickl!();
                        let (next, off, idx) = self.take_target(&inst, t, 2, Some((sigma, q)))?;
                        transfer!(Event::Call {
                            to: self.mem.names[idx as usize].clone(),
                        });
                        pc = off;
                        if let Some(n) = next {
                            inst = n;
                            continue 'instance;
                        }
                    }
                    BcOp::Ret { target, val } => {
                        tickl!();
                        let w = self.mem.reg(*target)?.clone();
                        let (next, off, idx) = self.enter_bc(&inst, &w, 0, None)?;
                        transfer!(Event::Ret {
                            to: self.mem.names[idx as usize].clone(),
                            val: *val,
                        });
                        pc = off;
                        if let Some(n) = next {
                            inst = n;
                            continue 'instance;
                        }
                    }
                    BcOp::Halt { val } => {
                        sync!();
                        return self.halt(*val);
                    }
                    // Fused heads. When no event can be emitted and the
                    // fuel covers every follower, a head applies its
                    // followers' net effect in one dispatch — one fuel
                    // debit, their static counts, effects in follower
                    // order, errors raised exactly as the followers
                    // would raise them (errors are terminal, so
                    // post-error memory and fuel are unobservable) —
                    // and skips them. Otherwise the last arm steps over
                    // the head, and the followers' own arms tick, trace
                    // and run out of fuel exactly as unfused code does.
                    // A push at the stack bound steps into its
                    // `salloc 1`, which raises the overflow.
                    BcOp::Push { rs }
                        if !TRACED
                            && fuel >= BcOp::PUSH_COST
                            && self.mem.stack.len() < MAX_STACK_SLOTS =>
                    {
                        charge!(BcOp::PUSH_COST, 0);
                        let w = self.mem.reg(*rs)?.clone();
                        self.mem.stack.push(w);
                        pc += 1 + BcOp::PUSH_COST as u32;
                    }
                    BcOp::PushJmp {
                        rs,
                        t: BcTarget::Static { off, .. },
                    } if !TRACED
                        && !self.guard
                        && fuel >= BcOp::PUSH_JMP_COST
                        && self.mem.stack.len() < MAX_STACK_SLOTS =>
                    {
                        charge!(BcOp::PUSH_JMP_COST, 1);
                        let w = self.mem.reg(*rs)?.clone();
                        self.mem.stack.push(w);
                        pc = *off;
                    }
                    BcOp::SldPush { rd, idx }
                        if !TRACED
                            && fuel >= BcOp::SLD_PUSH_COST
                            && self.mem.stack.len() < MAX_STACK_SLOTS =>
                    {
                        charge!(BcOp::SLD_PUSH_COST, 0);
                        let w = self.mem.stack_get(*idx)?.clone();
                        self.mem.set_reg(*rd, w.clone());
                        self.mem.stack.push(w);
                        pc += 1 + BcOp::SLD_PUSH_COST as u32;
                    }
                    BcOp::PopArith { op, pr, rd, rs, rt }
                        if !TRACED && fuel >= BcOp::POP_ARITH_COST =>
                    {
                        charge!(BcOp::POP_ARITH_COST, 0);
                        if self.mem.stack.is_empty() {
                            self.mem.stack_get(0)?;
                        }
                        let w = self.mem.stack.pop().expect("checked non-empty");
                        self.mem.set_reg(*pr, w);
                        let a = self.mem.int_reg(*rs)?;
                        let b = self.mem.int_reg(*rt)?;
                        self.mem.set_reg(*rd, TWord::Int(op.apply(a, b)));
                        pc += 1 + BcOp::POP_ARITH_COST as u32;
                    }
                    BcOp::PopArithPush { op, pr, rd, rs, rt }
                        if !TRACED && fuel >= BcOp::POP_ARITH_PUSH_COST =>
                    {
                        charge!(BcOp::POP_ARITH_PUSH_COST, 0);
                        if self.mem.stack.is_empty() {
                            self.mem.stack_get(0)?;
                        }
                        let w = self.mem.stack.pop().expect("checked non-empty");
                        self.mem.set_reg(*pr, w);
                        let a = self.mem.int_reg(*rs)?;
                        let b = self.mem.int_reg(*rt)?;
                        let r = TWord::Int(op.apply(a, b));
                        self.mem.set_reg(*rd, r.clone());
                        self.mem.stack.push(r);
                        pc += 1 + BcOp::POP_ARITH_PUSH_COST as u32;
                    }
                    BcOp::SldSfree { rd, idx, n } if !TRACED && fuel >= BcOp::SLD_SFREE_COST => {
                        charge!(BcOp::SLD_SFREE_COST, 0);
                        let w = self.mem.stack_get(*idx)?.clone();
                        self.mem.set_reg(*rd, w);
                        self.mem.stack_drop_n(*n)?;
                        pc += 1 + BcOp::SLD_SFREE_COST as u32;
                    }
                    BcOp::PopRet { ra, n } if !TRACED && fuel >= BcOp::POP_RET_COST => {
                        charge!(BcOp::POP_RET_COST, 1);
                        let len = self.mem.stack.len();
                        if len == 0 {
                            self.mem.stack_get(0)?;
                        }
                        if len < *n {
                            self.mem.stack_drop_n(*n)?;
                        }
                        // Move the return address out of the stack (no
                        // refcount traffic), resolve it, then park it in
                        // `ra` — the register state the `sld` leaves.
                        let w = self.mem.stack.pop().expect("checked non-empty");
                        self.mem.stack.truncate(len - *n);
                        let (next, off, _) = self.enter_bc(&inst, &w, 0, None)?;
                        self.mem.set_reg(*ra, w);
                        pc = off;
                        if let Some(nx) = next {
                            inst = nx;
                            continue 'instance;
                        }
                    }
                    BcOp::Push { .. }
                    | BcOp::PushJmp { .. }
                    | BcOp::SldPush { .. }
                    | BcOp::PopArith { .. }
                    | BcOp::PopArithPush { .. }
                    | BcOp::SldSfree { .. }
                    | BcOp::PopRet { .. } => pc += 1,
                }
            }
        }
    }

    fn take_target(
        &mut self,
        cur: &Rc<BcInstance>,
        t: &BcTarget,
        extra_insts: usize,
        call_extra: Option<(&Arc<StackTy>, &Arc<RetMarker>)>,
    ) -> RResult<Transfer> {
        match t {
            BcTarget::Static { off, ord, w } => {
                if self.guard {
                    // The guard needs the instantiation contents, so
                    // static targets take the full entry path.
                    self.enter_bc(cur, w, extra_insts, call_extra)
                } else {
                    Ok((None, *off, cur.labels[*ord as usize]))
                }
            }
            BcTarget::Dyn(op) => {
                let w = self.eval_op(op)?;
                self.enter_bc(cur, &w, extra_insts, call_extra)
            }
        }
    }

    /// Resolves a jump-target word through the heap (label lookup,
    /// arity check, optional dynamic guard), yielding an instance +
    /// offset, with the per-cell [`BcCell`] as the inline cache.
    fn enter_bc(
        &mut self,
        cur: &Rc<BcInstance>,
        w: &TWord,
        extra_insts: usize,
        call_extra: Option<(&Arc<StackTy>, &Arc<RetMarker>)>,
    ) -> RResult<Transfer> {
        let (idx, n_insts, insts) = if self.guard {
            self.resolve_code(w)?
        } else if let TWord::Big(b) = w {
            // Hot Big words (return addresses) resolve through the
            // cache instead of re-hashing the label; a miss evicts the
            // oldest entry.
            let mut cached = self.bc.big_cache.iter().flatten();
            match cached.find(|(cb, ..)| Arc::ptr_eq(cb, b)) {
                Some(&(_, idx, count)) => (idx, count as usize, None),
                None => {
                    let r = self.resolve_code(w)?;
                    self.bc.big_cache.rotate_right(1);
                    self.bc.big_cache[0] = Some((b.clone(), r.0, r.1 as u32));
                    r
                }
            }
        } else {
            self.resolve_code(w)?
        };
        // Fast path: the cell is bound — a compare, an arity check,
        // and at most one refcount bump.
        if !self.guard {
            if let FastHeapVal::Code { bc: Some(cell), .. } = &self.mem.heap[idx as usize] {
                if cell.arity as usize != n_insts + extra_insts {
                    return Err(RuntimeError::BadInstantiation {
                        expected: cell.arity as usize,
                        provided: n_insts + extra_insts,
                    });
                }
                let off = cell.off;
                if Rc::ptr_eq(&cell.inst, cur) {
                    return Ok((None, off, idx));
                }
                return Ok((Some(cell.inst.clone()), off, idx));
            }
        }
        let (hv, benv, cached) = match &self.mem.heap[idx as usize] {
            FastHeapVal::Code { hv, env, bc, .. } => (hv.clone(), env.clone(), bc.clone()),
            FastHeapVal::Tuple { .. } => {
                return Err(RuntimeError::NotCode(format!(
                    "{} is a tuple",
                    self.mem.names[idx as usize]
                )))
            }
        };
        let HeapVal::Code(block) = &*hv else {
            unreachable!()
        };
        if block.delta.len() != n_insts + extra_insts {
            return Err(RuntimeError::BadInstantiation {
                expected: block.delta.len(),
                provided: n_insts + extra_insts,
            });
        }
        let (inst2, off) = match cached {
            Some(cell) => (cell.inst.clone(), cell.off),
            None => {
                // First cross-fragment entry into an unbound cell:
                // lower its block alone and bind; the cell keeps the
                // module for the rest of the run.
                let module = Arc::new(lower_block(block));
                (self.bind_block(idx, module, benv)?, 0)
            }
        };
        if self.guard {
            let mut all_insts = insts.unwrap_or_default();
            if let Some((sigma, q)) = call_extra {
                all_insts.push(Inst::Stack((**sigma).clone()));
                all_insts.push(Inst::Ret((**q).clone()));
            }
            let subst = Subst::from_pairs(
                block
                    .delta
                    .iter()
                    .zip(&all_insts)
                    .map(|(d, i)| (d.var.clone(), i.clone())),
            );
            self.guard_entry(
                &self.mem.names[idx as usize].clone(),
                &subst.chi(&block.chi),
                &subst.stack(&block.sigma),
            )?;
        }
        if Rc::ptr_eq(&inst2, cur) {
            Ok((None, off, idx))
        } else {
            Ok((Some(inst2), off, idx))
        }
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Runs an FT component on the fast machine, reading the initial
/// state from `mem` and writing the final state back — observably
/// identical (outcomes, events, fuel, final memory, fresh labels) to
/// the substitution oracle.
pub fn run_bc(
    mem: &mut Memory,
    comp: &Component,
    cfg: RunCfg,
    tracer: &mut dyn Tracer,
) -> RResult<FtOutcome> {
    let mut machine = Machine::new(FastMem::from_memory(mem), cfg, tracer);
    let ctrl = match comp {
        Component::F(e) => Ctrl::Eval(IExpr::from_fexpr(e), Env::default()),
        Component::T(c) => {
            // The merge happens before the step loop (no fuel), as in
            // the substitution machine's `run`.
            let merge = machine.mem.merge_fragment(c, &Env::default());
            Ctrl::T(machine.boundary_ctrl(|| Arc::new(lower_comp(c)), &Env::default(), merge)?)
        }
    };
    let result = machine.run(ctrl);
    machine.mem.write_back(mem);
    result
}

// ---------------------------------------------------------------------
// Pre-lowered programs (the driver's cacheable artifact)
// ---------------------------------------------------------------------

/// A program lowered ahead of time: the interned expression, whose
/// boundary nodes each hold their component's bytecode module
/// (including the boundaries nested inside `import` bodies) and, at
/// arrow type, their Fig 10 wrapper slot (`IComp`). Shareable across
/// threads and runs — the driver caches these so warm batch runs skip
/// re-lowering, and a run that reuses a stored wrapper lowers nothing
/// for it.
#[derive(Clone, Debug)]
pub struct LoweredProgram {
    pub(crate) iexpr: IExpr,
}

impl LoweredProgram {
    /// The interned `e`; each boundary is lowered the first time it is
    /// entered or walked.
    pub(crate) fn intern(e: &FExpr) -> LoweredProgram {
        LoweredProgram {
            iexpr: IExpr::from_fexpr(e),
        }
    }

    /// How many distinct T components were lowered.
    pub fn module_count(&self) -> usize {
        self.components().len()
    }

    /// This program applied to integer literals. The call shares every
    /// boundary node of `self`, so running it lowers nothing that
    /// `self` already holds.
    pub fn call(&self, args: &[i64]) -> LoweredProgram {
        LoweredProgram {
            iexpr: IExpr::new(IKind::App {
                func: self.iexpr.clone(),
                args: args.iter().map(|n| IExpr::new(IKind::Int(*n))).collect(),
            }),
        }
    }

    /// Every boundary component of the program, each with its module
    /// lowered, in lowering order: a component follows the components
    /// of its own `import` bodies. The verifier numbers modules in this
    /// order.
    pub(crate) fn components(&self) -> Vec<&IComp> {
        let mut out = Vec::new();
        collect_components(&self.iexpr, &mut out);
        out
    }
}

fn collect_components<'a>(e: &'a IExpr, out: &mut Vec<&'a IComp>) {
    match e.kind() {
        IKind::Var(_) | IKind::Unit | IKind::Int(_) => {}
        IKind::Binop { lhs, rhs, .. } => {
            collect_components(lhs, out);
            collect_components(rhs, out);
        }
        IKind::If0 {
            cond,
            then_branch,
            else_branch,
        } => {
            collect_components(cond, out);
            collect_components(then_branch, out);
            collect_components(else_branch, out);
        }
        IKind::Lam { body, .. } => collect_components(body, out),
        IKind::App { func, args } => {
            collect_components(func, out);
            for a in args.iter() {
                collect_components(a, out);
            }
        }
        IKind::Fold { body, .. } => collect_components(body, out),
        IKind::Unfold(body) => collect_components(body, out),
        IKind::Tuple(es) => {
            for e in es.iter() {
                collect_components(e, out);
            }
        }
        IKind::Proj { tuple, .. } => collect_components(tuple, out),
        IKind::Boundary { comp, .. } => {
            // Import bodies may embed further boundaries; they were
            // interned during lowering, so walk the lowered ops to
            // reach them.
            for op in &comp.module().ops {
                if let BcOp::Import { body, .. } = op {
                    collect_components(body, out);
                }
            }
            out.push(comp);
        }
    }
}

/// Lowers a closed F expression ahead of time: interns it and lowers
/// every embedded T component to bytecode, so the lowering cost is paid
/// here rather than on first entry. The result is `Send + Sync` and
/// reusable across runs and worker threads.
pub fn prelower(e: &FExpr) -> LoweredProgram {
    let lp = LoweredProgram::intern(e);
    // The walk lowers every boundary it reaches.
    lp.components();
    // Debug builds verify every module the lowerer emits; release
    // builds stay verification-free here so lowering cost is
    // unchanged (callers opt in via `bc_verify::verify_lowered`).
    #[cfg(debug_assertions)]
    if let Err(e) = crate::bc_verify::verify_lowered(&lp) {
        panic!("prelower produced a module the verifier rejects: {e}");
    }
    lp
}

/// Runs a pre-lowered program in a fresh memory on the fast machine;
/// every boundary reads its module from its node. Observably identical
/// to running the original expression through
/// [`crate::machine::run_fexpr`] under any strategy: what the run
/// reads from the program's wrapper slots is exactly what it would
/// compute.
pub fn run_prelowered(
    lp: &LoweredProgram,
    cfg: RunCfg,
    tracer: &mut dyn Tracer,
) -> RResult<FtOutcome> {
    Machine::new(FastMem::default(), cfg, tracer).run(Ctrl::Eval(lp.iexpr.clone(), Env::default()))
}
