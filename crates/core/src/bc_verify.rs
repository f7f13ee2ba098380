//! The bytecode verifier: static well-formedness for [`BcModule`]s.
//!
//! The lowerer ([`crate::machine_bc`]) is trusted by the dispatch loop
//! to produce streams it can execute blindly — static jump offsets
//! land on block starts, a fused head stands for exactly the ops behind
//! it, and the register file is only read where some write must have
//! happened first. This module discharges
//! that trust statically, instruction by instruction:
//!
//! - **region structure**: block offsets are strictly increasing and
//!   in range, every region (entry sequence or block body) ends in a
//!   terminator, and no terminator appears mid-region;
//! - **static targets**: every [`BcTarget::Static`] points at the
//!   recorded offset of a *code* ordinal and its discharged
//!   instantiation-arity check matches the block table;
//! - **fused heads**: each head's [`BcOp::fuel_cost`] equals the sum
//!   of its followers' costs, and re-fusing the followers yields
//!   exactly that head, so its net route charges, counts and does what
//!   stepping through them would (the profiler's certification and the
//!   untraced step counts hinge on this). Every other check reads only
//!   the followers: a head has no register effects, adds no CFG edge,
//!   and is never a terminator;
//! - **definite initialization**: a forward must-analysis over the
//!   region graph (via [`funtal_analysis`]) proves no register is
//!   read before every path to the read has written it. Fig 7 types
//!   T components under an *empty* register file, so the entry region
//!   starts from ∅; blocks whose label escapes as a first-class value
//!   can be entered from unknown contexts and start from ⊤.
//!
//! Debug builds run the verifier on everything [`prelower`] emits
//! (see `machine_bc.rs`); release callers opt in via
//! [`verify_lowered`] — verification is lower-time-only and never
//! touches the dispatch loop.
//!
//! [`prelower`]: crate::machine_bc::prelower

use std::collections::{HashMap, HashSet};
use std::fmt;

use funtal_analysis::{solve, Analysis, BitSet, Cfg, Direction};
use funtal_syntax::{Label, Reg, SmallVal, WordVal};

use crate::machine_bc::{fuse, BcModule, BcOp, BcTarget, LoweredProgram, NOT_CODE};
use crate::machine_fast::{peel_count, ridx, FastOp, TWord};

/// Size of the dense register file (`r1..r7`, `ra`).
pub(crate) const REG_FILE: usize = 8;

// The init-analysis bitsets index registers by `ridx`; keep the two
// in lock step.
const _: () = assert!(REG_FILE == Reg::ALL.len());

/// Why one [`BcModule`] failed verification. Offsets (`at`) index the
/// module's flat op stream; `ord` is a fragment ordinal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum BcVerifyError {
    /// The op stream is empty (even an empty entry lowers to a
    /// terminator).
    EmptyModule,
    /// A code block's recorded offset points outside the op stream.
    BlockOffsetOutOfRange {
        /// The block's fragment ordinal.
        ord: usize,
        /// Its recorded offset.
        off: u32,
        /// The op-stream length.
        len: usize,
    },
    /// Code block offsets must be strictly increasing (each region
    /// non-empty, entry region first).
    BlockOffsetNotIncreasing {
        /// The offending block's fragment ordinal.
        ord: usize,
        /// Its recorded offset.
        off: u32,
        /// The previous code block's offset (0 for the entry).
        prev: u32,
    },
    /// A region's last instruction is not a terminator — control
    /// would fall off its end into the next block's body.
    MissingTerminator {
        /// The region's start offset.
        region_start: u32,
    },
    /// A terminator appears in the middle of a region, where no
    /// control transfer can reach the ops behind it.
    MidRegionTerminator {
        /// The terminator's offset.
        at: u32,
    },
    /// A static target names an ordinal that is out of range or a
    /// tuple.
    BadStaticOrdinal {
        /// The op's offset.
        at: u32,
        /// The target ordinal.
        ord: u32,
    },
    /// A static target's pre-resolved offset disagrees with the block
    /// table — the jump would land mid-stream.
    BadStaticOffset {
        /// The op's offset.
        at: u32,
        /// The target ordinal.
        ord: u32,
        /// The offset baked into the target.
        off: u32,
        /// The block table's offset for that ordinal.
        expected: u32,
    },
    /// A static target's instantiation count disagrees with the
    /// block's arity: the check the lowerer claims to have discharged
    /// does not hold.
    BadStaticArity {
        /// The op's offset.
        at: u32,
        /// The target ordinal.
        ord: u32,
        /// The block's instantiation arity.
        expected: usize,
        /// What the target word (plus call extras) provides.
        provided: usize,
    },
    /// An `MvLbl` references an ordinal outside the block table.
    BadLabelOrdinal {
        /// The op's offset.
        at: u32,
        /// The referenced ordinal.
        ord: u32,
    },
    /// A register is read on some path before any write reaches it.
    UninitializedRead {
        /// The reading op's offset.
        at: u32,
        /// The register read.
        reg: Reg,
    },
    /// A fused head's cost differs from the total cost of the ops it
    /// stands for: its net route would charge other fuel than stepping
    /// through them.
    BadFusedCost {
        /// The head's offset.
        at: u32,
        /// What [`BcOp::fuel_cost`] charges.
        charged: u64,
        /// What its followers charge together.
        followers: u64,
    },
    /// The ops behind a fused head do not re-fuse to exactly that head:
    /// its net route would do something other than they do.
    BadFusedHead {
        /// The head's offset.
        at: u32,
    },
    /// A fused head stands for more ops than its region has left.
    TruncatedHead {
        /// The head's offset.
        at: u32,
        /// How many ops it stands for.
        followers: usize,
        /// How many ops follow it in its region.
        left: usize,
    },
}

impl fmt::Display for BcVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BcVerifyError::EmptyModule => write!(f, "empty op stream"),
            BcVerifyError::BlockOffsetOutOfRange { ord, off, len } => write!(
                f,
                "block #{ord} offset {off} is outside the op stream (len {len})"
            ),
            BcVerifyError::BlockOffsetNotIncreasing { ord, off, prev } => write!(
                f,
                "block #{ord} offset {off} does not follow the previous region (at {prev})"
            ),
            BcVerifyError::MissingTerminator { region_start } => write!(
                f,
                "region starting at {region_start} does not end in a terminator"
            ),
            BcVerifyError::MidRegionTerminator { at } => {
                write!(f, "terminator at {at} in the middle of a region")
            }
            BcVerifyError::BadStaticOrdinal { at, ord } => write!(
                f,
                "static target at {at} names ordinal #{ord}, which is not a code block"
            ),
            BcVerifyError::BadStaticOffset {
                at,
                ord,
                off,
                expected,
            } => write!(
                f,
                "static target at {at} jumps to {off}, but block #{ord} starts at {expected}"
            ),
            BcVerifyError::BadStaticArity {
                at,
                ord,
                expected,
                provided,
            } => write!(
                f,
                "static target at {at} instantiates block #{ord} with {provided} \
                 arguments; it takes {expected}"
            ),
            BcVerifyError::BadLabelOrdinal { at, ord } => {
                write!(
                    f,
                    "mv at {at} references ordinal #{ord}, which does not exist"
                )
            }
            BcVerifyError::UninitializedRead { at, reg } => {
                write!(f, "op at {at} reads {reg} before it is initialized")
            }
            BcVerifyError::BadFusedCost {
                at,
                charged,
                followers,
            } => write!(
                f,
                "fused head at {at} charges {charged} fuel but its followers charge {followers}"
            ),
            BcVerifyError::BadFusedHead { at } => {
                write!(f, "fused head at {at} is not what its followers re-fuse to")
            }
            BcVerifyError::TruncatedHead {
                at,
                followers,
                left,
            } => write!(
                f,
                "fused head at {at} stands for {followers} ops but its region has {left} left"
            ),
        }
    }
}

impl std::error::Error for BcVerifyError {}

/// A verification failure, locating the offending module within a
/// [`LoweredProgram`] (modules are numbered in lowering order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleVerifyError {
    /// Index of the rejected module.
    pub(crate) module: usize,
    /// What the verifier found.
    pub(crate) error: BcVerifyError,
}

impl fmt::Display for ModuleVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytecode module #{}: {}", self.module, self.error)
    }
}

impl std::error::Error for ModuleVerifyError {}

/// Verifies every module of a pre-lowered program. `Ok(())` means the
/// dispatch loop's structural assumptions hold for all of them.
pub fn verify_lowered(lp: &LoweredProgram) -> Result<(), ModuleVerifyError> {
    for (i, c) in lp.components().into_iter().enumerate() {
        verify_module(c.module()).map_err(|error| ModuleVerifyError { module: i, error })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Region structure
// ---------------------------------------------------------------------

/// The region decomposition of a module plus its static control-flow
/// graph. Region 0 is the entry sequence; the rest are code-block
/// bodies in offset order.
pub(crate) struct ModuleRegions {
    /// Region start offsets (region `r` spans `starts[r]` up to
    /// `starts[r+1]`, the last up to the stream's end).
    pub(crate) starts: Vec<u32>,
    /// Each region's fragment ordinal (`None` for the entry).
    pub(crate) region_ord: Vec<Option<u32>>,
    /// Static CFG over regions (edges from static jump/branch/call
    /// targets only; dynamic transfers are modelled by `enterable`).
    pub(crate) cfg: Cfg,
    /// Regions that may be entered from outside the static graph:
    /// their block's label occurs as first-class data somewhere in
    /// the module (or the module has tuples, whose fields the lowered
    /// stream cannot see), so any context may jump to them.
    pub(crate) enterable: Vec<bool>,
}

impl ModuleRegions {
    /// The half-open op range of region `r`.
    pub(crate) fn range(&self, r: usize, ops_len: usize) -> std::ops::Range<usize> {
        let start = self.starts[r] as usize;
        let end = self
            .starts
            .get(r + 1)
            .map(|&o| o as usize)
            .unwrap_or(ops_len);
        start..end
    }
}

fn is_terminator(op: &BcOp) -> bool {
    matches!(
        op,
        BcOp::Jmp(_) | BcOp::Call { .. } | BcOp::Ret { .. } | BcOp::Halt { .. }
    )
}

/// Checks the fused head at `at` against the ops behind it in its
/// region (`rest`, at least as many as it stands for): their costs must
/// sum to its cost, and re-fusing them must yield this very head.
fn check_head(at: u32, head: &BcOp, rest: &[BcOp]) -> Result<(), BcVerifyError> {
    let charged = head.fuel_cost();
    let k = charged as usize;
    let followers = rest[..k].iter().map(BcOp::fuel_cost).sum();
    if followers != charged {
        return Err(BcVerifyError::BadFusedCost {
            at,
            charged,
            followers,
        });
    }
    if fuse(rest) != Some((head.clone(), k)) {
        return Err(BcVerifyError::BadFusedHead { at });
    }
    Ok(())
}

fn scan_word(w: &WordVal, label_ord: &HashMap<&Label, u32>, out: &mut HashSet<u32>) {
    match w {
        WordVal::Unit | WordVal::Int(_) => {}
        WordVal::Loc(l) => {
            if let Some(&ord) = label_ord.get(l) {
                out.insert(ord);
            }
        }
        WordVal::Pack { body, .. } | WordVal::Fold { body, .. } | WordVal::Inst { body, .. } => {
            scan_word(body, label_ord, out)
        }
    }
}

fn scan_tword(w: &TWord, label_ord: &HashMap<&Label, u32>, out: &mut HashSet<u32>) {
    if let TWord::Big(b) = w {
        scan_word(b, label_ord, out);
    }
}

fn scan_small(v: &SmallVal, label_ord: &HashMap<&Label, u32>, out: &mut HashSet<u32>) {
    match v {
        SmallVal::Reg(_) => {}
        SmallVal::Word(w) => scan_word(w, label_ord, out),
        SmallVal::Pack { body, .. } | SmallVal::Fold { body, .. } | SmallVal::Inst { body, .. } => {
            scan_small(body, label_ord, out)
        }
    }
}

fn scan_fastop(op: &FastOp, label_ord: &HashMap<&Label, u32>, out: &mut HashSet<u32>) {
    match op {
        FastOp::Reg(_) => {}
        FastOp::Word(w) => scan_tword(w, label_ord, out),
        FastOp::Dyn(v) => scan_small(v, label_ord, out),
    }
}

/// Ordinals whose labels occur as first-class data in the op stream
/// (move sources, dynamic operands, pack/fold bodies). If the module
/// has tuple ordinals, every code ordinal is reported: tuple fields
/// are not part of the stream, so a label could escape through one
/// unseen.
fn escaping_ordinals(m: &BcModule) -> HashSet<u32> {
    let has_tuples = m.blocks.iter().any(|&(_, arity)| arity == NOT_CODE);
    if has_tuples {
        return (0..m.blocks.len() as u32).collect();
    }
    let label_ord: HashMap<&Label, u32> = m
        .labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l, i as u32))
        .collect();
    let mut out = HashSet::new();
    for op in &m.ops {
        match op {
            BcOp::MvLbl { ord, .. } => {
                out.insert(*ord);
            }
            BcOp::MvWord { w, .. } => scan_tword(w, &label_ord, &mut out),
            BcOp::MvDyn { src, .. }
            | BcOp::ArithDyn { src, .. }
            | BcOp::Unpack { src, .. }
            | BcOp::Unfold { src, .. } => scan_fastop(src, &label_ord, &mut out),
            BcOp::Jmp(BcTarget::Dyn(t))
            | BcOp::Bnz {
                t: BcTarget::Dyn(t),
                ..
            }
            | BcOp::Call {
                t: BcTarget::Dyn(t),
                ..
            } => scan_fastop(t, &label_ord, &mut out),
            _ => {}
        }
    }
    out
}

/// Validates the block table and region structure, checks every
/// operand (static targets, label ordinals) and fused head, and builds
/// the static CFG.
pub(crate) fn module_regions(m: &BcModule) -> Result<ModuleRegions, BcVerifyError> {
    if m.ops.is_empty() {
        return Err(BcVerifyError::EmptyModule);
    }
    // Block table: code offsets strictly increasing, in range. The
    // entry region occupies offset 0, so the first code block must
    // start past it.
    let mut starts = vec![0u32];
    let mut region_ord = vec![None];
    let mut prev = 0u32;
    for (ord, &(off, arity)) in m.blocks.iter().enumerate() {
        if arity == NOT_CODE {
            continue; // tuples occupy an ordinal but no code
        }
        if off as usize >= m.ops.len() {
            return Err(BcVerifyError::BlockOffsetOutOfRange {
                ord,
                off,
                len: m.ops.len(),
            });
        }
        if off <= prev && !(prev == 0 && starts.len() == 1 && off > 0) {
            return Err(BcVerifyError::BlockOffsetNotIncreasing { ord, off, prev });
        }
        starts.push(off);
        region_ord.push(Some(ord as u32));
        prev = off;
    }
    let ord_region: HashMap<u32, usize> = region_ord
        .iter()
        .enumerate()
        .filter_map(|(r, o)| o.map(|ord| (ord, r)))
        .collect();

    // Region scan: terminator placement, operand checks, CFG edges.
    let n = starts.len();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut heads: Vec<(usize, usize)> = Vec::new();
    for r in 0..n {
        let start = starts[r] as usize;
        let end = starts
            .get(r + 1)
            .map(|&o| o as usize)
            .unwrap_or(m.ops.len());
        for (off, op) in m.ops[start..end].iter().enumerate() {
            let at = (start + off) as u32;
            let last = start + off == end - 1;
            if op.is_head() {
                let (followers, left) = (op.fuel_cost() as usize, end - (start + off) - 1);
                if left < followers {
                    return Err(BcVerifyError::TruncatedHead {
                        at,
                        followers,
                        left,
                    });
                }
                heads.push((start + off, end));
            }
            if last && !is_terminator(op) {
                return Err(BcVerifyError::MissingTerminator {
                    region_start: start as u32,
                });
            }
            if !last && is_terminator(op) {
                return Err(BcVerifyError::MidRegionTerminator { at });
            }
            let target = match op {
                BcOp::Jmp(t) | BcOp::Bnz { t, .. } => Some((t, 0)),
                BcOp::Call { t, .. } => Some((t, 2)),
                _ => None,
            };
            if let Some((BcTarget::Static { off: toff, ord, w }, extra)) = target {
                let (boff, arity) = match m.blocks.get(*ord as usize) {
                    Some(&(boff, arity)) if arity != NOT_CODE => (boff, arity),
                    _ => return Err(BcVerifyError::BadStaticOrdinal { at, ord: *ord }),
                };
                if *toff != boff {
                    return Err(BcVerifyError::BadStaticOffset {
                        at,
                        ord: *ord,
                        off: *toff,
                        expected: boff,
                    });
                }
                let count = match w {
                    TWord::Big(b) => peel_count(b).1,
                    _ => 0,
                };
                if count + extra != arity {
                    return Err(BcVerifyError::BadStaticArity {
                        at,
                        ord: *ord,
                        expected: arity,
                        provided: count + extra,
                    });
                }
                edges.push((r, ord_region[ord]));
            }
            if let BcOp::MvLbl { ord, .. } = op {
                if *ord as usize >= m.blocks.len() {
                    return Err(BcVerifyError::BadLabelOrdinal { at, ord: *ord });
                }
            }
        }
    }

    // Heads last, once the followers they stand for have passed.
    for (at, end) in heads {
        check_head(at as u32, &m.ops[at], &m.ops[at + 1..end])?;
    }

    let escaping = escaping_ordinals(m);
    let enterable: Vec<bool> = region_ord
        .iter()
        .map(|o| o.is_some_and(|ord| escaping.contains(&ord)))
        .collect();
    Ok(ModuleRegions {
        cfg: Cfg::new(n, 0, edges),
        starts,
        region_ord,
        enterable,
    })
}

// ---------------------------------------------------------------------
// Definite initialization
// ---------------------------------------------------------------------

/// One register effect of an opcode, in execution order.
pub(crate) enum Eff {
    /// A read.
    R(Reg),
    /// A write.
    W(Reg),
}

/// The register reads and writes of one opcode, in the order the
/// dispatch loop performs them. A fused head has none of its own: its
/// followers carry them.
pub(crate) fn effects(op: &BcOp, out: &mut Vec<Eff>) {
    use Eff::{R, W};
    let target = |t: &BcTarget, out: &mut Vec<Eff>| {
        if let BcTarget::Dyn(FastOp::Reg(r)) = t {
            out.push(R(*r));
        }
    };
    let src_reads = |src: &FastOp, out: &mut Vec<Eff>| {
        if let FastOp::Reg(r) = src {
            out.push(R(*r));
        }
    };
    match op {
        BcOp::ArithRR { rd, rs, rt, .. } => out.extend([R(*rs), R(*rt), W(*rd)]),
        BcOp::ArithRI { rd, rs, .. } => out.extend([R(*rs), W(*rd)]),
        BcOp::ArithDyn { rd, rs, src, .. } => {
            out.push(R(*rs));
            src_reads(src, out);
            out.push(W(*rd));
        }
        BcOp::MvInt { rd, .. }
        | BcOp::MvUnit { rd }
        | BcOp::MvLbl { rd, .. }
        | BcOp::MvWord { rd, .. } => out.push(W(*rd)),
        BcOp::MvReg { rd, rs } => out.extend([R(*rs), W(*rd)]),
        BcOp::MvDyn { rd, src } | BcOp::Unpack { rd, src } | BcOp::Unfold { rd, src } => {
            src_reads(src, out);
            out.push(W(*rd));
        }
        BcOp::Ld { rd, rs, .. } => out.extend([R(*rs), W(*rd)]),
        BcOp::St { rd, rs, .. } => out.extend([R(*rd), R(*rs)]),
        BcOp::Ralloc { rd, .. } | BcOp::Balloc { rd, .. } => out.push(W(*rd)),
        BcOp::Salloc(_) | BcOp::Sfree(_) | BcOp::Protect => {}
        BcOp::Sld { rd, .. } => out.push(W(*rd)),
        BcOp::Sst { rs, .. } => out.push(R(*rs)),
        BcOp::Import { rd, .. } => out.push(W(*rd)),
        BcOp::Bnz { r, t } => {
            out.push(R(*r));
            target(t, out);
        }
        BcOp::Jmp(t) => target(t, out),
        BcOp::Call { t, .. } => target(t, out),
        // `ret` reads only the target register at dispatch; the value
        // register is the *continuation's* read (covered by liveness
        // in the lint layer, not by definite initialization).
        BcOp::Ret { target: t, .. } => out.push(R(*t)),
        BcOp::Halt { val } => out.push(R(*val)),
        // Fused heads: no effects of their own.
        op => debug_assert!(op.is_head(), "{op:?}"),
    }
}

/// Forward must-initialization over regions. Facts are `None` for
/// statically unreachable regions (⊤) and `Some(set)` for the
/// registers written on *every* path; joins intersect.
struct InitAnalysis<'a> {
    m: &'a BcModule,
    regions: &'a ModuleRegions,
}

impl InitAnalysis<'_> {
    fn walk(&self, r: usize, fact: BitSet) -> BitSet {
        let mut fact = fact;
        let mut effs = Vec::new();
        for op in &self.m.ops[self.regions.range(r, self.m.ops.len())] {
            effs.clear();
            effects(op, &mut effs);
            for e in &effs {
                if let Eff::W(reg) = e {
                    fact.insert(ridx(*reg));
                }
            }
        }
        fact
    }
}

impl Analysis for InitAnalysis<'_> {
    type Fact = Option<BitSet>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init_fact(&self) -> Option<BitSet> {
        None
    }

    fn boundary_fact(&self, b: usize) -> Option<Option<BitSet>> {
        if b == 0 {
            // Fig 7: T components are checked under an empty register
            // file, so the machine enters the entry sequence with no
            // register initialized.
            Some(Some(BitSet::EMPTY))
        } else if self.regions.enterable[b] {
            // The block's label escapes: any context may enter it, and
            // the verifier cannot know with what. Assume everything is
            // initialized (never flag) — the guard tier re-checks the
            // register typing dynamically when enabled.
            Some(Some(BitSet::full(REG_FILE)))
        } else {
            None
        }
    }

    fn join(&self, into: &mut Option<BitSet>, from: &Option<BitSet>) -> bool {
        let next = match (&*into, from) {
            (None, f) => *f,
            (f, None) => *f,
            (Some(a), Some(b)) => Some(a.intersect(*b)),
        };
        let changed = next != *into;
        *into = next;
        changed
    }

    fn transfer(&self, block: usize, fact: &Option<BitSet>) -> Option<BitSet> {
        fact.map(|f| self.walk(block, f))
    }
}

fn check_init(m: &BcModule, regions: &ModuleRegions) -> Result<(), BcVerifyError> {
    let analysis = InitAnalysis { m, regions };
    let sol = solve(&analysis, &regions.cfg);
    for (r, fact) in sol.iter().enumerate() {
        let Some(mut fact) = *fact else {
            continue; // statically unreachable and not enterable
        };
        let range = regions.range(r, m.ops.len());
        let mut effs = Vec::new();
        for (off, op) in m.ops[range.clone()].iter().enumerate() {
            effs.clear();
            effects(op, &mut effs);
            for e in &effs {
                match e {
                    Eff::R(reg) => {
                        if !fact.contains(ridx(*reg)) {
                            return Err(BcVerifyError::UninitializedRead {
                                at: (range.start + off) as u32,
                                reg: *reg,
                            });
                        }
                    }
                    Eff::W(reg) => fact.insert(ridx(*reg)),
                }
            }
        }
    }
    Ok(())
}

/// Verifies one module: region structure, static targets, cost table,
/// and definite register initialization.
pub(crate) fn verify_module(m: &BcModule) -> Result<(), BcVerifyError> {
    let regions = module_regions(m)?;
    check_init(m, &regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;
    use crate::machine_bc::prelower;

    fn clone_module(m: &BcModule) -> BcModule {
        BcModule {
            ops: m.ops.clone(),
            blocks: m.blocks.clone(),
            labels: m.labels.clone(),
        }
    }

    fn modules_of(e: &funtal_syntax::FExpr) -> Vec<BcModule> {
        prelower(e)
            .components()
            .into_iter()
            .map(|c| clone_module(c.module()))
            .collect()
    }

    #[test]
    fn accepts_every_figure() {
        for (name, e) in [
            ("fig16_f1", figures::fig16_f1()),
            ("fig16_f2", figures::fig16_f2()),
            ("fig17_fact_f", figures::fig17_fact_f()),
            ("fig17_fact_t", figures::fig17_fact_t()),
            ("fig11_jit", figures::fig11_jit()),
            ("push7", figures::push7()),
        ] {
            for (i, m) in modules_of(&e).iter().enumerate() {
                assert!(
                    verify_module(m).is_ok(),
                    "{name} module {i}: {:?}",
                    verify_module(m)
                );
            }
        }
    }

    /// Every fusable pattern re-fuses to one head that stands for all
    /// of it: its cost is the pattern's length and the pattern's total
    /// cost, so the net route charges what stepping through it does.
    #[test]
    fn cost_table_matches_expansions() {
        use funtal_syntax::ArithOp;
        let (r, ra) = (Reg::R1, Reg::Ra);
        let arith = BcOp::ArithRR {
            op: ArithOp::Add,
            rd: r,
            rs: r,
            rt: Reg::R2,
        };
        let push = [BcOp::Salloc(1), BcOp::Sst { idx: 0, rs: r }];
        let pop = [BcOp::Sld { rd: r, idx: 0 }, BcOp::Sfree(1), arith];
        let patterns: [&[BcOp]; 7] = [
            &push,
            &[
                BcOp::Salloc(1),
                BcOp::Sst { idx: 0, rs: r },
                BcOp::Jmp(BcTarget::Dyn(FastOp::Reg(Reg::R3))),
            ],
            &[
                BcOp::Sld { rd: r, idx: 2 },
                BcOp::Salloc(1),
                BcOp::Sst { idx: 0, rs: r },
            ],
            &pop,
            &[pop.as_slice(), push.as_slice()].concat(),
            &[BcOp::Sld { rd: r, idx: 1 }, BcOp::Sfree(2)],
            &[
                BcOp::Sld { rd: ra, idx: 0 },
                BcOp::Sfree(2),
                BcOp::Ret { target: ra, val: r },
            ],
        ];
        let mut kinds = HashSet::new();
        for p in patterns {
            let (head, k) = fuse(p).unwrap_or_else(|| panic!("{p:?} does not fuse"));
            assert!(head.is_head(), "{head:?}");
            assert_eq!(k, p.len(), "{head:?}");
            assert_eq!(head.fuel_cost(), k as u64, "{head:?}");
            assert_eq!(check_head(0, &head, p), Ok(()));
            kinds.insert(std::mem::discriminant(&head));
        }
        assert_eq!(kinds.len(), patterns.len(), "one pattern per head");
        // Plain ops tick once and never fuse alone; suspension points
        // charge nothing at dispatch.
        assert_eq!(BcOp::Protect.fuel_cost(), 1);
        assert_eq!(fuse(&[BcOp::Protect, BcOp::Salloc(1)]), None);
        assert_eq!(BcOp::Halt { val: r }.fuel_cost(), 0);
    }

    /// A deterministic splitmix64 for the seeded mutation sweep.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Positions of ops holding a static target.
    fn static_sites(m: &BcModule) -> Vec<usize> {
        m.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| {
                matches!(
                    op,
                    BcOp::Jmp(BcTarget::Static { .. })
                        | BcOp::Bnz {
                            t: BcTarget::Static { .. },
                            ..
                        }
                        | BcOp::Call {
                            t: BcTarget::Static { .. },
                            ..
                        }
                )
            })
            .map(|(i, _)| i)
            .collect()
    }

    fn static_target_mut(op: &mut BcOp) -> &mut BcTarget {
        match op {
            BcOp::Jmp(t) | BcOp::Bnz { t, .. } | BcOp::Call { t, .. } | BcOp::PushJmp { t, .. } => {
                t
            }
            _ => panic!("not a target op"),
        }
    }

    /// Positions of fused heads that `keep` selects.
    fn head_sites(m: &BcModule, keep: impl Fn(&BcOp) -> bool) -> Vec<usize> {
        (0..m.ops.len())
            .filter(|&i| m.ops[i].is_head() && keep(&m.ops[i]))
            .collect()
    }

    fn head_reg_mut(op: &mut BcOp) -> &mut Reg {
        match op {
            BcOp::Push { rs } | BcOp::PushJmp { rs, .. } => rs,
            BcOp::SldPush { rd, .. } | BcOp::SldSfree { rd, .. } => rd,
            BcOp::PopArith { pr, .. } | BcOp::PopArithPush { pr, .. } => pr,
            BcOp::PopRet { ra, .. } => ra,
            _ => panic!("not a head"),
        }
    }

    /// Deletes op `at` and shifts every block offset and static target
    /// behind it, so the rest of the module stays consistent.
    fn remove_op(m: &mut BcModule, at: usize) {
        m.ops.remove(at);
        let shift = |off: &mut u32| {
            if *off as usize > at {
                *off -= 1;
            }
        };
        m.blocks.iter_mut().for_each(|(off, _)| shift(off));
        for op in &mut m.ops {
            if let BcOp::Jmp(t)
            | BcOp::Bnz { t, .. }
            | BcOp::Call { t, .. }
            | BcOp::PushJmp { t, .. } = op
            {
                if let BcTarget::Static { off, .. } = t {
                    shift(off);
                }
            }
        }
    }

    /// Every seeded mutation of a valid module must be rejected, with
    /// the error class matching the mutation.
    #[test]
    fn seeded_mutations_are_rejected() {
        use funtal_compile::codegen::{compile_program, CodegenOpts};
        // Compiled code carries every head, call and return epilogues
        // (`PushJmp`, `PopRet`) included.
        let fib = compile_program(
            &funtal_compile::lang::fib_program(),
            CodegenOpts {
                tail_call_opt: false,
            },
        )
        .wrap("fib");
        let corpus: Vec<BcModule> = [
            figures::fig17_fact_t(),
            figures::fig16_f2(),
            figures::fig11_jit(),
            figures::push7(),
            fib,
        ]
        .iter()
        .flat_map(modules_of)
        .collect();
        let mut mutations = 0;
        let mut head_mutations = [0; 3];
        for seed in 0..96u64 {
            let mut rng = Rng(seed);
            let base = &corpus[rng.below(corpus.len())];
            let mut m = clone_module(base);
            match rng.below(9) {
                // Nudge a static jump offset off its block start.
                0 => {
                    let sites = static_sites(&m);
                    if sites.is_empty() {
                        continue;
                    }
                    let at = sites[rng.below(sites.len())];
                    if let BcTarget::Static { off, .. } = static_target_mut(&mut m.ops[at]) {
                        *off += 1;
                    }
                    assert!(
                        matches!(
                            verify_module(&m),
                            Err(BcVerifyError::BadStaticOffset { .. })
                        ),
                        "seed {seed}: {:?}",
                        verify_module(&m)
                    );
                }
                // Redirect a static target to a different ordinal.
                1 => {
                    let sites = static_sites(&m);
                    if sites.is_empty() || m.blocks.is_empty() {
                        continue;
                    }
                    let at = sites[rng.below(sites.len())];
                    if let BcTarget::Static { ord, .. } = static_target_mut(&mut m.ops[at]) {
                        *ord = (*ord + 1) % (m.blocks.len() as u32 + 1);
                    }
                    assert!(
                        matches!(
                            verify_module(&m),
                            Err(BcVerifyError::BadStaticOrdinal { .. })
                                | Err(BcVerifyError::BadStaticOffset { .. })
                                | Err(BcVerifyError::BadStaticArity { .. })
                        ),
                        "seed {seed}: {:?}",
                        verify_module(&m)
                    );
                }
                // Drop a region's terminator.
                2 => {
                    let regions = module_regions(&m).unwrap();
                    let r = rng.below(regions.starts.len());
                    let range = regions.range(r, m.ops.len());
                    m.ops[range.end - 1] = BcOp::Protect;
                    assert!(
                        matches!(
                            verify_module(&m),
                            Err(BcVerifyError::MissingTerminator { .. })
                        ),
                        "seed {seed}: {:?}",
                        verify_module(&m)
                    );
                }
                // Plant a terminator mid-region.
                3 => {
                    let regions = module_regions(&m).unwrap();
                    let wide: Vec<usize> = (0..regions.starts.len())
                        .filter(|&r| regions.range(r, m.ops.len()).len() >= 2)
                        .collect();
                    if wide.is_empty() {
                        continue;
                    }
                    let r = wide[rng.below(wide.len())];
                    let range = regions.range(r, m.ops.len());
                    m.ops[range.start] = BcOp::Halt { val: Reg::R1 };
                    assert!(
                        matches!(
                            verify_module(&m),
                            Err(BcVerifyError::MidRegionTerminator { .. })
                        ),
                        "seed {seed}: {:?}",
                        verify_module(&m)
                    );
                }
                // Point a block-table entry outside the stream.
                4 => {
                    let code: Vec<usize> = (0..m.blocks.len())
                        .filter(|&i| m.blocks[i].1 != NOT_CODE)
                        .collect();
                    if code.is_empty() {
                        continue;
                    }
                    let ord = code[rng.below(code.len())];
                    m.blocks[ord].0 = m.ops.len() as u32 + rng.below(7) as u32;
                    assert!(
                        matches!(
                            verify_module(&m),
                            Err(BcVerifyError::BlockOffsetOutOfRange { .. })
                        ),
                        "seed {seed}: {:?}",
                        verify_module(&m)
                    );
                }
                // Give a head a register its followers do not use.
                6 => {
                    let sites = head_sites(&m, |_| true);
                    if sites.is_empty() {
                        continue;
                    }
                    let reg = head_reg_mut(&mut m.ops[sites[rng.below(sites.len())]]);
                    *reg = if *reg == Reg::R7 { Reg::R6 } else { Reg::R7 };
                    assert!(
                        matches!(verify_module(&m), Err(BcVerifyError::BadFusedHead { .. })),
                        "seed {seed}: {:?}",
                        verify_module(&m)
                    );
                    head_mutations[0] += 1;
                }
                // Swap a head's first follower for an op that charges
                // nothing at dispatch.
                7 => {
                    let sites = head_sites(&m, |_| true);
                    if sites.is_empty() {
                        continue;
                    }
                    m.ops[sites[rng.below(sites.len())] + 1] = BcOp::Import {
                        rd: Reg::R1,
                        ty: std::sync::Arc::new(funtal_syntax::FTy::Int),
                        body: crate::intern::IExpr::from_fexpr(&funtal_syntax::build::fint_e(0)),
                    };
                    assert!(
                        matches!(verify_module(&m), Err(BcVerifyError::BadFusedCost { .. })),
                        "seed {seed}: {:?}",
                        verify_module(&m)
                    );
                    head_mutations[1] += 1;
                }
                // Remove the last follower of a head that ends its
                // region (its jump or return).
                8 => {
                    let sites = head_sites(&m, |op| {
                        matches!(op, BcOp::PushJmp { .. } | BcOp::PopRet { .. })
                    });
                    if sites.is_empty() {
                        continue;
                    }
                    let at = sites[rng.below(sites.len())];
                    let last = at + m.ops[at].fuel_cost() as usize;
                    remove_op(&mut m, last);
                    assert!(
                        matches!(verify_module(&m), Err(BcVerifyError::TruncatedHead { .. })),
                        "seed {seed}: {:?}",
                        verify_module(&m)
                    );
                    head_mutations[2] += 1;
                }
                // Dangle an `mv`'s label ordinal.
                _ => {
                    let sites: Vec<usize> = m
                        .ops
                        .iter()
                        .enumerate()
                        .filter(|(_, op)| matches!(op, BcOp::MvLbl { .. }))
                        .map(|(i, _)| i)
                        .collect();
                    if sites.is_empty() {
                        continue;
                    }
                    let at = sites[rng.below(sites.len())];
                    if let BcOp::MvLbl { ord, .. } = &mut m.ops[at] {
                        *ord = m.blocks.len() as u32 + 3;
                    }
                    assert!(
                        matches!(
                            verify_module(&m),
                            Err(BcVerifyError::BadLabelOrdinal { .. })
                        ),
                        "seed {seed}: {:?}",
                        verify_module(&m)
                    );
                }
            }
            mutations += 1;
        }
        assert!(mutations >= 40, "only {mutations} mutations exercised");
        assert!(
            head_mutations.iter().all(|&n| n > 0),
            "head mutations exercised: {head_mutations:?}"
        );
    }

    /// Reading a register the entry never wrote is flagged by the
    /// init analysis (Fig 7's empty-register-file entry).
    #[test]
    fn uninitialized_read_is_rejected() {
        let mut ms = modules_of(&figures::push7());
        let m = &mut ms[0];
        // Find the first write in the entry region and redirect a
        // later read at it.
        let mut redirected = false;
        for op in &mut m.ops {
            if let BcOp::Halt { val } = op {
                *val = Reg::R7; // push7's entry never touches r7
                redirected = true;
                break;
            }
        }
        assert!(redirected, "push7 entry has no halt");
        assert!(matches!(
            verify_module(m),
            Err(BcVerifyError::UninitializedRead { reg: Reg::R7, .. })
        ));
    }

    /// Escaping labels neutralize the init analysis for their blocks
    /// (they may be entered from unknown contexts), but the entry
    /// region is still checked from the empty file.
    #[test]
    fn entry_checked_even_with_escaping_labels() {
        let ms = modules_of(&figures::fig17_fact_t());
        for m in &ms {
            assert!(verify_module(m).is_ok());
        }
    }
}
