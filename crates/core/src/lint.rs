//! `funtal lint`: deterministic, span-attributed diagnostics over
//! source programs and their lowered bytecode.
//!
//! Six rules, three layers:
//!
//! - **source** (the F term and embedded T components):
//!   `shadowed-binder` (a lambda parameter hides an enclosing one) and
//!   `unused-heap-fragment` (a heap label no instruction or heap value
//!   ever mentions);
//! - **lowered IR** (per [`BcModule`], instantiating the worklist
//!   framework a second way — backward register liveness over basic
//!   blocks, next to the verifier's forward initialization):
//!   `dead-register-write` (a pure write no path reads),
//!   `unreachable-block` (a region neither jumped to nor escaping as
//!   data), and `constant-import` (a boundary crossing whose
//!   marshalled value is statically constant);
//! - **whole program**: `static-fuel-bound` reports the certified
//!   fuel bound when [`crate::infer_fuel`] commits to one — it runs
//!   the program on the fast machine under the static loop gate, so
//!   the bound is that machine's own fuel count and only programs
//!   that enter no looping T module get one.
//!
//! Findings are [`normalize`]d — sorted by `(file, span, rule,
//! message)` and deduplicated — so renderings are byte-stable
//! regardless of rule order or worker count.

use funtal_analysis::{normalize, solve, Analysis, BitSet, Cfg, Diagnostic, Direction, Severity};
use funtal_syntax::span::{Span, SpanTable};
use funtal_syntax::{
    FExpr, HeapVal, Instr, InstrSeq, Label, SmallVal, TComp, Terminator, VarName, WordVal,
};

use crate::bc_verify::{effects, module_regions, Eff, ModuleRegions, REG_FILE};
use crate::cost::{infer_fuel, FuelBound};
use crate::machine_bc::{BcModule, BcOp, BcTarget, LoweredProgram};
use crate::machine_fast::ridx;

/// Lints `expr` (as parsed from `file`) and its lowering `lp`,
/// returning findings in canonical order. Spans come from `spans`, the
/// table recorded when `expr` was parsed: a module's entry sequence
/// maps to `spans.root` and each block to its label's span. Lowering
/// carries no spans, so an empty [`SpanTable::new`] makes every
/// finding synthetic.
pub fn lint_program(
    file: &str,
    expr: &FExpr,
    lp: &LoweredProgram,
    spans: &SpanTable,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    shadowed_binders(file, expr, &mut Vec::new(), &mut diags);
    for c in lp.components() {
        lint_module(file, spans, &c.tcomp, c.module(), &mut diags);
    }
    if let FuelBound::Exact(n) = infer_fuel(lp) {
        diags.push(Diagnostic::new(
            file,
            Span::SYNTH,
            "static-fuel-bound",
            Severity::Note,
            format!("program has a certified static fuel bound of {n} steps"),
        ));
    }
    normalize(&mut diags);
    diags
}

// ---------------------------------------------------------------------
// Source layer
// ---------------------------------------------------------------------

/// Walks the F term (and the F expressions embedded in `import`
/// instructions) with the binder stack, flagging parameters that hide
/// an enclosing binder of the same name.
fn shadowed_binders(file: &str, e: &FExpr, scope: &mut Vec<VarName>, diags: &mut Vec<Diagnostic>) {
    match e {
        FExpr::Var(_) | FExpr::Unit | FExpr::Int(_) => {}
        FExpr::Binop { lhs, rhs, .. } => {
            shadowed_binders(file, lhs, scope, diags);
            shadowed_binders(file, rhs, scope, diags);
        }
        FExpr::If0 {
            cond,
            then_branch,
            else_branch,
        } => {
            shadowed_binders(file, cond, scope, diags);
            shadowed_binders(file, then_branch, scope, diags);
            shadowed_binders(file, else_branch, scope, diags);
        }
        FExpr::Lam(lam) => {
            let depth = scope.len();
            for (x, _) in &lam.params {
                if scope.contains(x) {
                    diags.push(Diagnostic::new(
                        file,
                        Span::SYNTH,
                        "shadowed-binder",
                        Severity::Note,
                        format!("binder `{x}` shadows an enclosing binder of the same name"),
                    ));
                }
                scope.push(x.clone());
            }
            shadowed_binders(file, &lam.body, scope, diags);
            scope.truncate(depth);
        }
        FExpr::App { func, args } => {
            shadowed_binders(file, func, scope, diags);
            for a in args {
                shadowed_binders(file, a, scope, diags);
            }
        }
        FExpr::Fold { body, .. } | FExpr::Unfold(body) | FExpr::Proj { tuple: body, .. } => {
            shadowed_binders(file, body, scope, diags);
        }
        FExpr::Tuple(es) => {
            for x in es {
                shadowed_binders(file, x, scope, diags);
            }
        }
        FExpr::Boundary { comp, .. } => {
            shadowed_comp(file, comp, scope, diags);
        }
    }
}

fn shadowed_comp(file: &str, comp: &TComp, scope: &mut Vec<VarName>, diags: &mut Vec<Diagnostic>) {
    shadowed_seq(file, &comp.seq, scope, diags);
    for hv in comp.heap.0.values() {
        if let HeapVal::Code(block) = &**hv {
            shadowed_seq(file, &block.body, scope, diags);
        }
    }
}

fn shadowed_seq(file: &str, seq: &InstrSeq, scope: &mut Vec<VarName>, diags: &mut Vec<Diagnostic>) {
    for i in &seq.instrs {
        if let Instr::Import { body, .. } = i {
            shadowed_binders(file, body, scope, diags);
        }
    }
}

/// Flags heap labels of a component that no instruction operand, jump
/// target, or other heap value ever mentions: the fragment is merged
/// at every boundary crossing but nothing can reach it.
fn unused_fragments(file: &str, spans: &SpanTable, comp: &TComp, diags: &mut Vec<Diagnostic>) {
    let mut used: Vec<&Label> = Vec::new();
    seq_labels(&comp.seq, &mut used);
    for hv in comp.heap.0.values() {
        match &**hv {
            HeapVal::Code(block) => seq_labels(&block.body, &mut used),
            HeapVal::Tuple { fields, .. } => {
                for w in fields {
                    word_labels(w, &mut used);
                }
            }
        }
    }
    for label in comp.heap.0.keys() {
        if !used.contains(&label) {
            diags.push(Diagnostic::new(
                file,
                spans.resolve(label.as_str()),
                "unused-heap-fragment",
                Severity::Warning,
                format!("heap fragment `{label}` is never referenced"),
            ));
        }
    }
}

fn seq_labels<'a>(seq: &'a InstrSeq, out: &mut Vec<&'a Label>) {
    for i in &seq.instrs {
        match i {
            Instr::Arith { src, .. }
            | Instr::Bnz { target: src, .. }
            | Instr::Mv { src, .. }
            | Instr::Unpack { src, .. }
            | Instr::Unfold { src, .. } => small_labels(src, out),
            Instr::Ld { .. }
            | Instr::St { .. }
            | Instr::Ralloc { .. }
            | Instr::Balloc { .. }
            | Instr::Salloc(_)
            | Instr::Sfree(_)
            | Instr::Sld { .. }
            | Instr::Sst { .. }
            | Instr::Protect { .. }
            | Instr::Import { .. } => {}
        }
    }
    match &seq.term {
        Terminator::Jmp(u) | Terminator::Call { target: u, .. } => small_labels(u, out),
        Terminator::Ret { .. } | Terminator::Halt { .. } => {}
    }
}

fn small_labels<'a>(u: &'a SmallVal, out: &mut Vec<&'a Label>) {
    match u {
        SmallVal::Reg(_) => {}
        SmallVal::Word(w) => word_labels(w, out),
        SmallVal::Pack { body, .. } | SmallVal::Fold { body, .. } | SmallVal::Inst { body, .. } => {
            small_labels(body, out)
        }
    }
}

fn word_labels<'a>(w: &'a WordVal, out: &mut Vec<&'a Label>) {
    match w {
        WordVal::Unit | WordVal::Int(_) => {}
        WordVal::Loc(l) => out.push(l),
        WordVal::Pack { body, .. } | WordVal::Fold { body, .. } | WordVal::Inst { body, .. } => {
            word_labels(body, out)
        }
    }
}

// ---------------------------------------------------------------------
// Lowered-IR layer
// ---------------------------------------------------------------------

/// The source span of fragment ordinal `ord` (the entry sequence for
/// `None`).
fn span_of_region(spans: &SpanTable, m: &BcModule, ord: Option<u32>) -> Span {
    match ord {
        None => spans.root,
        Some(o) => spans.resolve(m.labels[o as usize].as_str()),
    }
}

fn label_of_region(m: &BcModule, ord: Option<u32>) -> &str {
    match ord {
        None => "<entry>",
        Some(o) => m.labels[o as usize].as_ref(),
    }
}

fn lint_module(
    file: &str,
    spans: &SpanTable,
    comp: &TComp,
    m: &BcModule,
    diags: &mut Vec<Diagnostic>,
) {
    let regions = match module_regions(m) {
        Ok(r) => r,
        Err(e) => {
            // The lowerer never produces this (the prelower hook
            // panics first under debug assertions), but a cached or
            // hand-built module could.
            diags.push(Diagnostic::new(
                file,
                spans.root,
                "verifier",
                Severity::Error,
                format!("module rejected by the bytecode verifier: {e}"),
            ));
            return;
        }
    };

    unused_fragments(file, spans, comp, diags);
    unreachable_blocks(file, spans, m, &regions, diags);
    dead_register_writes(file, spans, m, &regions, diags);
    constant_imports(file, spans, m, &regions, diags);
}

/// Regions with no path from the entry or any enterable block, over
/// the verifier's region CFG.
fn unreachable_blocks(
    file: &str,
    spans: &SpanTable,
    m: &BcModule,
    regions: &ModuleRegions,
    diags: &mut Vec<Diagnostic>,
) {
    let roots: Vec<usize> = enterable_roots(regions);
    let reach = regions.cfg.reachable_from(&roots);
    for (r, ok) in reach.iter().enumerate() {
        if !ok {
            let ord = regions.region_ord[r];
            diags.push(Diagnostic::new(
                file,
                span_of_region(spans, m, ord),
                "unreachable-block",
                Severity::Warning,
                format!(
                    "code block `{}` is unreachable: no jump targets it and its label never \
                     escapes as data",
                    label_of_region(m, ord)
                ),
            ));
        }
    }
}

fn enterable_roots(regions: &ModuleRegions) -> Vec<usize> {
    (0..regions.enterable.len())
        .filter(|&r| regions.enterable[r])
        .collect()
}

/// `import` ops whose F body is a literal: the boundary crossing
/// marshals a statically constant value every time it executes.
fn constant_imports(
    file: &str,
    spans: &SpanTable,
    m: &BcModule,
    regions: &ModuleRegions,
    diags: &mut Vec<Diagnostic>,
) {
    use crate::intern::IKind;
    for r in 0..regions.cfg.node_count() {
        let range = regions.range(r, m.ops.len());
        for (off, op) in m.ops[range.clone()].iter().enumerate() {
            if let BcOp::Import { body, .. } = op {
                let constant = match body.kind() {
                    IKind::Int(n) => Some(n.to_string()),
                    IKind::Unit => Some("()".to_string()),
                    _ => None,
                };
                if let Some(c) = constant {
                    let ord = regions.region_ord[r];
                    diags.push(Diagnostic::new(
                        file,
                        span_of_region(spans, m, ord),
                        "constant-import",
                        Severity::Note,
                        format!(
                            "import at op {} of `{}` marshals the constant {c} across the \
                             boundary on every execution",
                            range.start + off,
                            label_of_region(m, ord)
                        ),
                    ));
                }
            }
        }
    }
}

// --- backward register liveness over basic blocks --------------------

/// A basic block for liveness: a maximal straight-line op range. Ops
/// with static targets can only be the last op of a block (`bnz` opens
/// a new block after itself; every other transfer terminates its
/// region), so facts merge only at block edges.
struct LiveBlocks {
    /// Per block: op range plus owning region.
    blocks: Vec<(std::ops::Range<usize>, usize)>,
    cfg: Cfg,
    /// Per block: live-at-exit registers forced by a dynamic transfer
    /// (`ret`/`call`/`jmp` through a register: the continuation is
    /// unknown, assume everything is read). `None` for static exits.
    boundary: Vec<Option<BitSet>>,
}

fn live_blocks(m: &BcModule, regions: &ModuleRegions) -> LiveBlocks {
    let n_regions = regions.cfg.node_count();
    let mut blocks: Vec<(std::ops::Range<usize>, usize)> = Vec::new();
    let mut block_at: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for r in 0..n_regions {
        let range = regions.range(r, m.ops.len());
        let mut start = range.start;
        for at in range.clone() {
            // `bnz` is the only non-terminator with a control edge:
            // close the block after it.
            let closes = matches!(m.ops[at], BcOp::Bnz { .. }) || at + 1 == range.end;
            if closes {
                block_at.insert(start, blocks.len());
                blocks.push((start..at + 1, r));
                start = at + 1;
            }
        }
    }

    let region_start_block = |r: usize| block_at[&(regions.starts[r] as usize)];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut boundary: Vec<Option<BitSet>> = vec![None; blocks.len()];
    for (b, (range, _)) in blocks.iter().enumerate() {
        let last = &m.ops[range.end - 1];
        let static_edge = |t: &BcTarget, edges: &mut Vec<(usize, usize)>| -> bool {
            if let BcTarget::Static { ord, .. } = t {
                let tr = (0..n_regions)
                    .find(|&r| regions.region_ord[r] == Some(*ord))
                    .expect("verified static ordinal");
                edges.push((b, region_start_block(tr)));
                true
            } else {
                false
            }
        };
        match last {
            BcOp::Bnz { t, .. } => {
                if !static_edge(t, &mut edges) {
                    boundary[b] = Some(BitSet::full(REG_FILE));
                }
                // Fall through into the next block of the same region.
                edges.push((b, b + 1));
            }
            BcOp::Jmp(t) | BcOp::Call { t, .. } => {
                if !static_edge(t, &mut edges) {
                    boundary[b] = Some(BitSet::full(REG_FILE));
                }
            }
            BcOp::Ret { .. } => {
                boundary[b] = Some(BitSet::full(REG_FILE));
            }
            // `halt` reads its value register (an ordinary effect) and
            // nothing executes after it: live-out is empty.
            BcOp::Halt { .. } => {}
            // Region ends without a terminator cannot happen (verified);
            // any other last op means the region continues — impossible
            // since only `bnz` closes a block mid-region.
            _ => unreachable!("block ends in a non-transfer op"),
        }
    }

    LiveBlocks {
        cfg: Cfg::new(blocks.len(), 0, edges),
        blocks,
        boundary,
    }
}

struct Liveness<'a> {
    m: &'a BcModule,
    lb: &'a LiveBlocks,
}

impl Liveness<'_> {
    /// live-in = gen ∪ (live-out ∖ kill), applied op by op in reverse.
    fn walk(&self, b: usize, fact: BitSet) -> BitSet {
        let mut live = fact;
        let mut effs = Vec::new();
        for op in self.m.ops[self.lb.blocks[b].0.clone()].iter().rev() {
            effs.clear();
            effects(op, &mut effs);
            for e in effs.iter().rev() {
                match e {
                    Eff::W(r) => live.remove(ridx(*r)),
                    Eff::R(r) => live.insert(ridx(*r)),
                }
            }
        }
        live
    }
}

impl Analysis for Liveness<'_> {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn init_fact(&self) -> BitSet {
        BitSet::EMPTY
    }

    fn boundary_fact(&self, b: usize) -> Option<BitSet> {
        self.lb.boundary[b]
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        let next = into.union(*from);
        let changed = next != *into;
        *into = next;
        changed
    }

    fn transfer(&self, block: usize, fact: &BitSet) -> BitSet {
        self.walk(block, *fact)
    }
}

/// True for ops worth flagging when their write is dead: register
/// moves and arithmetic with no memory, stack, or control effect.
fn pure_write(op: &BcOp) -> bool {
    matches!(
        op,
        BcOp::ArithRR { .. }
            | BcOp::ArithRI { .. }
            | BcOp::MvInt { .. }
            | BcOp::MvUnit { .. }
            | BcOp::MvReg { .. }
            | BcOp::MvLbl { .. }
            | BcOp::MvWord { .. }
    )
}

fn dead_register_writes(
    file: &str,
    spans: &SpanTable,
    m: &BcModule,
    regions: &ModuleRegions,
    diags: &mut Vec<Diagnostic>,
) {
    let lb = live_blocks(m, regions);
    let analysis = Liveness { m, lb: &lb };
    let sol = solve(&analysis, &lb.cfg);

    // Report only inside blocks the machine can actually reach —
    // unreachable ones already get their own diagnostic, and their
    // all-empty live sets would flag every write.
    let region_reach = regions.cfg.reachable_from(&enterable_roots(regions));
    let mut effs = Vec::new();
    for (b, (range, r)) in lb.blocks.iter().enumerate() {
        if !region_reach[*r] {
            continue;
        }
        // `inputs` of a backward problem are block-exit facts.
        let mut live = sol.inputs[b];
        if let Some(bf) = lb.boundary[b] {
            live = live.union(bf);
        }
        for (off, op) in m.ops[range.clone()].iter().enumerate().rev() {
            effs.clear();
            effects(op, &mut effs);
            for e in effs.iter().rev() {
                match e {
                    Eff::W(reg) => {
                        if !live.contains(ridx(*reg)) && pure_write(op) {
                            let ord = regions.region_ord[*r];
                            diags.push(Diagnostic::new(
                                file,
                                span_of_region(spans, m, ord),
                                "dead-register-write",
                                Severity::Warning,
                                format!(
                                    "write to {reg} at op {} of `{}` is never read",
                                    range.start + off,
                                    label_of_region(m, ord)
                                ),
                            ));
                        }
                        live.remove(ridx(*reg));
                    }
                    Eff::R(reg) => live.insert(ridx(*reg)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_bc::prelower;
    use funtal_syntax::build::*;

    fn lint(e: &FExpr) -> Vec<Diagnostic> {
        lint_program("test.ft", e, &prelower(e), &SpanTable::new())
    }

    fn rules(diags: &[Diagnostic], rule: &str) -> usize {
        diags.iter().filter(|d| d.rule == rule).count()
    }

    #[test]
    fn shadowed_binder_is_reported() {
        let e = lam(vec![("x", fint())], lam(vec![("x", fint())], var("x")));
        let diags = lint(&e);
        assert_eq!(rules(&diags, "shadowed-binder"), 1);
        assert!(diags
            .iter()
            .all(|d| d.severity != Severity::Warning && d.severity != Severity::Error));
    }

    #[test]
    fn dead_register_write_is_reported() {
        // `mv r1, 5` is clobbered by `mv r1, 7` before any read.
        let e = boundary(
            fint(),
            tcomp(
                seq(
                    vec![mv(r1(), int_v(5)), mv(r1(), int_v(7))],
                    halt(int(), nil(), r1()),
                ),
                vec![],
            ),
        );
        let diags = lint(&e);
        assert_eq!(rules(&diags, "dead-register-write"), 1);
        assert!(diags[0].message.contains("op 0"), "{:?}", diags);
    }

    #[test]
    fn live_write_is_not_reported() {
        let e = boundary(
            fint(),
            tcomp(
                seq(vec![mv(r1(), int_v(7))], halt(int(), nil(), r1())),
                vec![],
            ),
        );
        assert_eq!(rules(&lint(&e), "dead-register-write"), 0);
    }

    /// A component whose block `ldead` nothing jumps to and whose
    /// label never escapes.
    fn dead_block_program() -> FExpr {
        let dead = code_block(
            vec![d_stk("z")],
            chi([(r1(), int())]),
            zvar("z"),
            q_end(int(), zvar("z")),
            seq(vec![], halt(int(), zvar("z"), r1())),
        );
        boundary(
            fint(),
            tcomp(
                seq(vec![mv(r1(), int_v(1))], halt(int(), nil(), r1())),
                vec![("ldead", dead)],
            ),
        )
    }

    /// A table as the parser would record it for [`dead_block_program`].
    fn dead_block_spans() -> SpanTable {
        let mut spans = SpanTable::new();
        spans.root = Span::new(1, 1, 9, 2);
        spans.record("ldead", Span::new(4, 3, 8, 30));
        spans
    }

    #[test]
    fn unreachable_and_unused_fragment_are_reported() {
        let diags = lint(&dead_block_program());
        assert_eq!(rules(&diags, "unreachable-block"), 1);
        assert_eq!(rules(&diags, "unused-heap-fragment"), 1);
    }

    #[test]
    fn findings_take_their_spans_from_the_table() {
        let e = dead_block_program();
        let lp = prelower(&e);
        let spans_of = |table: &SpanTable| -> Vec<(String, Span)> {
            lint_program("test.ft", &e, &lp, table)
                .into_iter()
                .filter(|d| d.rule == "unreachable-block" || d.rule == "unused-heap-fragment")
                .map(|d| (d.rule, d.span))
                .collect()
        };
        let recorded = Span::new(4, 3, 8, 30);
        assert_eq!(
            spans_of(&dead_block_spans()),
            vec![
                ("unreachable-block".to_string(), recorded),
                ("unused-heap-fragment".to_string(), recorded),
            ]
        );
        let synthetic = spans_of(&SpanTable::new());
        assert_eq!(synthetic.len(), 2);
        assert!(synthetic.iter().all(|(_, span)| span.is_synth()));
    }

    #[test]
    fn rejected_module_is_reported_at_the_root_span() {
        let e = dead_block_program();
        let lp = prelower(&e);
        // Point `ldead`'s block past the end of the op stream, as the
        // verifier's offset mutations do.
        let m = lp.components()[0].module();
        let mut blocks = m.blocks.clone();
        blocks[0].0 = m.ops.len() as u32;
        let tampered = LoweredProgram::intern(&e);
        let crate::intern::IKind::Boundary { comp, .. } = tampered.iexpr.kind() else {
            unreachable!("the program is one boundary")
        };
        let module = BcModule {
            ops: m.ops.clone(),
            blocks,
            labels: m.labels.clone(),
        };
        assert!(comp.module.set(std::sync::Arc::new(module)).is_ok());
        assert!(crate::verify_lowered(&tampered).is_err());
        let spans = dead_block_spans();
        let diags = lint_program("test.ft", &e, &tampered, &spans);
        let verifier: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "verifier").collect();
        assert_eq!(verifier.len(), 1, "{diags:?}");
        assert_eq!(verifier[0].span, spans.root);
        assert_eq!(verifier[0].severity, Severity::Error);
        // A rejected module gets no IR-layer findings.
        assert_eq!(rules(&diags, "unreachable-block"), 0);
    }

    #[test]
    fn constant_import_is_reported() {
        let e = boundary(
            fint(),
            tcomp(
                seq(
                    vec![import(r1(), "z", nil(), fint(), fint_e(3))],
                    halt(int(), nil(), r1()),
                ),
                vec![],
            ),
        );
        let diags = lint(&e);
        assert_eq!(rules(&diags, "constant-import"), 1);
    }

    #[test]
    fn figures_lint_deterministically() {
        let figs: Vec<(&str, FExpr)> = vec![
            ("fig16_f1", crate::figures::fig16_f1()),
            ("fig16_f2", crate::figures::fig16_f2()),
            ("factF", crate::figures::fig17_fact_f()),
            ("factT", crate::figures::fig17_fact_t()),
            ("fig11_jit", crate::figures::fig11_jit()),
            ("push7", crate::figures::push7()),
        ];
        for (name, e) in figs {
            let a = lint(&e);
            let b = lint(&e);
            assert_eq!(a, b, "{name}: lint output is not deterministic");
            // The paper's own figures are lint-clean at warning level:
            // every register write is read and every fragment used.
            for d in &a {
                assert!(
                    d.severity < Severity::Warning,
                    "{name}: unexpected {} finding: {}",
                    d.severity,
                    d.message
                );
            }
        }
    }
}
