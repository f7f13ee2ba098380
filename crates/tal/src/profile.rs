//! Span-attributed fuel profiling.
//!
//! The [`Profiler`] is a [`Tracer`] that charges every fuel tick to the
//! source span responsible for it, using the charging invariant shared
//! by both machines (the Fig 8 oracle and the fast machine):
//!
//! > every fuel tick is accompanied by **exactly one** charging event —
//! > `Instr`, `FStep`, `FBeta`, `Jmp`, `Call`, `Ret`, `Halt`,
//! > `BoundaryEnter`, `BoundaryExit`, or `ImportExit`.
//!
//! (`BnzTaken` rides along with the `Instr` of the same tick, and
//! `ImportEnter` is never emitted; neither charges.)  Because the two
//! machines are proven to emit byte-identical event streams, the
//! profile they induce is byte-identical too — the certification test in the
//! driver pins this.
//!
//! Attribution is structural: the profiler maintains a frame stack that
//! mirrors the machine's language nesting (F under `import`, T under a
//! boundary), names each frame after the label or pseudo-label it is
//! executing (`<main>`, `<import>`, `<boundary>`, or a heap label with
//! its freshening suffix stripped), and resolves names to source spans
//! through a [`SpanTable`] recorded at parse time.

use std::collections::BTreeMap;
use std::sync::Arc;

use funtal_syntax::span::{base_label, Span, SpanTable};

use crate::trace::{CountTracer, Event, Tracer};

/// Pseudo-frame for the top-level F expression.
const MAIN: &str = "<main>";
/// Pseudo-frame for F code running under an `import`.
const IMPORT: &str = "<import>";
/// Pseudo-frame for T code before its first labelled block.
const BOUNDARY: &str = "<boundary>";

/// Which language the profiled program starts in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RootLang {
    /// An F expression (the usual `funtal run` entry point).
    F,
    /// A bare T component (`run_program`).
    T,
}

/// One row of the rendered profile.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileEntry {
    /// Frame name: a heap label base or one of the `<...>` pseudo-names.
    pub name: String,
    /// Resolved source region (synthetic for generated code).
    pub span: Span,
    /// Fuel ticks charged to this name.
    pub ticks: u64,
}

/// A frame of the attribution stack.
#[derive(Clone, Debug)]
enum FrameKind {
    /// F code: either `<main>` or `<import>`.
    F { name: &'static str },
    /// T code: the base name of the block being executed, or `None`
    /// before the first labelled block (shown as `<boundary>`).
    T { current: Option<String> },
}

impl FrameKind {
    fn name(&self) -> &str {
        match self {
            FrameKind::F { name } => name,
            FrameKind::T { current } => current.as_deref().unwrap_or(BOUNDARY),
        }
    }
}

/// A [`Tracer`] that buckets fuel ticks by source span.
///
/// Also embeds a [`CountTracer`] (`counts`) so a profiled run yields
/// the ordinary step-count report in the same pass.
#[derive(Clone, Debug)]
pub struct Profiler {
    table: Arc<SpanTable>,
    stack: Vec<FrameKind>,
    buckets: BTreeMap<String, u64>,
    folded: BTreeMap<String, u64>,
    total: u64,
    /// Ordinary event counts, updated alongside attribution.
    pub counts: CountTracer,
    /// `τFT` boundary entries observed (including empty-heap entries
    /// detected structurally rather than via an event).
    pub boundary_enters: u64,
    /// `τFT` boundary exits observed.
    pub boundary_exits: u64,
    /// `import` entries observed (structurally: first F step under T).
    pub import_enters: u64,
    /// `import` exits observed.
    pub import_exits: u64,
}

impl Profiler {
    /// A profiler over `table`, rooted in `root`.
    pub fn new(table: Arc<SpanTable>, root: RootLang) -> Self {
        let root_frame = match root {
            RootLang::F => FrameKind::F { name: MAIN },
            RootLang::T => FrameKind::T { current: None },
        };
        Profiler {
            table,
            stack: vec![root_frame],
            buckets: BTreeMap::new(),
            folded: BTreeMap::new(),
            total: 0,
            counts: CountTracer::new(),
            boundary_enters: 0,
            boundary_exits: 0,
            import_enters: 0,
            import_exits: 0,
        }
    }

    /// Total fuel ticks attributed. Equals the minimal sufficient fuel
    /// of the run (certified by the driver's differential tests).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Resolves a frame name to a source span.
    fn span_of(&self, name: &str) -> Span {
        match name {
            MAIN => self.table.root,
            IMPORT | BOUNDARY => Span::SYNTH,
            label => self.table.resolve(label),
        }
    }

    /// Rows sorted hottest-first (ticks descending, then name).
    pub fn entries(&self) -> Vec<ProfileEntry> {
        let mut rows: Vec<ProfileEntry> = self
            .buckets
            .iter()
            .map(|(name, &ticks)| ProfileEntry {
                name: name.clone(),
                span: self.span_of(name),
                ticks,
            })
            .collect();
        rows.sort_by(|a, b| b.ticks.cmp(&a.ticks).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Flamegraph-style folded stack lines (`path count`), sorted.
    ///
    /// Paths are frame names joined with `;`, outermost first.
    pub fn folded_lines(&self) -> Vec<String> {
        self.folded
            .iter()
            .map(|(path, ticks)| format!("{path} {ticks}"))
            .collect()
    }

    /// The folded lines as one newline-terminated string.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for line in self.folded_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The human-readable hot-span table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("profile: {} ticks total\n", self.total));
        out.push_str("  ticks      %  where         source\n");
        for row in self.entries() {
            // Integer-only percentage ("xx.x") keeps rendering
            // byte-identical across platforms.
            let permille = (row.ticks * 1000).checked_div(self.total).unwrap_or(0);
            out.push_str(&format!(
                "  {:>5}  {:>3}.{}  {:<12}  {}\n",
                row.ticks,
                permille / 10,
                permille % 10,
                row.name,
                row.span,
            ));
        }
        out.push_str(&format!(
            "  crossings: {} boundary in, {} out; {} import in, {} out\n",
            self.boundary_enters, self.boundary_exits, self.import_enters, self.import_exits,
        ));
        out
    }

    /// Charges one tick to the frame on top of the stack.
    fn charge(&mut self) {
        let name = self
            .stack
            .last()
            .expect("non-empty stack")
            .name()
            .to_owned();
        self.total += 1;
        *self.buckets.entry(name).or_insert(0) += 1;
        let path: Vec<&str> = self.stack.iter().map(FrameKind::name).collect();
        *self.folded.entry(path.join(";")).or_insert(0) += 1;
    }

    /// If F is on top, enter T (an empty-heap boundary emits no event,
    /// so the first T tick is where the crossing becomes visible).
    fn ensure_t(&mut self) {
        if matches!(self.stack.last(), Some(FrameKind::F { .. })) {
            self.stack.push(FrameKind::T { current: None });
            self.boundary_enters += 1;
        }
    }

    /// If T is on top, enter F (an `import` emits no entry event, so
    /// the first F tick is where the crossing becomes visible).
    fn ensure_f(&mut self) {
        if matches!(self.stack.last(), Some(FrameKind::T { .. })) {
            self.stack.push(FrameKind::F { name: IMPORT });
            self.import_enters += 1;
        }
    }

    /// Points the top T frame at the block `to`, stripping the
    /// machine's freshening suffix so all instances of a block
    /// aggregate into one bucket.
    fn set_current(&mut self, to: &funtal_syntax::Label) {
        if let Some(FrameKind::T { current }) = self.stack.last_mut() {
            *current = Some(base_label(to.as_str()).to_owned());
        }
    }
}

impl Tracer for Profiler {
    fn event(&mut self, e: &Event) {
        self.counts.event(e);
        match e {
            Event::Instr | Event::Halt { .. } => {
                self.ensure_t();
                self.charge();
            }
            Event::Jmp { to } | Event::Call { to } | Event::Ret { to, .. } => {
                self.ensure_t();
                self.charge();
                let to = to.clone();
                self.set_current(&to);
            }
            Event::BnzTaken { to } => {
                // Rides on the `Instr` of the same tick: redirect, but
                // do not charge twice.
                self.ensure_t();
                let to = to.clone();
                self.set_current(&to);
            }
            Event::FStep | Event::FBeta => {
                self.ensure_f();
                self.charge();
            }
            Event::BoundaryEnter { .. } => {
                // The heap-merge step of a non-empty boundary: one tick,
                // charged to the new (not-yet-labelled) T frame.
                self.ensure_f();
                self.stack.push(FrameKind::T { current: None });
                self.boundary_enters += 1;
                self.charge();
            }
            Event::BoundaryExit { .. } => {
                if matches!(self.stack.last(), Some(FrameKind::T { .. })) {
                    self.charge();
                    self.stack.pop();
                    self.boundary_exits += 1;
                } else {
                    // Empty-heap boundary over an immediate halt value:
                    // no T tick ever surfaced, so the frame is
                    // transient — enter and exit within this one tick.
                    self.stack.push(FrameKind::T { current: None });
                    self.boundary_enters += 1;
                    self.charge();
                    self.stack.pop();
                    self.boundary_exits += 1;
                }
            }
            Event::ImportExit { .. } => {
                if matches!(self.stack.last(), Some(FrameKind::F { name }) if *name == IMPORT) {
                    self.charge();
                    self.stack.pop();
                    self.import_exits += 1;
                } else {
                    // Import of an expression that was already a value:
                    // zero F steps, so the frame is transient.
                    self.stack.push(FrameKind::F { name: IMPORT });
                    self.import_enters += 1;
                    self.charge();
                    self.stack.pop();
                    self.import_exits += 1;
                }
            }
            Event::ImportEnter => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funtal_syntax::{FTy, Label, Reg};

    fn table() -> Arc<SpanTable> {
        let mut t = SpanTable::new();
        t.root = Span::new(1, 1, 3, 10);
        t.record("fact", Span::new(2, 3, 2, 40));
        Arc::new(t)
    }

    #[test]
    fn attribution_sums_to_total() {
        let mut p = Profiler::new(table(), RootLang::F);
        p.event(&Event::FStep);
        p.event(&Event::BoundaryEnter { ty: FTy::Int });
        p.event(&Event::Jmp {
            to: Label::new("fact$2"),
        });
        p.event(&Event::Instr);
        p.event(&Event::Instr);
        p.event(&Event::Halt { reg: Reg::R1 });
        assert_eq!(p.total(), 6);
        let sum: u64 = p.entries().iter().map(|r| r.ticks).sum();
        assert_eq!(sum, p.total());
        let folded_sum: u64 = p
            .folded_lines()
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(folded_sum, p.total());
    }

    #[test]
    fn freshened_labels_fold_into_one_bucket() {
        let mut p = Profiler::new(table(), RootLang::F);
        p.event(&Event::BoundaryEnter { ty: FTy::Int });
        p.event(&Event::Jmp {
            to: Label::new("fact$7"),
        });
        p.event(&Event::Jmp {
            to: Label::new("fact$9"),
        });
        let rows = p.entries();
        let fact: Vec<_> = rows.iter().filter(|r| r.name == "fact").collect();
        assert_eq!(fact.len(), 1);
        assert_eq!(fact[0].span, Span::new(2, 3, 2, 40));
    }

    #[test]
    fn empty_heap_boundary_is_detected_structurally() {
        let mut p = Profiler::new(table(), RootLang::F);
        // No BoundaryEnter event (empty heap): the first Instr implies
        // the crossing.
        p.event(&Event::Instr);
        p.event(&Event::Halt { reg: Reg::R1 });
        assert_eq!(p.boundary_enters, 1);
        assert_eq!(p.total(), 2);
        assert_eq!(p.entries()[0].name, BOUNDARY);
    }

    #[test]
    fn transient_import_of_a_value_balances_counters() {
        let mut p = Profiler::new(table(), RootLang::F);
        p.event(&Event::BoundaryEnter { ty: FTy::Int });
        p.event(&Event::ImportExit { rd: Reg::R3 });
        assert_eq!(p.import_enters, 1);
        assert_eq!(p.import_exits, 1);
        assert_eq!(p.total(), 2);
    }

    #[test]
    fn table_rendering_is_deterministic_and_integer_math() {
        let mut p = Profiler::new(table(), RootLang::F);
        p.event(&Event::FStep);
        p.event(&Event::FStep);
        p.event(&Event::FStep);
        let t = p.render_table();
        assert!(t.starts_with("profile: 3 ticks total\n"));
        assert!(t.contains("100.0"));
        assert!(t.contains("<main>"));
    }
}
