//! Source spans and the label → span side table.
//!
//! The profiler (`funtal profile`) attributes machine steps to source
//! regions. Spans deliberately live **beside** the AST rather than in
//! it: the syntax trees derive structural `PartialEq` (differential
//! tests, alpha-equivalence, roundtrip properties all compare terms),
//! and the fast machine's interned terms (`funtal`'s `intern::IExpr`)
//! share subterms behind `Arc` — a span field inside the tree would
//! either break term equality or be lost at the first shared node. A [`SpanTable`] keyed by heap label
//! survives both: labels are stable across interning, `Arc` sharing,
//! and machine-side heap merging (fresh labels get a `$n` suffix that
//! [`SpanTable::resolve`] strips — `$` is rejected by the lexer, so a
//! renamed label can never collide with a source one).
//!
//! Generated or translated code that has no source region — compiler
//! wrappers, value translations, machine-synthesized blocks — maps to
//! the distinguished [`Span::SYNTH`] span.

use std::collections::BTreeMap;
use std::fmt;

/// A half-open source region in 1-based (line, column) coordinates.
///
/// Columns count **characters**, not bytes (the lexer decodes UTF-8),
/// so positions stay aligned with what an editor shows even after
/// non-ASCII comments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// 1-based start line.
    pub line: u32,
    /// 1-based start column (characters).
    pub col: u32,
    /// 1-based end line (inclusive).
    pub end_line: u32,
    /// 1-based end column (exclusive).
    pub end_col: u32,
}

impl Span {
    /// The span of generated/translated code with no source region.
    /// All-zero coordinates are unreachable for real spans (positions
    /// are 1-based), so this is a safe sentinel.
    pub const SYNTH: Span = Span {
        line: 0,
        col: 0,
        end_line: 0,
        end_col: 0,
    };

    /// A span from a start position to an end position.
    pub fn new(line: u32, col: u32, end_line: u32, end_col: u32) -> Span {
        Span {
            line,
            col,
            end_line,
            end_col,
        }
    }

    /// A zero-width span at a single position.
    pub fn at(line: u32, col: u32) -> Span {
        Span::new(line, col, line, col)
    }

    /// True for the synthetic-code sentinel.
    pub fn is_synth(&self) -> bool {
        *self == Span::SYNTH
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_synth() {
            f.write_str("<synthetic>")
        } else if (self.line, self.col) == (self.end_line, self.end_col) {
            write!(f, "{}:{}", self.line, self.col)
        } else {
            write!(
                f,
                "{}:{}-{}:{}",
                self.line, self.col, self.end_line, self.end_col
            )
        }
    }
}

/// Source spans for one parsed program: the whole program's region
/// plus a span per heap label (every T code block and tuple the source
/// declares, and — for compiled MiniF — every generated block, mapped
/// to its defining function by the driver).
///
/// Deterministically ordered (`BTreeMap`) so renderings derived from a
/// table are byte-stable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTable {
    /// The whole program's span.
    pub root: Span,
    /// Label name → source span.
    pub labels: BTreeMap<String, Span>,
}

impl SpanTable {
    /// An empty table (root and every lookup resolve to
    /// [`Span::SYNTH`]).
    pub fn new() -> SpanTable {
        SpanTable {
            root: Span::SYNTH,
            labels: BTreeMap::new(),
        }
    }

    /// Records a label's span (last write wins, matching heap-fragment
    /// shadowing).
    pub fn record(&mut self, label: impl Into<String>, span: Span) {
        self.labels.insert(label.into(), span);
    }

    /// The span for a (possibly machine-renamed) label: exact match
    /// first, then with a trailing `$n` freshness suffix stripped.
    /// Unknown labels are synthetic.
    pub fn resolve(&self, label: &str) -> Span {
        if let Some(s) = self.labels.get(label) {
            return *s;
        }
        self.labels
            .get(base_label(label))
            .copied()
            .unwrap_or(Span::SYNTH)
    }
}

/// Strips a machine-freshness suffix (`$n`, n all digits) from a label
/// name. Source labels cannot contain `$` (the lexer rejects it), so
/// this is unambiguous.
pub fn base_label(label: &str) -> &str {
    match label.rfind('$') {
        Some(i) if label[i + 1..].bytes().all(|b| b.is_ascii_digit()) => &label[..i],
        _ => label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_is_distinguished() {
        assert!(Span::SYNTH.is_synth());
        assert!(!Span::at(1, 1).is_synth());
        assert_eq!(Span::SYNTH.to_string(), "<synthetic>");
        assert_eq!(Span::new(1, 2, 3, 4).to_string(), "1:2-3:4");
        assert_eq!(Span::at(5, 9).to_string(), "5:9");
    }

    #[test]
    fn resolve_strips_freshness_suffixes() {
        let mut t = SpanTable::new();
        t.record("loop", Span::at(3, 7));
        assert_eq!(t.resolve("loop"), Span::at(3, 7));
        assert_eq!(t.resolve("loop$2"), Span::at(3, 7));
        assert_eq!(t.resolve("loop$17"), Span::at(3, 7));
        // Not a freshness suffix: `$` followed by non-digits.
        assert_eq!(t.resolve("loop$x"), Span::SYNTH);
        assert_eq!(t.resolve("other"), Span::SYNTH);
    }

    #[test]
    fn exact_match_beats_suffix_strip() {
        let mut t = SpanTable::new();
        t.record("f", Span::at(1, 1));
        t.record("f$1", Span::at(9, 9));
        assert_eq!(t.resolve("f$1"), Span::at(9, 9));
        assert_eq!(t.resolve("f$2"), Span::at(1, 1));
    }
}
