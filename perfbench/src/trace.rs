//! The span recorder behind the traced run.
//!
//! Spans are opened around the calls into each layer, kept in memory,
//! and reduced (or written out) only after the timed loop has ended.
//! A layer's self time is its span's duration minus the time its
//! direct children cover; spans on one thread nest, so the children's
//! durations sum to exactly that covered time.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The module a span charges its time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The job as a whole (`Batch::run_job` plus the protocol); its
    /// self time is what no other layer covers.
    Batch,
    /// `Json::parse` + `Job::from_json`, and the result rendering.
    Json,
    /// `ArtifactCache` probes, inserts, verify-on-hit and the store.
    Cache,
    /// `Pipeline::parse_spanned` and `minif::parse_minif`.
    Parser,
    /// `Pipeline::check`.
    Check,
    /// `compile_program` + `Compiled::wrap`.
    Compile,
    /// `funtal::prelower`.
    Lower,
    /// `run_prechecked` / `run_prelowered`.
    Eval,
}

impl Layer {
    /// Every layer.
    #[cfg(test)]
    pub const ALL: [Layer; 8] = [
        Layer::Json,
        Layer::Batch,
        Layer::Cache,
        Layer::Parser,
        Layer::Check,
        Layer::Compile,
        Layer::Lower,
        Layer::Eval,
    ];

    /// The metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Batch => "batch",
            Layer::Json => "json",
            Layer::Cache => "cache",
            Layer::Parser => "parser",
            Layer::Check => "check",
            Layer::Compile => "compile",
            Layer::Lower => "lower",
            Layer::Eval => "eval",
        }
    }
}

/// What a span's work turned out to be, for splits within a layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tag {
    /// No split.
    #[default]
    Plain,
    /// A cache lookup the disk tier answered.
    DiskHit,
    /// A cache lookup that computed its artifact and wrote it through.
    Wrote,
    /// Evaluation on the environment tier.
    Env,
    /// Evaluation on the bytecode tier.
    Bytecode,
}

/// One recorded span. Times are nanoseconds since the recorder began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub layer: Layer,
    pub tag: Tag,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    job: Cell<u32>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            job: Cell::new(0),
        }
    }

    /// Sets the job id stamped on the spans opened from now on.
    pub fn set_job(&self, job: u32) {
        self.job.set(job);
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.span_tagged(layer, f, |_| Tag::Plain)
    }

    /// Runs `f` inside a span of `layer`, tagging the span from `f`'s
    /// result once it has closed.
    pub fn span_tagged<R>(
        &self,
        layer: Layer,
        f: impl FnOnce() -> R,
        tag: impl FnOnce(&R) -> Tag,
    ) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                layer,
                tag: Tag::Plain,
                start_ns: 0,
                end_ns: 0,
                parent: open.last().copied(),
                job: self.job.get(),
            });
            let index = spans.len() - 1;
            open.push(index);
            spans[index].start_ns = self.now_ns();
            index
        };
        let result = f();
        let end_ns = self.now_ns();
        let tag = tag(&result);
        let mut spans = self.spans.borrow_mut();
        spans[index].end_ns = end_ns;
        spans[index].tag = tag;
        self.open.borrow_mut().pop();
        result
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Each span's self time: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            covered[p] += span.duration();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

/// Self time and span count per `(layer, tag)`, plus the total time
/// of the root spans (one per job).
#[derive(Debug, Default)]
pub struct Totals {
    by: BTreeMap<(Layer, Tag), (u64, u64)>,
    pub root_ns: u64,
    pub roots: u64,
}

impl Totals {
    #[cfg(test)]
    pub fn from_spans(spans: &[Span]) -> Totals {
        let mut t = Totals::default();
        t.add(spans);
        t
    }

    pub fn add(&mut self, spans: &[Span]) {
        for (span, self_ns) in spans.iter().zip(self_times(spans)) {
            let e = self.by.entry((span.layer, span.tag)).or_default();
            e.0 += self_ns;
            e.1 += 1;
            if span.parent.is_none() {
                self.root_ns += span.duration();
                self.roots += 1;
            }
        }
    }

    /// Self nanoseconds of `layer`, over every tag.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.by
            .iter()
            .filter(|((l, _), _)| *l == layer)
            .map(|(_, (ns, _))| ns)
            .sum()
    }

    /// Self nanoseconds and span count of `layer` spans tagged `tag`.
    pub fn tagged(&self, layer: Layer, tag: Tag) -> (u64, u64) {
        self.by.get(&(layer, tag)).copied().unwrap_or_default()
    }
}

/// Renders spans as JSON lines (one span per line, index order).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{i},\"job\":{},\"layer\":\"{}\",\"tag\":\"{:?}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.job,
            s.layer.name(),
            s.tag,
            s.start_ns,
            s.end_ns,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            tag: Tag::Plain,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // batch [0,100) > cache [10,60) > parser [20,50); json [70,80).
        let spans = vec![
            span(Layer::Batch, 0, 100, None),
            span(Layer::Cache, 10, 60, Some(0)),
            span(Layer::Parser, 20, 50, Some(1)),
            span(Layer::Json, 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let t = Totals::from_spans(&spans);
        assert_eq!((t.root_ns, t.roots), (100, 1));
        // Self times partition the root's duration.
        let sum: u64 = Layer::ALL.iter().map(|l| t.self_ns(*l)).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn tags_split_a_layer_without_changing_its_total() {
        let mut spans = vec![
            span(Layer::Batch, 0, 50, None),
            span(Layer::Eval, 0, 20, Some(0)),
            span(Layer::Eval, 20, 45, Some(0)),
        ];
        spans[1].tag = Tag::Env;
        spans[2].tag = Tag::Bytecode;
        let t = Totals::from_spans(&spans);
        assert_eq!(t.self_ns(Layer::Eval), 45);
        assert_eq!(t.tagged(Layer::Eval, Tag::Env), (20, 1));
        assert_eq!(t.tagged(Layer::Eval, Tag::Bytecode), (25, 1));
    }

    #[test]
    fn recorder_nests_spans_and_stamps_jobs() {
        let rec = Recorder::new();
        rec.set_job(7);
        let v = rec.span(Layer::Batch, || {
            rec.span(Layer::Json, || ());
            rec.span_tagged(
                Layer::Eval,
                || 42,
                |v| if *v == 42 { Tag::Env } else { Tag::Plain },
            )
        });
        assert_eq!(v, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].tag, Tag::Env);
        assert!(spans.iter().all(|s| s.job == 7 && s.start_ns <= s.end_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans_jsonl(&spans).lines().count() == 3);
    }
}
