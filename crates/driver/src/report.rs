//! Pipeline stage outputs: checked programs, run reports, trace
//! reports, and compiled MiniF bundles.

use std::fmt;

use funtal::machine::FtOutcome;
use funtal_compile::codegen::Compiled;
use funtal_compile::lang::Program;
use funtal_syntax::{FExpr, FTy};
use funtal_tal::trace::{CountTracer, Event};
use funtal_tal::Profiler;

use crate::error::FunTalError;
use crate::json::{obj, Json};

/// A parsed and type-checked FT expression.
#[derive(Clone, Debug)]
pub struct Checked {
    /// The expression.
    pub expr: FExpr,
    /// Its FT type (Fig 7).
    pub ty: FTy,
}

/// The result of running a program through the full pipeline.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The program's FT type.
    pub ty: FTy,
    /// The machine outcome (value, halt word, or out of fuel).
    pub outcome: FtOutcome,
    /// Step counts by class (T instructions, F steps, transfers,
    /// boundary crossings).
    pub counts: CountTracer,
    /// The fuel bound the run was given.
    pub fuel: u64,
}

impl RunReport {
    /// The resulting F value, or an error if the program halted in T
    /// or ran out of fuel.
    pub fn value(&self) -> Result<&FExpr, FunTalError> {
        match &self.outcome {
            FtOutcome::Value(v) => Ok(v),
            FtOutcome::Halted(w) => Err(FunTalError::driver(format!(
                "program halted in T with {w} instead of producing an F value"
            ))),
            FtOutcome::OutOfFuel => Err(FunTalError::OutOfFuel { fuel: self.fuel }),
        }
    }

    /// Renders the outcome the way the CLI prints it.
    pub fn outcome_line(&self) -> String {
        match &self.outcome {
            FtOutcome::Value(v) => format!("value:  {v}"),
            FtOutcome::Halted(w) => format!("halted: {w}"),
            FtOutcome::OutOfFuel => format!("out of fuel after {} steps", self.fuel),
        }
    }

    /// Renders the step-count summary line.
    pub fn counts_line(&self) -> String {
        format_counts_line(&self.counts)
    }
}

/// The one step-summary format shared by `run --steps` and `trace`.
fn format_counts_line(c: &CountTracer) -> String {
    format!(
        "steps:  {} total ({} T instrs, {} F steps, {} transfers, {} crossings)",
        c.total_steps(),
        c.instrs,
        c.f_steps,
        c.transfers,
        c.crossings,
    )
}

/// The result of a profiled run: everything in a [`RunReport`] plus
/// the span-attributed fuel profile.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// The ordinary run report (type, outcome, counts, fuel bound).
    pub run: RunReport,
    /// The attribution state after the run: per-span tick buckets,
    /// folded stacks, and boundary-crossing counters.
    pub profiler: Profiler,
}

impl ProfileReport {
    /// The JSON payload embedded as the `"profile"` field of batch and
    /// serve result lines, and printed by `funtal profile --format
    /// json`. Purely a function of the program, so byte-comparable
    /// across runs, worker counts, and machines.
    pub fn profile_json(&self) -> Json {
        obj([
            ("total", Json::Int(self.profiler.total() as i64)),
            (
                "spans",
                Json::Arr(
                    self.profiler
                        .entries()
                        .iter()
                        .map(|row| {
                            obj([
                                ("name", Json::Str(row.name.clone())),
                                ("source", Json::Str(row.span.to_string())),
                                ("ticks", Json::Int(row.ticks as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "folded",
                Json::Arr(
                    self.profiler
                        .folded_lines()
                        .into_iter()
                        .map(Json::Str)
                        .collect(),
                ),
            ),
            (
                "crossings",
                obj([
                    (
                        "boundary_in",
                        Json::Int(self.profiler.boundary_enters as i64),
                    ),
                    (
                        "boundary_out",
                        Json::Int(self.profiler.boundary_exits as i64),
                    ),
                    ("import_in", Json::Int(self.profiler.import_enters as i64)),
                    ("import_out", Json::Int(self.profiler.import_exits as i64)),
                ]),
            ),
        ])
    }
}

/// The result of a traced run: everything in a [`RunReport`] plus the
/// ordered control-flow events.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// The program's FT type.
    pub ty: FTy,
    /// The machine outcome.
    pub outcome: FtOutcome,
    /// Every event the machines emitted, in order.
    pub events: Vec<Event>,
    /// The fuel bound the run was given.
    pub fuel: u64,
}

impl TraceReport {
    /// Only the control-transfer and boundary events (drops the
    /// per-instruction `Instr`/`FStep` noise) — the Fig 4 / Fig 12
    /// shape.
    pub fn transfers(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| !matches!(e, Event::Instr | Event::FStep | Event::FBeta))
    }

    /// Renders the trace as an indented control-flow diagram: boundary
    /// crossings indent/dedent (Fig 12), transfers print one per line
    /// (Fig 4).
    ///
    /// The machine emits `BoundaryEnter` only when a boundary has a
    /// local heap fragment to merge, and never emits `ImportEnter`, so
    /// exit events are not guaranteed a matching opener; an unmatched
    /// exit renders as a flat completed-crossing line instead of
    /// dedenting past the opens actually seen.
    pub fn render(&self) -> String {
        #[derive(PartialEq)]
        enum Open {
            Boundary,
            Import,
        }
        let mut out = String::new();
        let mut opens: Vec<Open> = Vec::new();
        for ev in &self.events {
            let depth = opens.len();
            let line = match ev {
                Event::BoundaryEnter { ty } => {
                    let l = format!("{:indent$}FT[{ty}] {{", "", indent = depth * 2);
                    opens.push(Open::Boundary);
                    l
                }
                Event::BoundaryExit { ty } => {
                    if opens.last() == Some(&Open::Boundary) {
                        opens.pop();
                        format!("{:indent$}}} -> F", "", indent = (depth - 1) * 2)
                    } else {
                        format!("{:indent$}FT[{ty}] -> F", "", indent = depth * 2)
                    }
                }
                Event::ImportEnter => {
                    let l = format!("{:indent$}import {{", "", indent = depth * 2);
                    opens.push(Open::Import);
                    l
                }
                Event::ImportExit { rd } => {
                    if opens.last() == Some(&Open::Import) {
                        opens.pop();
                        format!("{:indent$}}} import -> {rd}", "", indent = (depth - 1) * 2)
                    } else {
                        format!("{:indent$}import -> {rd}", "", indent = depth * 2)
                    }
                }
                Event::Call { to } => format!("{:indent$}call {to}", "", indent = depth * 2),
                Event::Jmp { to } => format!("{:indent$}jmp {to}", "", indent = depth * 2),
                Event::BnzTaken { to } => format!("{:indent$}bnz {to}", "", indent = depth * 2),
                Event::Ret { to, val } => {
                    format!(
                        "{:indent$}ret {to} (result in {val})",
                        "",
                        indent = depth * 2
                    )
                }
                Event::Halt { reg } => format!("{:indent$}halt ({reg})", "", indent = depth * 2),
                Event::FBeta => format!("{:indent$}beta (F)", "", indent = depth * 2),
                Event::Instr | Event::FStep => continue,
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Condenses the events into class counts.
    pub fn counts(&self) -> CountTracer {
        use funtal_tal::trace::Tracer;
        let mut c = CountTracer::new();
        for e in &self.events {
            c.event(e);
        }
        c
    }

    /// Renders the step-count summary line (same format as
    /// [`RunReport::counts_line`]).
    pub fn counts_line(&self) -> String {
        format_counts_line(&self.counts())
    }
}

/// A MiniF program compiled to T, with each definition wrapped as a
/// type-checked F-level function.
#[derive(Clone, Debug)]
pub struct CompiledMiniF {
    /// The validated source program.
    pub program: Program,
    /// The raw compilation output (heap fragment + entry labels).
    pub compiled: Compiled,
    /// Per definition: name, boundary-wrapped F expression, and its
    /// checked FT type.
    pub wrapped: Vec<(String, FExpr, FTy)>,
}

impl CompiledMiniF {
    /// The boundary-wrapped expression for a definition, if present.
    pub fn wrapped_fexpr(&self, name: &str) -> Option<&FExpr> {
        self.wrapped
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, e, _)| e)
    }

    /// Total number of generated T blocks.
    pub fn block_count(&self) -> usize {
        self.compiled.block_count()
    }
}

impl fmt::Display for CompiledMiniF {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, e, ty) in &self.wrapped {
            writeln!(f, "// {name} : {ty}")?;
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}
