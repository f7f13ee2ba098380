//! The parallel batch execution engine.
//!
//! A [`Batch`] runs many jobs — `check`/`run` over FT sources,
//! `compile` over MiniF sources — concurrently on a pool of worker
//! threads, sharing one content-addressed [`ArtifactCache`] so every
//! distinct program is parsed, typechecked, and compiled exactly once
//! per cache lifetime (racing cold lookups aside). This is the seam
//! the ROADMAP's scaling PRs plug into: the `funtal batch` and
//! `funtal serve` subcommands, the throughput benchmarks, and the
//! differential test corpus all drive this one engine.
//!
//! # Determinism
//!
//! FunTAL evaluation is deterministic and fuel-metered, and jobs share
//! no mutable state (each run gets a fresh `Memory`; cached artifacts
//! are immutable behind `Arc`). The engine therefore promises:
//! **results are a pure function of the job list** — independent of
//! worker count, scheduling order, and cache temperature. Results are
//! reported in submission order, so whole reports are byte-identical
//! across runs; `crates/driver/tests/` proves this differentially
//! against the sequential single-program pipeline.
//!
//! # Protocol
//!
//! Jobs and results are JSON lines (see [`Job::from_json`] and
//! [`JobOutcome::to_json`]); the schema is documented in the README.

use std::io::BufRead;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use funtal::machine::{EvalStrategy, FtOutcome};
use funtal_tal::trace::CountTracer;

use crate::cache::{ArtifactCache, CacheStats};
use crate::error::FunTalError;
use crate::json::{obj, Json};
use crate::report::RunReport;
use crate::Pipeline;

/// Stack size for worker threads: evaluation recurses over the term
/// and the substitution oracle's context depth can be large.
const WORKER_STACK_BYTES: usize = 64 * 1024 * 1024;

/// Spawns `f` on a thread of `scope` with `WORKER_STACK_BYTES` of
/// stack. Every job runs on such a thread — `Batch::run`'s workers and
/// the `funtal` binary's commands alike — so whether a deeply nested
/// program fits cannot depend on the entry point.
pub fn spawn_worker<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK_BYTES)
        .spawn_scoped(scope, f)
        .expect("spawning a worker thread")
}

/// The longest job line `batch` and `serve` accept, in bytes (1 MiB).
/// A longer line becomes its own `error[driver]` result; its rest is
/// read and discarded in bounded chunks, never held whole.
pub const MAX_JOB_LINE_BYTES: usize = 1 << 20;

/// What a job asks the pipeline to do.
#[derive(Clone, Debug, PartialEq)]
pub enum JobKind {
    /// Parse + typecheck an FT source; report the type.
    Check {
        /// FT concrete syntax.
        src: String,
    },
    /// Parse + typecheck + evaluate an FT source; report the value.
    Run {
        /// FT concrete syntax.
        src: String,
        /// Per-job fuel override (engine default otherwise).
        fuel: Option<u64>,
        /// Per-job machine override (engine default otherwise).
        tier: Option<EvalStrategy>,
        /// Attach a span-attributed fuel profile to the result.
        profile: bool,
    },
    /// Parse + compile a MiniF source; optionally apply a definition.
    Compile {
        /// MiniF concrete syntax.
        src: String,
        /// Loopify self tail calls.
        tco: bool,
        /// Apply `(name, integer arguments)` after compiling.
        call: Option<(String, Vec<i64>)>,
    },
    /// A job line that failed to parse. Carrying the rejection as a
    /// job keeps one poison line from aborting the rest of the stream:
    /// it executes to its own per-line error result, in order, and
    /// every other job still runs.
    Invalid {
        /// Stage of the error that rejected the line.
        stage: &'static str,
        /// Its bare message.
        message: String,
    },
}

impl JobKind {
    fn cmd(&self) -> &'static str {
        match self {
            JobKind::Check { .. } => "check",
            JobKind::Run { .. } => "run",
            JobKind::Compile { .. } => "compile",
            JobKind::Invalid { .. } => "invalid",
        }
    }
}

/// One unit of batch work.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    /// Caller-chosen identifier, echoed in the result line.
    pub id: String,
    /// The work.
    pub kind: JobKind,
}

impl Job {
    /// A `run` job over FT source.
    pub fn run(id: impl Into<String>, src: impl Into<String>) -> Job {
        Job {
            id: id.into(),
            kind: JobKind::Run {
                src: src.into(),
                fuel: None,
                tier: None,
                profile: false,
            },
        }
    }

    /// A `run` job pinned to a machine.
    pub fn run_tiered(id: impl Into<String>, src: impl Into<String>, tier: EvalStrategy) -> Job {
        Job {
            id: id.into(),
            kind: JobKind::Run {
                src: src.into(),
                fuel: None,
                tier: Some(tier),
                profile: false,
            },
        }
    }

    /// A `compile` job over MiniF source.
    pub fn compile(id: impl Into<String>, src: impl Into<String>) -> Job {
        Job {
            id: id.into(),
            kind: JobKind::Compile {
                src: src.into(),
                tco: false,
                call: None,
            },
        }
    }

    /// Parses one job from its JSON-lines form.
    ///
    /// ```json
    /// {"id": "j1", "cmd": "run", "src": "1 + 2"}
    /// {"id": "j2", "cmd": "run", "file": "examples/fact_t.ft", "fuel": 100000}
    /// {"id": "j3", "cmd": "compile", "src": "fn f(n) = n * 2", "tco": true,
    ///  "call": "f", "args": [21]}
    /// ```
    ///
    /// `src` is the program text inline; `file` reads it from disk
    /// (exactly one of the two). `fallback_id` names the job when no
    /// `id` field is given (the CLI passes the line number).
    pub fn from_json(v: &Json, fallback_id: &str) -> Result<Job, FunTalError> {
        let id = match v.get("id") {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Int(n)) => n.to_string(),
            Some(other) => {
                return Err(FunTalError::driver(format!(
                    "job `id` must be a string or integer, got {other}"
                )))
            }
            None => fallback_id.to_string(),
        };
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| FunTalError::driver(format!("job {id}: missing `cmd` field")))?;
        let src = match (v.get("src").and_then(Json::as_str), v.get("file")) {
            (Some(src), None) => src.to_string(),
            (None, Some(Json::Str(path))) => {
                std::fs::read_to_string(path).map_err(|e| FunTalError::io(path, e))?
            }
            (Some(_), Some(_)) => {
                return Err(FunTalError::driver(format!(
                    "job {id}: give `src` or `file`, not both"
                )))
            }
            (None, Some(other)) => {
                return Err(FunTalError::driver(format!(
                    "job {id}: `file` must be a string path, got {other}"
                )))
            }
            (None, None) => {
                return Err(FunTalError::driver(format!(
                    "job {id}: needs a `src` or `file` field"
                )))
            }
        };
        let kind = match cmd {
            "check" => JobKind::Check { src },
            "run" => JobKind::Run {
                src,
                fuel: match v.get("fuel") {
                    Some(Json::Int(n)) if *n >= 0 => Some(*n as u64),
                    Some(other) => {
                        return Err(FunTalError::driver(format!(
                            "job {id}: `fuel` must be a non-negative integer, got {other}"
                        )))
                    }
                    None => None,
                },
                tier: match v.get("tier") {
                    Some(Json::Str(name)) => Some(crate::parse_tier(name).ok_or_else(|| {
                        FunTalError::driver(format!(
                            "job {id}: unknown tier `{name}` \
                             (use substitution, environment, or bytecode)"
                        ))
                    })?),
                    Some(other) => {
                        return Err(FunTalError::driver(format!(
                            "job {id}: `tier` must be a string, got {other}"
                        )))
                    }
                    None => None,
                },
                profile: match v.get("profile") {
                    Some(j) => j.as_bool().ok_or_else(|| {
                        FunTalError::driver(format!("job {id}: `profile` must be a boolean"))
                    })?,
                    None => false,
                },
            },
            "compile" => {
                let tco = match v.get("tco") {
                    Some(j) => j.as_bool().ok_or_else(|| {
                        FunTalError::driver(format!("job {id}: `tco` must be a boolean"))
                    })?,
                    None => false,
                };
                let call = match (v.get("call"), v.get("args")) {
                    (None, None) => None,
                    (Some(Json::Str(name)), args) => {
                        let args = match args {
                            None => Vec::new(),
                            Some(Json::Arr(items)) => items
                                .iter()
                                .map(|a| {
                                    a.as_i64().ok_or_else(|| {
                                        FunTalError::driver(format!(
                                            "job {id}: `args` must be integers"
                                        ))
                                    })
                                })
                                .collect::<Result<_, _>>()?,
                            Some(other) => {
                                return Err(FunTalError::driver(format!(
                                    "job {id}: `args` must be an array, got {other}"
                                )))
                            }
                        };
                        Some((name.clone(), args))
                    }
                    _ => {
                        return Err(FunTalError::driver(format!(
                            "job {id}: `call` must be a definition name (with optional \
                             integer `args`)"
                        )))
                    }
                };
                JobKind::Compile { src, tco, call }
            }
            other => {
                return Err(FunTalError::driver(format!(
                    "job {id}: unknown cmd `{other}` (use check, run, or compile)"
                )))
            }
        };
        Ok(Job { id, kind })
    }

    /// Parses one line of a JSON-lines job stream; `lineno` is 1-based
    /// and names the fallback id. Blank lines and `#` comment lines
    /// give `None`.
    ///
    /// Never fails otherwise: a malformed line becomes a
    /// [`JobKind::Invalid`] job that executes to its own per-line error
    /// result, so one poison line mid-stream cannot abort the jobs after
    /// it. The invalid job echoes the line's `id` field when one is
    /// readable, and preserves the rejecting error's stage and message
    /// so the result line renders the diagnostic verbatim. `batch` job
    /// files and `serve`'s stdin both go through here.
    pub(crate) fn parse_line(line: &str, lineno: usize) -> Option<Job> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let fallback = format!("job{lineno}");
        Some(match Json::parse(line) {
            Err(e) => Job::bad_line(lineno, e),
            Ok(v) => match Job::from_json(&v, &fallback) {
                Ok(job) => job,
                Err(e) => Job {
                    id: match v.get("id") {
                        Some(Json::Str(s)) => s.clone(),
                        Some(Json::Int(n)) => n.to_string(),
                        _ => fallback,
                    },
                    kind: JobKind::Invalid {
                        stage: e.stage(),
                        message: e.message(),
                    },
                },
            },
        })
    }

    /// The invalid job for a line the parser cannot read at all.
    fn bad_line(lineno: usize, why: impl std::fmt::Display) -> Job {
        Job {
            id: format!("job{lineno}"),
            kind: JobKind::Invalid {
                stage: "driver",
                message: format!("jobs line {lineno}: {why}"),
            },
        }
    }

    /// Reads a JSON-lines job stream line by line with
    /// `Job::parse_line`. A line that is not UTF-8 or is longer than
    /// [`MAX_JOB_LINE_BYTES`] becomes its own invalid job, so the jobs
    /// after it still run; only an I/O error ends the stream early.
    pub fn read_jsonl<R: BufRead>(mut r: R) -> impl Iterator<Item = std::io::Result<Job>> {
        let mut buf = Vec::new();
        let mut lineno = 0;
        std::iter::from_fn(move || loop {
            match read_line_bounded(&mut r, &mut buf) {
                Ok(true) => lineno += 1,
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
            let job = if buf.len() > MAX_JOB_LINE_BYTES {
                Some(Job::bad_line(
                    lineno,
                    format!("longer than {MAX_JOB_LINE_BYTES} bytes"),
                ))
            } else {
                match std::str::from_utf8(&buf) {
                    Ok(line) => Job::parse_line(line, lineno),
                    Err(_) => Some(Job::bad_line(lineno, "not valid UTF-8")),
                }
            };
            if let Some(job) = job {
                return Some(Ok(job));
            }
        })
    }
}

/// Reads the next line of `r` into `buf`, without its `\n`. At most
/// [`MAX_JOB_LINE_BYTES`] + 1 bytes are kept, so an over-long line is
/// told by its length; the rest of it is skipped through `r`'s buffer.
/// `Ok(false)` at the end of the input.
fn read_line_bounded(r: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    buf.clear();
    let n = std::io::Read::take(&mut *r, MAX_JOB_LINE_BYTES as u64 + 1).read_until(b'\n', buf)?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_JOB_LINE_BYTES {
        r.skip_until(b'\n')?;
    }
    Ok(n > 0)
}

/// The successful payload of a job, ready for rendering.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSuccess {
    /// `check`: the program's type.
    Checked {
        /// Rendered FT type.
        ty: String,
    },
    /// `run`: the program's type, outcome, and step counts.
    Ran {
        /// Rendered FT type.
        ty: String,
        /// `Value` or `Halted` (out-of-fuel reports as an error).
        outcome: FtOutcome,
        /// Step counts by class.
        counts: CountTracer,
        /// The span-attributed fuel profile, when the job asked for
        /// one (`"profile": true`), already in JSON form.
        profile: Option<Json>,
    },
    /// `compile`: the compiled bundle's shape.
    Compiled {
        /// Per definition: name and rendered wrapped type.
        defs: Vec<(String, String)>,
        /// Generated T block count.
        blocks: usize,
        /// `(name, args, rendered value)` when the job asked to call.
        call: Option<(String, Vec<i64>, String)>,
    },
}

/// The result of one job: its id, what ran, and success or the
/// pipeline error (already in canonical rendering via `FunTalError`).
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job's id, echoed.
    pub id: String,
    /// Which command ran (`check`/`run`/`compile`).
    pub cmd: &'static str,
    /// The payload or the error.
    pub result: Result<JobSuccess, FunTalError>,
}

// CountTracer has no PartialEq upstream of this crate's needs; compare
// outcomes structurally where tests need it via the JSON rendering.
impl JobOutcome {
    /// Renders the result line. The rendering is a pure function of
    /// the job and the program — no timings, no worker ids — so batch
    /// output is byte-comparable across runs and worker counts.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("id", Json::Str(self.id.clone())),
            ("cmd", Json::Str(self.cmd.to_string())),
            ("ok", Json::Bool(self.result.is_ok())),
        ];
        match &self.result {
            Ok(JobSuccess::Checked { ty }) => {
                fields.push(("type", Json::Str(ty.clone())));
            }
            Ok(JobSuccess::Ran {
                ty,
                outcome,
                counts,
                profile,
            }) => {
                fields.push(("type", Json::Str(ty.clone())));
                match outcome {
                    FtOutcome::Value(v) => fields.push(("value", Json::Str(v.to_string()))),
                    FtOutcome::Halted(w) => fields.push(("halted", Json::Str(w.to_string()))),
                    FtOutcome::OutOfFuel => unreachable!("out-of-fuel reports as an error"),
                }
                fields.push((
                    "steps",
                    obj([
                        ("total", Json::Int(counts.total_steps() as i64)),
                        ("t_instrs", Json::Int(counts.instrs as i64)),
                        ("f_steps", Json::Int(counts.f_steps as i64)),
                        ("transfers", Json::Int(counts.transfers as i64)),
                        ("crossings", Json::Int(counts.crossings as i64)),
                    ]),
                ));
                if let Some(p) = profile {
                    fields.push(("profile", p.clone()));
                }
            }
            Ok(JobSuccess::Compiled { defs, blocks, call }) => {
                fields.push((
                    "defs",
                    Json::Arr(
                        defs.iter()
                            .map(|(name, ty)| {
                                obj([
                                    ("name", Json::Str(name.clone())),
                                    ("type", Json::Str(ty.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ));
                fields.push(("blocks", Json::Int(*blocks as i64)));
                if let Some((name, args, value)) = call {
                    fields.push((
                        "call",
                        obj([
                            ("name", Json::Str(name.clone())),
                            (
                                "args",
                                Json::Arr(args.iter().map(|n| Json::Int(*n)).collect()),
                            ),
                            ("value", Json::Str(value.clone())),
                        ]),
                    ));
                }
            }
            Err(e) => {
                fields.push(("stage", Json::Str(e.stage().to_string())));
                fields.push(("error", Json::Str(e.to_string())));
            }
        }
        obj(fields)
    }
}

/// The full result of a batch: per-job outcomes in submission order
/// plus the cache counters over the engine's cache (cumulative across
/// batches when the cache is shared, e.g. under `funtal serve`).
#[derive(Debug)]
pub struct BatchReport {
    /// One outcome per job, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Cache hit/miss counters at batch end.
    pub cache: CacheStats,
    /// Disk-tier counters at batch end, when the engine's cache is
    /// backed by a persistent store (`--store-dir`).
    pub store: Option<funtal_store::StoreStats>,
    /// Worker threads the batch ran on.
    pub workers: usize,
}

impl BatchReport {
    /// Jobs that succeeded.
    pub(crate) fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Jobs that failed.
    pub fn err_count(&self) -> usize {
        self.outcomes.len() - self.ok_count()
    }

    /// The result lines, one JSON object per job, submission order.
    pub fn result_lines(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&o.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// The summary line: job counts, worker count, cache counters, and
    /// — when a persistent store is configured — its disk counters.
    pub fn summary_json(&self) -> Json {
        render_summary(
            &self.cache,
            self.store.as_ref(),
            self.outcomes.len(),
            self.ok_count(),
            self.err_count(),
            self.workers,
        )
    }
}

/// The one summary-line schema, shared by `funtal batch` (via
/// [`BatchReport::summary_json`]) and `funtal serve`'s parting line.
/// The `"store"` block appears only when a persistent store is
/// configured, so storeless summaries are byte-identical to earlier
/// releases.
pub fn render_summary(
    cache: &CacheStats,
    store: Option<&funtal_store::StoreStats>,
    jobs: usize,
    ok: usize,
    err: usize,
    workers: usize,
) -> Json {
    let stage = |s: crate::cache::StageStats| {
        obj([
            ("hits", Json::Int(s.hits as i64)),
            ("misses", Json::Int(s.misses as i64)),
        ])
    };
    // The lower stage is the one stage with verify-on-load, so it is
    // the one stage whose summary carries a reject counter.
    let lower = obj([
        ("hits", Json::Int(cache.lower.hits as i64)),
        ("misses", Json::Int(cache.lower.misses as i64)),
        ("rejects", Json::Int(cache.lower.rejects as i64)),
    ]);
    let mut fields = vec![
        ("summary", Json::Bool(true)),
        ("jobs", Json::Int(jobs as i64)),
        ("ok", Json::Int(ok as i64)),
        ("err", Json::Int(err as i64)),
        ("workers", Json::Int(workers as i64)),
        (
            "cache",
            obj([
                ("parse", stage(cache.parse)),
                ("check", stage(cache.check)),
                ("lower", lower),
                ("compile", stage(cache.compile)),
            ]),
        ),
    ];
    if let Some(s) = store {
        // Every disk stage verifies on load, so every disk stage
        // carries a reject counter. Parse and lower are never
        // persisted; their keys stay (always zero) so the schema is
        // stable.
        let disk = |d: funtal_store::StageDiskStats| {
            obj([
                ("hits", Json::Int(d.hits as i64)),
                ("misses", Json::Int(d.misses as i64)),
                ("rejects", Json::Int(d.rejects as i64)),
            ])
        };
        fields.push((
            "store",
            obj([
                ("parse", disk(s.parse)),
                ("check", disk(s.check)),
                ("lower", disk(s.lower)),
                ("compile", disk(s.compile)),
            ]),
        ));
    }
    obj(fields)
}

/// The batch execution engine: a [`Pipeline`] configuration, a worker
/// count, and a shared [`ArtifactCache`].
pub struct Batch {
    pipeline: Pipeline,
    workers: usize,
    cache: Arc<ArtifactCache>,
}

// One engine is driven from many worker threads via `&self`.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<Batch>();
    require_send_sync::<Job>();
    require_send_sync::<JobOutcome>();
};

impl Batch {
    /// An engine over the given pipeline configuration, one worker,
    /// fresh cache.
    pub fn new(pipeline: Pipeline) -> Batch {
        Batch {
            pipeline,
            workers: 1,
            cache: Arc::new(ArtifactCache::new()),
        }
    }

    /// Sets the worker count (`0` is treated as `1`).
    pub fn with_workers(mut self, workers: usize) -> Batch {
        self.workers = workers.max(1);
        self
    }

    /// Replaces the cache (to share artifacts across batches).
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Batch {
        self.cache = cache;
        self
    }

    /// The engine's cache (share it with another engine, or snapshot
    /// its stats).
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job, returning outcomes in submission order.
    ///
    /// Jobs are claimed from a shared counter; each worker loops
    /// claim → execute → report until the list is drained. Every
    /// worker — including a lone one — runs on a [`spawn_worker`]
    /// thread, so whether a deeply recursive program fits cannot depend
    /// on the worker count (results are a pure function of the job
    /// list, and that includes not crashing).
    pub fn run(&self, jobs: &[Job]) -> BatchReport {
        let workers = self.workers.min(jobs.len()).max(1);
        let mut outcomes: Vec<Option<JobOutcome>> = Vec::new();
        outcomes.resize_with(jobs.len(), || None);
        {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, JobOutcome)>();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    spawn_worker(scope, move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let out = self.run_job(job);
                        if tx.send((i, out)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (i, out) in rx {
                    outcomes[i] = Some(out);
                }
            });
        }
        BatchReport {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every job produced an outcome"))
                .collect(),
            cache: self.cache.stats(),
            store: self.cache.store_stats(),
            workers,
        }
    }

    /// Runs a single job through the cached pipeline stages. This is
    /// the exact code path workers run, exposed for `funtal serve`.
    pub fn run_job(&self, job: &Job) -> JobOutcome {
        JobOutcome {
            id: job.id.clone(),
            cmd: job.kind.cmd(),
            result: self.execute(&job.kind),
        }
    }

    fn execute(&self, kind: &JobKind) -> Result<JobSuccess, FunTalError> {
        match kind {
            JobKind::Check { src } => {
                let (_, ty) = self.parse_and_check(src)?;
                Ok(JobSuccess::Checked { ty: ty.to_string() })
            }
            JobKind::Run {
                src,
                fuel,
                tier,
                profile,
            } => {
                let (parsed, ty) = self.parse_and_check(src)?;
                let mut pipeline = self.pipeline.clone();
                if let Some(f) = fuel {
                    pipeline = pipeline.with_fuel(*f);
                }
                if let Some(t) = tier {
                    pipeline = pipeline.with_tier(*t);
                }
                // The cache proved the term well-typed; evaluate
                // without re-checking. Fast-machine runs go through the
                // lowered-artifact cache, so only the first job per
                // distinct program pays for lowering.
                let fast = pipeline.tier() != EvalStrategy::Substitution;
                let lowered = fast.then(|| {
                    self.cache
                        .lower_keyed(&parsed.check_key, || funtal::prelower(&parsed.expr))
                });
                let (report, profile): (RunReport, Option<Json>) = if *profile {
                    let profiled = match &lowered {
                        Some(lowered) => pipeline.profile_prelowered(
                            lowered,
                            (*ty).clone(),
                            parsed.spans.clone(),
                        )?,
                        None => pipeline.profile_prechecked(
                            &parsed.expr,
                            (*ty).clone(),
                            parsed.spans.clone(),
                        )?,
                    };
                    let json = profiled.profile_json();
                    (profiled.run, Some(json))
                } else {
                    let report = match &lowered {
                        Some(lowered) => pipeline.run_prelowered(lowered, (*ty).clone())?,
                        None => pipeline.run_prechecked(&parsed.expr, (*ty).clone())?,
                    };
                    (report, None)
                };
                if matches!(report.outcome, FtOutcome::OutOfFuel) {
                    return Err(FunTalError::OutOfFuel {
                        fuel: pipeline.fuel(),
                    });
                }
                Ok(JobSuccess::Ran {
                    ty: report.ty.to_string(),
                    outcome: report.outcome,
                    counts: report.counts,
                    profile,
                })
            }
            JobKind::Compile { src, tco, call } => {
                let bundle = self.cache.compile(src, *tco, || {
                    self.pipeline
                        .clone()
                        .with_codegen(funtal_compile::codegen::CodegenOpts {
                            tail_call_opt: *tco,
                        })
                        .compile_minif_source(src)
                })?;
                let call = match call {
                    None => None,
                    Some((name, args)) => {
                        let report = self.pipeline.run_compiled(&bundle, name, args)?;
                        Some((name.clone(), args.clone(), report.value()?.to_string()))
                    }
                };
                Ok(JobSuccess::Compiled {
                    defs: bundle
                        .wrapped
                        .iter()
                        .map(|(name, _, ty)| (name.clone(), ty.to_string()))
                        .collect(),
                    blocks: bundle.block_count(),
                    call,
                })
            }
            JobKind::Invalid { stage, message } => Err(FunTalError::BadJob {
                stage,
                message: message.clone(),
            }),
        }
    }

    /// Parse and typecheck through the content-addressed caches. On a
    /// warm cache this is two map probes: the parse artifact already
    /// carries the typecheck key (its canonical rendering).
    fn parse_and_check(
        &self,
        src: &str,
    ) -> Result<(Arc<crate::cache::Parsed>, Arc<funtal_syntax::FTy>), FunTalError> {
        let parsed = self.cache.parse(src, || self.pipeline.parse_spanned(src))?;
        let ty = self
            .cache
            .check_keyed(&parsed.check_key, || self.pipeline.check(&parsed.expr))?;
        Ok((parsed, ty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every job of a JSON-lines text, read as `serve` and `batch` read it.
    fn read_jobs(text: &str) -> Vec<Job> {
        Job::read_jsonl(text.as_bytes())
            .map(Result::unwrap)
            .collect()
    }

    #[test]
    fn jobs_parse_from_jsonl() {
        let jobs = read_jobs(concat!(
            "# comment\n",
            "{\"id\":\"a\",\"cmd\":\"run\",\"src\":\"1 + 2\"}\n",
            "\n",
            "{\"cmd\":\"compile\",\"src\":\"fn f(n) = n\",\"call\":\"f\",\"args\":[7]}\n",
        ));
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, "a");
        assert_eq!(jobs[1].id, "job4");
        assert_eq!(
            jobs[1].kind,
            JobKind::Compile {
                src: "fn f(n) = n".to_string(),
                tco: false,
                call: Some(("f".to_string(), vec![7])),
            }
        );
    }

    #[test]
    fn bad_jobs_become_invalid_jobs() {
        for line in [
            "{\"cmd\":\"run\"}",                           // no src
            "{\"src\":\"1\"}",                             // no cmd
            "{\"cmd\":\"frobnicate\",\"src\":\"1\"}",      // unknown cmd
            "{\"cmd\":\"run\",\"src\":\"1\",\"fuel\":-3}", // bad fuel
            "{not json",                                   // not JSON at all
        ] {
            let jobs = read_jobs(line);
            assert_eq!(jobs.len(), 1, "line dropped: {line}");
            assert!(
                matches!(jobs[0].kind, JobKind::Invalid { .. }),
                "accepted: {line}"
            );
        }
        // A readable `id` on a malformed line is still echoed.
        let jobs = read_jobs("{\"id\":\"keepme\",\"cmd\":\"run\"}");
        assert_eq!(jobs[0].id, "keepme");
    }

    #[test]
    fn poison_line_mid_stream_does_not_abort_later_jobs() {
        let jobs = read_jobs(concat!(
            "{\"id\":\"ok1\",\"cmd\":\"run\",\"src\":\"1 + 2\"}\n",
            "{\"id\":\"bad\",\"cmd\":\"run\"}\n",
            "this is not json\n",
            "{\"id\":\"ok2\",\"cmd\":\"run\",\"src\":\"2 * 3\"}\n",
        ));
        assert_eq!(jobs.len(), 4);
        let report = Batch::new(Pipeline::new()).run(&jobs);
        assert_eq!(report.ok_count(), 2);
        assert_eq!(report.err_count(), 2);
        let lines: Vec<String> = report
            .outcomes
            .iter()
            .map(|o| o.to_json().to_string())
            .collect();
        assert!(lines[0].contains("\"value\":\"3\""), "{}", lines[0]);
        // The per-line error preserves the rejecting diagnostic.
        assert!(
            lines[1].contains("\"id\":\"bad\"")
                && lines[1].contains("\"cmd\":\"invalid\"")
                && lines[1].contains("needs a `src` or `file` field"),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].contains("\"id\":\"job3\"") && lines[2].contains("jobs line 3"),
            "{}",
            lines[2]
        );
        // The job after the poison lines still ran.
        assert!(lines[3].contains("\"value\":\"6\""), "{}", lines[3]);
    }

    #[test]
    fn profiled_jobs_attach_a_profile_field() {
        let batch = Batch::new(Pipeline::new());
        let jobs = read_jobs(concat!(
            "{\"id\":\"p\",\"cmd\":\"run\",\"src\":\"1 + 2\",\"profile\":true}\n",
            "{\"id\":\"q\",\"cmd\":\"run\",\"src\":\"1 + 2\"}\n",
        ));
        let report = batch.run(&jobs);
        let p = report.outcomes[0].to_json().to_string();
        let q = report.outcomes[1].to_json().to_string();
        assert!(
            p.contains("\"profile\":{") && p.contains("\"spans\":") && p.contains("\"folded\":"),
            "{p}"
        );
        assert!(!q.contains("\"profile\""), "{q}");
        // The attribution total equals the run's total step count for
        // a pure-F program (every tick is a charging F step).
        assert!(p.contains("\"total\":1"), "{p}");
    }

    #[test]
    fn run_and_check_and_compile_jobs() {
        let batch = Batch::new(Pipeline::new());
        let report = batch.run(&[
            Job::run("r", "6 * 7"),
            Job {
                id: "c".to_string(),
                kind: JobKind::Check {
                    src: "(lam[z](x: int). x)(3)".to_string(),
                },
            },
            Job {
                id: "m".to_string(),
                kind: JobKind::Compile {
                    src: "fn double(n) = n + n".to_string(),
                    tco: false,
                    call: Some(("double".to_string(), vec![21])),
                },
            },
            Job::run("bad", "1 +"),
        ]);
        assert_eq!(report.outcomes.len(), 4);
        assert_eq!(report.ok_count(), 3);
        let lines: Vec<String> = report
            .outcomes
            .iter()
            .map(|o| o.to_json().to_string())
            .collect();
        assert!(lines[0].contains("\"value\":\"42\""), "{}", lines[0]);
        assert!(lines[1].contains("\"type\":\"int\""), "{}", lines[1]);
        assert!(lines[2].contains("\"value\":\"42\""), "{}", lines[2]);
        assert!(
            lines[3].contains("\"stage\":\"parse\"") && lines[3].contains("error[parse]"),
            "{}",
            lines[3]
        );
    }

    #[test]
    fn warm_cache_skips_parse_and_check() {
        let batch = Batch::new(Pipeline::new());
        batch.run(&[Job::run("a", "6 * 7")]);
        let cold = batch.cache().stats();
        assert_eq!((cold.parse.hits, cold.parse.misses), (0, 1));
        assert_eq!((cold.check.hits, cold.check.misses), (0, 1));
        batch.run(&[Job::run("b", "6 * 7")]);
        let warm = batch.cache().stats();
        assert_eq!((warm.parse.hits, warm.parse.misses), (1, 1));
        assert_eq!((warm.check.hits, warm.check.misses), (1, 1));
    }

    #[test]
    fn tier_field_parses_and_bad_tiers_are_rejected() {
        let jobs =
            read_jobs("{\"id\":\"b\",\"cmd\":\"run\",\"src\":\"1 + 2\",\"tier\":\"bytecode\"}\n");
        assert_eq!(
            jobs[0].kind,
            JobKind::Run {
                src: "1 + 2".to_string(),
                fuel: None,
                tier: Some(EvalStrategy::Bytecode),
                profile: false,
            }
        );
        for line in [
            "{\"cmd\":\"run\",\"src\":\"1\",\"tier\":\"jit\"}",
            "{\"cmd\":\"run\",\"src\":\"1\",\"tier\":7}",
        ] {
            assert!(
                matches!(read_jobs(line)[0].kind, JobKind::Invalid { .. }),
                "accepted: {line}"
            );
        }
    }

    #[test]
    fn bytecode_jobs_agree_with_default_tier() {
        let batch = Batch::new(Pipeline::new());
        let src = "FT[int](mv r1, 6; mul r1, r1, 7; halt int, * {r1})";
        let report = batch.run(&[
            Job::run("env", src),
            Job::run_tiered("bc", src, EvalStrategy::Bytecode),
        ]);
        let env = report.outcomes[0].to_json().to_string();
        let bc = report.outcomes[1].to_json().to_string();
        // Same value, type, and step counts — only the id differs.
        assert_eq!(
            env.replace("\"id\":\"env\"", ""),
            bc.replace("\"id\":\"bc\"", ""),
            "bytecode tier diverged:\n{env}\n{bc}"
        );
    }

    #[test]
    fn warm_batch_skips_relowering() {
        let batch = Batch::new(Pipeline::new());
        let src = "FT[int](mv r1, 6; mul r1, r1, 7; halt int, * {r1})";
        batch.run(&[Job::run_tiered("a", src, EvalStrategy::Bytecode)]);
        let cold = batch.cache().stats();
        assert_eq!((cold.lower.hits, cold.lower.misses), (0, 1));
        // Second batch over the same program (even formatted
        // differently): the lowering is served from cache.
        let resrc = src.replace("; ", ";  ");
        batch.run(&[
            Job::run_tiered("b", src, EvalStrategy::Bytecode),
            Job::run_tiered("c", &resrc, EvalStrategy::Bytecode),
        ]);
        let warm = batch.cache().stats();
        assert_eq!((warm.lower.hits, warm.lower.misses), (2, 1));
        // Oracle runs never touch the lowering cache.
        batch.run(&[Job::run_tiered("d", src, EvalStrategy::Substitution)]);
        assert_eq!(batch.cache().stats().lower, warm.lower);

        // `environment` and `bytecode` name one machine, so a job under
        // each spelling shares one lowering: a miss, then a hit.
        let batch = Batch::new(Pipeline::new());
        batch.run(&[Job::run_tiered("e", src, EvalStrategy::Environment)]);
        let first = batch.cache().stats().lower;
        assert_eq!((first.hits, first.misses), (0, 1));
        batch.run(&[Job::run_tiered("f", src, EvalStrategy::Bytecode)]);
        let second = batch.cache().stats().lower;
        assert_eq!((second.hits, second.misses), (1, 1));
    }

    #[test]
    fn results_are_order_stable_across_worker_counts() {
        let jobs: Vec<Job> = (0..12)
            .map(|i| Job::run(format!("j{i}"), format!("{i} + {i}")))
            .collect();
        let seq = Batch::new(Pipeline::new()).run(&jobs).result_lines();
        let par = Batch::new(Pipeline::new())
            .with_workers(4)
            .run(&jobs)
            .result_lines();
        assert_eq!(seq, par);
    }
}
