//! The traced replay of `Batch::run_job`.
//!
//! It makes the same public calls the engine makes — the
//! `ArtifactCache` methods, with the stage functions as their compute
//! closures, then `run_prechecked` or `run_prelowered` — and opens a
//! span around each, so every layer's time is measured from outside the
//! program. Its result lines must be byte-identical to the engine's.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use funtal::machine::{EvalStrategy, FtOutcome};
use funtal_compile::codegen::{compile_program, CodegenOpts};
use funtal_driver::cache::Parsed;
use funtal_driver::json::Json;
use funtal_driver::report::RunReport;
use funtal_driver::{
    minif, ArtifactCache, CompiledMiniF, FunTalError, Job, JobKind, JobOutcome, JobSuccess,
    Pipeline,
};
use funtal_syntax::build::{app, fint_e};
use funtal_syntax::{FExpr, FTy};

use crate::trace::{Layer, Recorder, Tag};

/// Work counted at the layer boundaries during a replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub parser_calls: u64,
    pub parser_bytes: u64,
    pub check_calls: u64,
    pub check_errors: u64,
    pub compile_calls: u64,
    pub compile_blocks: u64,
    pub lower_calls: u64,
    pub lower_modules: u64,
    pub eval_steps: u64,
    pub eval_crossings: u64,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.parser_calls += o.parser_calls;
        self.parser_bytes += o.parser_bytes;
        self.check_calls += o.check_calls;
        self.check_errors += o.check_errors;
        self.compile_calls += o.compile_calls;
        self.compile_blocks += o.compile_blocks;
        self.lower_calls += o.lower_calls;
        self.lower_modules += o.lower_modules;
        self.eval_steps += o.eval_steps;
        self.eval_crossings += o.eval_crossings;
    }
}

/// Replays jobs against an engine's cache, recording spans.
pub struct Replay<'a> {
    cache: &'a ArtifactCache,
    pipeline: Pipeline,
    rec: &'a Recorder,
    counters: RefCell<Counters>,
}

impl<'a> Replay<'a> {
    /// A replay over `cache` with the engine's pipeline configuration.
    pub fn new(cache: &'a ArtifactCache, pipeline: Pipeline, rec: &'a Recorder) -> Replay<'a> {
        Replay {
            cache,
            pipeline,
            rec,
            counters: RefCell::new(Counters::default()),
        }
    }

    pub fn counters(&self) -> Counters {
        *self.counters.borrow()
    }

    fn count(&self, f: impl FnOnce(&mut Counters)) {
        f(&mut self.counters.borrow_mut());
    }

    /// One job line in, one result line out — the `funtal serve` loop.
    pub fn job_line(&self, line: &str) -> String {
        self.rec.span(Layer::Batch, || {
            let job = self.rec.span(Layer::Json, || {
                let v = Json::parse(line).expect("generated job lines are JSON");
                Job::from_json(&v, "job").expect("generated job lines are valid jobs")
            });
            let outcome = JobOutcome {
                id: job.id.clone(),
                cmd: match job.kind {
                    JobKind::Compile { .. } => "compile",
                    _ => "run",
                },
                result: self.execute(&job.kind),
            };
            self.rec.span(Layer::Json, || outcome.to_json().to_string())
        })
    }

    fn execute(&self, kind: &JobKind) -> Result<JobSuccess, FunTalError> {
        match kind {
            JobKind::Run {
                src,
                fuel,
                tier,
                profile,
            } => {
                assert!(!profile, "the benchmark generates no profiled jobs");
                let (parsed, ty) = self.parse_and_check(src)?;
                let mut pipeline = self.pipeline.clone();
                if let Some(f) = fuel {
                    pipeline = pipeline.with_fuel(*f);
                }
                if let Some(t) = tier {
                    pipeline = pipeline.with_tier(*t);
                }
                let bytecode = pipeline.tier() == EvalStrategy::Bytecode;
                let lowered = bytecode.then(|| {
                    self.cache_span(
                        |computed| {
                            self.cache.lower_keyed(&parsed.check_key, || {
                                computed.set(true);
                                self.rec.span(Layer::Lower, || {
                                    let lowered = funtal::prelower(&parsed.expr);
                                    self.count(|c| {
                                        c.lower_calls += 1;
                                        c.lower_modules += lowered.module_count() as u64;
                                    });
                                    lowered
                                })
                            })
                        },
                        |_| true,
                    )
                });
                let ty = (*ty).clone();
                let tier = if bytecode { Tag::Bytecode } else { Tag::Env };
                let report = self.eval(tier, || match &lowered {
                    Some(lowered) => pipeline.run_prelowered(lowered, ty),
                    None => pipeline.run_prechecked(&parsed.expr, ty),
                })?;
                if matches!(report.outcome, FtOutcome::OutOfFuel) {
                    return Err(FunTalError::OutOfFuel {
                        fuel: pipeline.fuel(),
                    });
                }
                Ok(JobSuccess::Ran {
                    ty: report.ty.to_string(),
                    outcome: report.outcome,
                    counts: report.counts,
                    profile: None,
                })
            }
            JobKind::Compile { src, tco, call } => {
                let bundle = self.cache_span(
                    |computed| {
                        self.cache.compile(src, *tco, || {
                            computed.set(true);
                            self.rec
                                .span(Layer::Compile, || self.compile_minif(src, *tco))
                        })
                    },
                    Result::is_ok,
                )?;
                let call = match call {
                    None => None,
                    Some((name, args)) => {
                        // `Pipeline::run_compiled`: wrap the call, then
                        // `run`, which re-checks before evaluating.
                        let f = bundle.wrapped_fexpr(name).ok_or_else(|| {
                            FunTalError::driver(format!("no definition named `{name}`"))
                        })?;
                        let call = app(f.clone(), args.iter().map(|n| fint_e(*n)).collect());
                        let ty = self.check(&self.pipeline, &call)?;
                        let report =
                            self.eval(Tag::Env, || self.pipeline.run_prechecked(&call, ty))?;
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
            other => panic!("the benchmark generates no {other:?} jobs"),
        }
    }

    fn parse_and_check(&self, src: &str) -> Result<(Arc<Parsed>, Arc<FTy>), FunTalError> {
        let parsed = self.cache_span(
            |computed| {
                self.cache.parse(src, || {
                    computed.set(true);
                    self.rec.span(Layer::Parser, || {
                        self.count(|c| {
                            c.parser_calls += 1;
                            c.parser_bytes += src.len() as u64;
                        });
                        self.pipeline.parse_spanned(src)
                    })
                })
            },
            Result::is_ok,
        )?;
        let ty = self.cache_span(
            |computed| {
                self.cache.check_keyed(&parsed.check_key, || {
                    computed.set(true);
                    self.check(&self.pipeline, &parsed.expr)
                })
            },
            Result::is_ok,
        )?;
        Ok((parsed, ty))
    }

    /// `Pipeline::compile_minif_source`, stage by stage.
    fn compile_minif(&self, src: &str, tco: bool) -> Result<CompiledMiniF, FunTalError> {
        let pipeline = self
            .pipeline
            .clone()
            .with_codegen(CodegenOpts { tail_call_opt: tco });
        let program = self.rec.span(Layer::Parser, || {
            self.count(|c| {
                c.parser_calls += 1;
                c.parser_bytes += src.len() as u64;
            });
            minif::parse_minif(src)
        })?;
        program.validate()?;
        let compiled = compile_program(&program, pipeline.codegen_opts());
        self.count(|c| {
            c.compile_calls += 1;
            c.compile_blocks += compiled.block_count() as u64;
        });
        let mut wrapped = Vec::new();
        for name in program.defs.keys() {
            let f = compiled.wrap(name);
            let ty = self.check(&pipeline, &f)?;
            wrapped.push((name.clone(), f, ty));
        }
        Ok(CompiledMiniF {
            program: program.clone(),
            compiled,
            wrapped,
        })
    }

    fn check(&self, pipeline: &Pipeline, e: &FExpr) -> Result<FTy, FunTalError> {
        let ty = self.rec.span(Layer::Check, || pipeline.check(e));
        self.count(|c| {
            c.check_calls += 1;
            c.check_errors += ty.is_err() as u64;
        });
        ty
    }

    fn eval(
        &self,
        tag: Tag,
        run: impl FnOnce() -> Result<RunReport, FunTalError>,
    ) -> Result<RunReport, FunTalError> {
        let report = self.rec.span_tagged(Layer::Eval, run, |_| tag)?;
        self.count(|c| {
            c.eval_steps += report.counts.total_steps();
            c.eval_crossings += report.counts.crossings;
        });
        Ok(report)
    }

    /// A cache call in a `cache` span. With a store configured, the
    /// span is tagged by what answered it: the disk tier, or a compute
    /// that wrote through.
    fn cache_span<R>(
        &self,
        lookup: impl FnOnce(&Cell<bool>) -> R,
        stored: impl FnOnce(&R) -> bool,
    ) -> R {
        let computed = Cell::new(false);
        let disk_hits = || self.cache.store_stats().map_or(0, |s| s.total_hits());
        let before = disk_hits();
        self.rec.span_tagged(
            Layer::Cache,
            || lookup(&computed),
            |r| {
                if self.cache.store().is_none() {
                    Tag::Plain
                } else if disk_hits() > before {
                    Tag::DiskHit
                } else if computed.get() && stored(r) {
                    Tag::Wrote
                } else {
                    Tag::Plain
                }
            },
        )
    }
}
