//! The unified FunTAL driver: one [`Pipeline`] that composes every
//! layer of the workspace —
//!
//! ```text
//! lex → parse → FT typecheck → (optional MiniF compile) → evaluate → report
//! ```
//!
//! — over a single diagnostics type, [`FunTalError`], and the `funtal`
//! CLI binary built on top of it (`check`, `run`, `compile`, `equiv`,
//! `trace` subcommands over concrete-syntax files).
//!
//! The stages are also exposed individually ([`Pipeline::parse`],
//! [`Pipeline::check`], [`Pipeline::run`], [`Pipeline::trace`],
//! [`Pipeline::compile_minif`], [`Pipeline::equiv`]) so examples and
//! tests can enter and leave the pipeline at any point.
//!
//! # Example
//!
//! ```
//! use funtal_driver::Pipeline;
//!
//! let report = Pipeline::new()
//!     .with_fuel(10_000)
//!     .run_source("FT[int](mv r1, 6; mul r1, r1, 7; halt int, * {r1})")?;
//! assert_eq!(report.ty.to_string(), "int");
//! assert_eq!(report.value()?.to_string(), "42");
//! # Ok::<(), funtal_driver::FunTalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod batch;
pub mod cache;
pub mod codec;
pub mod corpus;
pub mod error;
pub mod json;
pub mod minif;
pub mod report;
pub mod wire;

use std::sync::Arc;

use funtal::machine::{run, run_fexpr, EvalStrategy, FtOutcome, RunCfg};
use funtal::LoweredProgram;
use funtal_compile::codegen::{compile_program, CodegenOpts};
use funtal_compile::lang::Program;
use funtal_equiv::{equivalent, EquivCfg, Verdict};
use funtal_parser::lex::Tok;
use funtal_syntax::alpha::alpha_eq_fty;
use funtal_syntax::build::{app, fint_e};
use funtal_syntax::span::SpanTable;
use funtal_syntax::{Component, FExpr, FTy};
use funtal_tal::error::RResult;
use funtal_tal::trace::{CountTracer, VecTracer};
use funtal_tal::{Profiler, RootLang};

pub use batch::{Batch, BatchReport, Job, JobKind, JobOutcome, JobSuccess};
pub use cache::{ArtifactCache, CacheStats};
pub use error::FunTalError;
pub use funtal_store::{DiskStore, StoreStats};
pub use report::{Checked, CompiledMiniF, ProfileReport, RunReport, TraceReport};

/// Builds the span table attributing compiled MiniF block labels to
/// their source definitions: every generated block is named `<def>` or
/// `<def>_<hint><n>`, so blocks attribute to the longest
/// definition-name prefix. Shared by the profiler and the linter; the
/// boundary wrapper is generated code and keeps a synthetic root span.
fn minif_span_table(
    compiled: &CompiledMiniF,
    def_spans: &[(String, funtal_syntax::span::Span)],
) -> SpanTable {
    let mut table = SpanTable::new();
    for (label, _) in &compiled.compiled.heap {
        let l = label.as_str();
        let best = def_spans
            .iter()
            .filter(|(n, _)| {
                l == n.as_str()
                    || (l.starts_with(n.as_str()) && l.as_bytes().get(n.len()) == Some(&b'_'))
            })
            .max_by_key(|(n, _)| n.len());
        if let Some((_, span)) = best {
            table.record(l, *span);
        }
    }
    table
}

/// Validates `program`, compiles it with `opts`, and boundary-wraps
/// each definition in `program.defs` order, typing every wrapped entry
/// with `type_of`. [`Pipeline::compile_minif`] passes the FT checker;
/// a compile-stage store hit passes the stored types instead.
pub(crate) fn build_minif(
    program: Program,
    opts: CodegenOpts,
    mut type_of: impl FnMut(&FExpr) -> Result<FTy, FunTalError>,
) -> Result<CompiledMiniF, FunTalError> {
    program.validate()?;
    let compiled = compile_program(&program, opts);
    let mut wrapped = Vec::with_capacity(program.defs.len());
    for name in program.defs.keys() {
        let f = compiled.wrap(name);
        let ty = type_of(&f)?;
        wrapped.push((name.clone(), f, ty));
    }
    Ok(CompiledMiniF {
        program,
        compiled,
        wrapped,
    })
}

/// Parses a machine (= evaluation-strategy) name as the CLI flags and
/// the batch job protocol spell them. `bytecode`/`bc` stay accepted and
/// name the same machine as `environment`.
pub fn parse_tier(name: &str) -> Option<EvalStrategy> {
    match name {
        "substitution" | "subst" => Some(EvalStrategy::Substitution),
        "environment" | "env" => Some(EvalStrategy::Environment),
        "bytecode" | "bc" => Some(EvalStrategy::Bytecode),
        _ => None,
    }
}

/// A configured lex → parse → typecheck → compile → evaluate pipeline.
///
/// `Pipeline` is cheap to construct and `Copy`-free but `Clone`; every
/// stage borrows it immutably, so one pipeline can drive many programs.
#[derive(Clone, Debug)]
pub struct Pipeline {
    /// Maximum machine steps per evaluation.
    fuel: u64,
    /// Run the dynamic type-safety guard at every T jump.
    guard: bool,
    /// Which evaluator runs programs (environment-passing by default).
    strategy: EvalStrategy,
    /// Code-generation options for the MiniF stage.
    codegen: CodegenOpts,
    /// Configuration for the bounded equivalence stage.
    equiv: EquivCfg,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            fuel: 1_000_000,
            guard: false,
            strategy: EvalStrategy::default(),
            codegen: CodegenOpts::default(),
            equiv: EquivCfg::default(),
        }
    }
}

impl Pipeline {
    /// A pipeline with default fuel (1M steps), no guard, no TCO.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Sets the evaluation fuel bound. The bounded-equivalence stage
    /// keeps its own per-experiment fuel (see
    /// [`with_equiv_cfg`](Pipeline::with_equiv_cfg)).
    pub fn with_fuel(mut self, fuel: u64) -> Pipeline {
        self.fuel = fuel;
        self
    }

    /// Enables the dynamic type-safety guard during evaluation.
    pub fn with_guard(mut self, guard: bool) -> Pipeline {
        self.guard = guard;
        self
    }

    /// Selects the evaluation strategy: the fast machine by default
    /// (CEK for F, bytecode VM for T), or the paper-literal
    /// substitution oracle. `Bytecode` names the fast machine too.
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> Pipeline {
        self.strategy = strategy;
        self
    }

    /// [`with_strategy`](Pipeline::with_strategy) under the `tier`
    /// name the CLI and batch protocol use.
    pub fn with_tier(self, tier: EvalStrategy) -> Pipeline {
        self.with_strategy(tier)
    }

    /// Sets MiniF code-generation options (e.g. tail-call
    /// loopification).
    pub fn with_codegen(mut self, opts: CodegenOpts) -> Pipeline {
        self.codegen = opts;
        self
    }

    /// Sets the bounded-equivalence configuration.
    pub fn with_equiv_cfg(mut self, cfg: EquivCfg) -> Pipeline {
        self.equiv = cfg;
        self
    }

    /// The configured fuel bound.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// The configured evaluation strategy.
    pub fn tier(&self) -> EvalStrategy {
        self.strategy
    }

    /// The configured codegen options.
    pub fn codegen_opts(&self) -> CodegenOpts {
        self.codegen
    }

    fn run_cfg(&self) -> RunCfg {
        RunCfg {
            fuel: self.fuel,
            guard: self.guard,
            strategy: self.strategy,
        }
    }

    // --- stage 1: lex -----------------------------------------------------

    /// Tokenizes FT concrete syntax (exposed for tooling; [`parse`]
    /// lexes internally).
    ///
    /// [`parse`]: Pipeline::parse
    pub fn lex(&self, src: &str) -> Result<Vec<Tok>, FunTalError> {
        Ok(funtal_parser::lex(src)?)
    }

    // --- stage 2: parse ---------------------------------------------------

    /// Parses an FT expression from concrete syntax.
    pub fn parse(&self, src: &str) -> Result<FExpr, FunTalError> {
        Ok(funtal_parser::parse_fexpr(src)?)
    }

    /// Parses an FT expression together with the side table of source
    /// spans for its heap labels — the attribution table the profiler
    /// resolves block names through.
    pub fn parse_spanned(&self, src: &str) -> Result<(FExpr, SpanTable), FunTalError> {
        Ok(funtal_parser::parse_fexpr_spanned(src)?)
    }

    // --- stage 3: typecheck -----------------------------------------------

    /// Type-checks a closed FT expression (Fig 7) and returns its type.
    pub fn check(&self, e: &FExpr) -> Result<FTy, FunTalError> {
        Ok(funtal::typecheck(e)?)
    }

    /// Parse + typecheck in one step.
    pub fn check_source(&self, src: &str) -> Result<Checked, FunTalError> {
        let expr = self.parse(src)?;
        let ty = self.check(&expr)?;
        Ok(Checked { expr, ty })
    }

    /// Type-checks either kind of component — an F expression or a
    /// whole T program — against an optional expected F type.
    pub fn check_component(
        &self,
        comp: &Component,
        expected: Option<&FTy>,
    ) -> Result<FTy, FunTalError> {
        Ok(funtal::typecheck_component(comp, expected)?)
    }

    // --- stage 4 (optional): MiniF compile --------------------------------

    /// Compiles a validated MiniF program to T code with the pipeline's
    /// [`CodegenOpts`], returning the heap fragment plus
    /// boundary-wrapped (and type-checked) entry points.
    pub fn compile_minif(&self, program: &Program) -> Result<CompiledMiniF, FunTalError> {
        build_minif(program.clone(), self.codegen, |f| self.check(f))
    }

    /// Parses MiniF concrete syntax (see [`minif`]) and compiles it.
    pub fn compile_minif_source(&self, src: &str) -> Result<CompiledMiniF, FunTalError> {
        self.compile_minif(&minif::parse_minif(src)?)
    }

    // --- stage 5: evaluate ------------------------------------------------

    /// Type-checks and evaluates an FT expression with step counting.
    pub fn run(&self, e: &FExpr) -> Result<RunReport, FunTalError> {
        let ty = self.check(e)?;
        self.run_prechecked(e, ty)
    }

    /// Parse + typecheck + evaluate in one step.
    pub fn run_source(&self, src: &str) -> Result<RunReport, FunTalError> {
        let e = self.parse(src)?;
        self.run(&e)
    }

    /// Evaluates an expression whose type is already known, skipping
    /// the typecheck stage. The batch engine calls this when its
    /// content-addressed cache already holds the type — a warm-cache
    /// `run` is hash lookups plus evaluation, nothing else.
    ///
    /// The caller is responsible for `ty` actually being the type of
    /// `e` (the cache guarantees this: the key is the term itself).
    pub fn run_prechecked(&self, e: &FExpr, ty: FTy) -> Result<RunReport, FunTalError> {
        self.run_counted(ty, |cfg, counts| run_fexpr(e, cfg, counts))
    }

    /// Evaluates a pre-lowered bytecode program whose type is already
    /// known — the fast machine's analogue of
    /// [`run_prechecked`](Pipeline::run_prechecked). The batch engine
    /// calls this for every run not on the oracle, with the type and
    /// the lowered artifact from its cache, so a warm run is hash
    /// lookups plus the dispatch loop: no re-parse, no re-check, no
    /// re-lowering.
    pub fn run_prelowered(
        &self,
        lowered: &LoweredProgram,
        ty: FTy,
    ) -> Result<RunReport, FunTalError> {
        self.run_counted(ty, |cfg, counts| {
            funtal::run_prelowered(lowered, cfg, counts)
        })
    }

    /// Runs `run` under a [`CountTracer`], which leaves the fast
    /// machine on its untraced loop (it counts its own steps).
    fn run_counted(
        &self,
        ty: FTy,
        run: impl FnOnce(RunCfg, &mut CountTracer) -> RResult<FtOutcome>,
    ) -> Result<RunReport, FunTalError> {
        let mut counts = CountTracer::new();
        let outcome = run(self.run_cfg(), &mut counts)?;
        Ok(RunReport {
            ty,
            outcome,
            counts,
            fuel: self.fuel,
        })
    }

    /// Profiles an expression whose type is already known: evaluates
    /// it with a [`Profiler`] tracer that charges every fuel tick to
    /// the source span responsible for it.
    ///
    /// The profile is a pure function of the program — the oracle and
    /// the fast machine emit byte-identical renderings (certified by
    /// the differential tests), so a profile taken on the fast machine
    /// speaks for the paper-literal oracle too. Attribution reads only
    /// `spans`, the table recorded at parse time; the machine and its
    /// lowered bytecode carry no spans.
    pub fn profile_prechecked(
        &self,
        e: &FExpr,
        ty: FTy,
        spans: Arc<SpanTable>,
    ) -> Result<ProfileReport, FunTalError> {
        self.profile_with(ty, spans, |cfg, profiler| run_fexpr(e, cfg, profiler))
    }

    /// Profiles a pre-lowered bytecode program — the fast machine's
    /// analogue of [`profile_prechecked`](Pipeline::profile_prechecked).
    /// An enabled tracer makes the bytecode VM step through the ops
    /// behind every fused head, so each one's tick is attributed to its
    /// own span.
    pub fn profile_prelowered(
        &self,
        lowered: &LoweredProgram,
        ty: FTy,
        spans: Arc<SpanTable>,
    ) -> Result<ProfileReport, FunTalError> {
        self.profile_with(ty, spans, |cfg, profiler| {
            funtal::run_prelowered(lowered, cfg, profiler)
        })
    }

    /// Runs `run` under a [`Profiler`] over `spans`.
    fn profile_with(
        &self,
        ty: FTy,
        spans: Arc<SpanTable>,
        run: impl FnOnce(RunCfg, &mut Profiler) -> RResult<FtOutcome>,
    ) -> Result<ProfileReport, FunTalError> {
        let mut profiler = Profiler::new(spans, RootLang::F);
        let outcome = run(self.run_cfg(), &mut profiler)?;
        let counts = profiler.counts;
        Ok(ProfileReport {
            run: RunReport {
                ty,
                outcome,
                counts,
                fuel: self.fuel,
            },
            profiler,
        })
    }

    /// Parse (with spans) + typecheck + profiled evaluation in one
    /// step — what `funtal profile` runs on `.ft` files.
    pub fn profile_source(&self, src: &str) -> Result<ProfileReport, FunTalError> {
        let (e, spans) = self.parse_spanned(src)?;
        let ty = self.check(&e)?;
        self.profile_prechecked(&e, ty, Arc::new(spans))
    }

    /// Profiles a compiled MiniF definition applied to integer
    /// arguments. `def_spans` comes from
    /// [`minif::parse_minif_spanned`]; every generated block is named
    /// `<def>` or `<def>_<hint><n>`, so blocks attribute to the
    /// longest definition-name prefix. The boundary wrapper is
    /// generated code and keeps a synthetic root span.
    ///
    /// The call is typed exactly as in
    /// [`run_compiled`](Pipeline::run_compiled): from the wrapper's
    /// annotation when it matches the bundle's recorded type, by the
    /// full FT check otherwise.
    pub fn profile_compiled(
        &self,
        compiled: &CompiledMiniF,
        name: &str,
        args: &[i64],
        def_spans: &[(String, funtal_syntax::span::Span)],
    ) -> Result<ProfileReport, FunTalError> {
        let (f, ty) = self.typed_call(compiled, name, args)?;
        let table = minif_span_table(compiled, def_spans);
        self.profile_prechecked(&int_call(f, args), ty, Arc::new(table))
    }

    // --- stage 5½: static analysis ----------------------------------------

    /// Lints an FT source — what `funtal lint` runs on `.ft` files:
    /// parse (with spans), typecheck, lower to bytecode, then run every
    /// analysis rule over both the source term and the lowered IR,
    /// resolving findings through the parse-time span table.
    /// Diagnostics come back in the deterministic normal form (sorted
    /// by file/span/rule, deduplicated).
    pub fn lint_source(
        &self,
        file: &str,
        src: &str,
    ) -> Result<Vec<funtal::Diagnostic>, FunTalError> {
        let (e, spans) = self.parse_spanned(src)?;
        self.check(&e)?;
        let lowered = funtal::prelower(&e);
        Ok(funtal::lint_program(file, &e, &lowered, &spans))
    }

    /// Lints a MiniF source — what `funtal lint` runs on `.mf` files:
    /// compile the program, then lower and lint every boundary-wrapped
    /// definition under the definition span table (generated blocks
    /// attribute to the `fn` that produced them, exactly as in
    /// [`profile_compiled`](Pipeline::profile_compiled)). Findings
    /// from all definitions are merged into one normal form.
    pub fn lint_minif_source(
        &self,
        file: &str,
        src: &str,
    ) -> Result<Vec<funtal::Diagnostic>, FunTalError> {
        let (program, def_spans) = minif::parse_minif_spanned(src)?;
        let bundle = self.compile_minif(&program)?;
        let table = minif_span_table(&bundle, &def_spans);
        let mut diags = Vec::new();
        // Every wrapped definition embeds the *whole* compiled heap,
        // so from any one entry point the other definitions' blocks
        // look unreachable. An entry-dependent finding therefore only
        // stands when every entry point agrees on it.
        let defs = bundle.wrapped.len();
        let mut entry_dependent: std::collections::HashMap<funtal::Diagnostic, usize> =
            std::collections::HashMap::new();
        for (_, f, _) in &bundle.wrapped {
            let lowered = funtal::prelower(f);
            for d in funtal::lint_program(file, f, &lowered, &table) {
                if d.rule == "unreachable-block" {
                    *entry_dependent.entry(d).or_insert(0) += 1;
                } else {
                    diags.push(d);
                }
            }
        }
        diags.extend(
            entry_dependent
                .into_iter()
                .filter(|(_, votes)| *votes == defs)
                .map(|(d, _)| d),
        );
        funtal::normalize(&mut diags);
        Ok(diags)
    }

    // --- stage 6: trace / equiv reporting ---------------------------------

    /// Type-checks and evaluates an FT expression, recording the full
    /// control-flow event stream (the Fig 4 / Fig 12 shape).
    pub fn trace(&self, e: &FExpr) -> Result<TraceReport, FunTalError> {
        let ty = self.check(e)?;
        let mut tracer = VecTracer::new();
        let outcome = run_fexpr(e, self.run_cfg(), &mut tracer)?;
        Ok(TraceReport {
            ty,
            outcome,
            events: tracer.events,
            fuel: self.fuel,
        })
    }

    /// Parse + typecheck + traced evaluation in one step.
    pub fn trace_source(&self, src: &str) -> Result<TraceReport, FunTalError> {
        let e = self.parse(src)?;
        self.trace(&e)
    }

    /// Type-checks and evaluates an F or T component in a fresh
    /// memory, recording the control-flow event stream.
    pub fn trace_component(
        &self,
        comp: &Component,
        expected: Option<&FTy>,
    ) -> Result<TraceReport, FunTalError> {
        let ty = self.check_component(comp, expected)?;
        let mut tracer = VecTracer::new();
        let mut mem = funtal_tal::machine::Memory::new();
        let outcome = run(&mut mem, comp, self.run_cfg(), &mut tracer)?;
        Ok(TraceReport {
            ty,
            outcome,
            events: tracer.events,
            fuel: self.fuel,
        })
    }

    /// Checks both expressions at a common type, then compares them
    /// with the bounded logical relation of `funtal-equiv`.
    ///
    /// The operands must have alpha-equal types; the common type is the
    /// one the experiments are generated at.
    pub fn equiv(&self, lhs: &FExpr, rhs: &FExpr) -> Result<(FTy, Verdict), FunTalError> {
        let lt = self.check(lhs)?;
        let rt = self.check(rhs)?;
        if !alpha_eq_fty(&lt, &rt) {
            return Err(FunTalError::driver(format!(
                "equiv operands have different types: {lt} vs {rt}"
            )));
        }
        Ok((lt.clone(), equivalent(lhs, rhs, &lt, &self.equiv)))
    }

    /// Parse + typecheck + bounded equivalence over two sources.
    pub fn equiv_source(&self, lhs: &str, rhs: &str) -> Result<(FTy, Verdict), FunTalError> {
        let l = self.parse(lhs)?;
        let r = self.parse(rhs)?;
        self.equiv(&l, &r)
    }

    // --- conveniences over compiled MiniF ---------------------------------

    /// Applies a compiled MiniF definition to integer arguments and
    /// runs it (the compiled analogue of [`Program::eval`]).
    ///
    /// A warm call is not re-checked. `compiled` already records the
    /// type of every wrapped definition, checked by
    /// [`compile_minif`](Pipeline::compile_minif) or loaded as a store
    /// verdict for the same source. When the wrapper is a boundary
    /// `FT[(int, …, int) -> τ] e` whose annotation is alpha-equal to
    /// that recorded type and the arity matches, the call has type τ
    /// by the boundary and application rules, and it runs through
    /// [`run_prechecked`](Pipeline::run_prechecked). Any other call
    /// (a wrong arity, a stack-modifying arrow, a recorded type that
    /// disagrees with the annotation) takes the full check of
    /// [`run`](Pipeline::run), so its errors keep their text and stage.
    ///
    /// On the fast machine the call runs through
    /// [`run_prelowered`](Pipeline::run_prelowered) over the
    /// definition's lowering, which `compiled` builds on its first call
    /// and keeps ([`Compiled::lowered`]); the oracle runs the call
    /// expression.
    ///
    /// [`Compiled::lowered`]: funtal_compile::codegen::Compiled::lowered
    pub fn run_compiled(
        &self,
        compiled: &CompiledMiniF,
        name: &str,
        args: &[i64],
    ) -> Result<RunReport, FunTalError> {
        let (f, ty) = self.typed_call(compiled, name, args)?;
        let lowered = match self.strategy {
            EvalStrategy::Substitution => None,
            EvalStrategy::Environment | EvalStrategy::Bytecode => compiled.compiled.lowered(name),
        };
        match lowered {
            Some(lowered) => self.run_prelowered(&lowered.call(args), ty),
            None => self.run_prechecked(&int_call(f, args), ty),
        }
    }

    /// The wrapped definition `name` and the type of its call on
    /// `args`, as [`run_compiled`](Pipeline::run_compiled) describes.
    fn typed_call<'c>(
        &self,
        compiled: &'c CompiledMiniF,
        name: &str,
        args: &[i64],
    ) -> Result<(&'c FExpr, FTy), FunTalError> {
        let (_, f, recorded) = compiled
            .wrapped
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or_else(|| FunTalError::driver(format!("no definition named `{name}`")))?;
        let ty = match f {
            FExpr::Boundary {
                ty:
                    ty @ FTy::Arrow {
                        params,
                        phi_in,
                        phi_out,
                        ret,
                    },
                sigma_out: None,
                ..
            } if phi_in.is_empty()
                && phi_out.is_empty()
                && params.len() == args.len()
                && params.iter().all(|p| *p == FTy::Int)
                && alpha_eq_fty(ty, recorded) =>
            {
                (**ret).clone()
            }
            _ => self.check(&int_call(f, args))?,
        };
        Ok((f, ty))
    }
}

/// The call `f(args…)` on integer literals.
fn int_call(f: &FExpr, args: &[i64]) -> FExpr {
    app(f.clone(), args.iter().map(|n| fint_e(*n)).collect())
}
