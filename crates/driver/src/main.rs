//! The `funtal` command-line interface: drive the whole pipeline over
//! concrete-syntax files.
//!
//! ```text
//! funtal check   FILE.ft...            parse + typecheck, print each type
//! funtal run     FILE.ft [--trace]     evaluate to a value (--steps, --guard, --fuel N)
//! funtal trace   FILE.ft               evaluate, print the control-flow diagram
//! funtal profile FILE.ft               evaluate, print the span-attributed fuel profile
//! funtal compile FILE.mf [--tco]       compile MiniF to T (--call NAME ARGS.. to run)
//! funtal equiv   A.ft B.ft             bounded logical-relation comparison
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

use funtal::machine::EvalStrategy;
use funtal_compile::codegen::CodegenOpts;
use funtal_driver::{Batch, FunTalError, Job, JobKind, Pipeline};
use funtal_equiv::EquivCfg;

const USAGE: &str = "funtal — the FunTAL multi-language driver

USAGE:
    funtal <COMMAND> [OPTIONS] <FILE>...

COMMANDS:
    check    FILE.ft...     parse and typecheck; print each program's type
    run      FILE.ft        typecheck and evaluate; print the resulting value
    trace    FILE.ft        like `run`, but print the control-flow diagram
                            (Fig 4 / Fig 12 of the paper)
    profile  FILE.ft|.mf    like `run`, but print where the fuel went: a
                            hot-span table attributing every machine step
                            to its source region (.mf needs --call; the
                            profile is identical on both machines)
    compile  FILE.mf        compile a MiniF program to T assembly and print
                            the boundary-wrapped result
    lint     FILE...        run the static analyses over .ft/.mf sources:
                            deterministic span-attributed diagnostics
                            (dead register writes, unreachable blocks,
                            unused heap fragments, shadowed binders,
                            constant boundary imports) plus certified
                            static fuel bounds as notes; exits non-zero
                            on errors (and on warnings under --deny)
    equiv    A.ft B.ft      compare two programs with the bounded logical
                            relation (Section 5)
    batch    JOBS...        run many jobs on a worker pool with shared
                            content-addressed caches; JOBS are .jsonl job
                            files (`-` for stdin), or .ft/.mf files taken
                            as run/compile jobs. JSON-lines out.
    serve                   long-lived JSON-lines loop: one job per stdin
                            line, one result per stdout line, caches warm
                            across requests
    store    ACTION         inspect the persistent verdict store
                            (needs --store-dir): `stats` prints per-stage
                            entry counts and sizes, `gc` enforces the
                            size cap (least-recently-used eviction),
                            `verify` re-checks every entry's container
                            and payload and exits non-zero on corruption

OPTIONS:
    --fuel N        evaluation step bound          [default: 1000000]
    --strategy S    which machine evaluates: `environment` (the fast
                    machine — CEK for F, bytecode VM for T; default) or
                    `substitution` (the paper-literal Fig 8 oracle);
                    `bytecode` is another name for `environment`
    --tier T        same as --strategy
    --guard         enable the dynamic type-safety guard at T jumps
    --steps         print step counts after `run`
    --trace         with `run`: also print the control-flow diagram
    --verify-bytecode
                    with `run`: verify the lowered bytecode (register
                    initialization, jump-offset bounds, the fused-cost
                    table) before executing anything
    --deny warnings with `lint`: exit non-zero when any warning-level
                    finding survives (the CI gate)
    --format F      with `profile`: `table` (default), `folded`
                    (flamegraph-collapsed stack lines), or `json`;
                    with `lint`: `table` (default) or `json`
    --tco           with `compile`: loopify self tail calls
    --call NAME N.. with `compile`: apply definition NAME to integer
                    arguments and print the value
    --samples N     with `equiv`: experiments per type   [default: 12]
    --seed N        with `equiv`: RNG seed
    --depth N       with `equiv`: input-generation depth
    --workers N     with `batch`: worker threads          [default: 1]
    --repeat K      with `batch`: submit the job list K times (repeat
                    r >= 2 suffixes ids with #r; exercises the caches)
    --store-dir DIR with `batch`/`serve`/`store`: directory of the
                    persistent verdict store; FT typecheck results
                    (of run and compile jobs) are written through as
                    type text and later processes skip those checks
                    (every load is verified, corrupt entries degrade
                    to recompute)
    --store-cap N   with --store-dir: store size cap in bytes before
                    least-recently-used eviction (0 = unlimited)
                                            [default: 268435456]
    -h, --help      print this help
";

struct Opts {
    files: Vec<String>,
    /// `Some` only when `--fuel` was given explicitly; `run` and
    /// `equiv` have different defaults.
    fuel: Option<u64>,
    strategy: EvalStrategy,
    guard: bool,
    steps: bool,
    trace: bool,
    tco: bool,
    call: Option<(String, Vec<i64>)>,
    format: String,
    samples: usize,
    seed: u64,
    depth: u32,
    workers: usize,
    repeat: usize,
    verify_bytecode: bool,
    deny_warnings: bool,
    store_dir: Option<String>,
    store_cap: u64,
}

fn parse_args(args: &[String]) -> Result<Opts, FunTalError> {
    let defaults = EquivCfg::default();
    let mut o = Opts {
        files: Vec::new(),
        fuel: None,
        strategy: EvalStrategy::default(),
        guard: false,
        steps: false,
        trace: false,
        tco: false,
        call: None,
        format: "table".to_string(),
        samples: defaults.samples,
        seed: defaults.seed,
        depth: defaults.depth,
        workers: 1,
        repeat: 1,
        verify_bytecode: false,
        deny_warnings: false,
        store_dir: None,
        store_cap: 256 * 1024 * 1024,
    };
    let mut i = 0;
    let take = |args: &[String], i: &mut usize, flag: &str| -> Result<String, FunTalError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| FunTalError::driver(format!("{flag} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--fuel" => o.fuel = Some(parse_num(&take(args, &mut i, "--fuel")?, "--fuel")?),
            flag @ ("--strategy" | "--tier") => {
                let name = take(args, &mut i, flag)?;
                o.strategy = funtal_driver::parse_tier(&name).ok_or_else(|| {
                    FunTalError::driver(format!(
                        "{flag}: `{name}` is not a tier \
                         (use `environment`, `substitution`, or `bytecode`)"
                    ))
                })?;
            }
            "--format" => {
                let name = take(args, &mut i, "--format")?;
                if !matches!(name.as_str(), "table" | "folded" | "json") {
                    return Err(FunTalError::driver(format!(
                        "--format: `{name}` is not a profile format \
                         (use `table`, `folded`, or `json`)"
                    )));
                }
                o.format = name;
            }
            "--guard" => o.guard = true,
            "--steps" => o.steps = true,
            "--trace" => o.trace = true,
            "--tco" => o.tco = true,
            "--verify-bytecode" => o.verify_bytecode = true,
            "--deny" => {
                let what = take(args, &mut i, "--deny")?;
                if what != "warnings" {
                    return Err(FunTalError::driver(format!(
                        "--deny: `{what}` is not a deniable class (use `warnings`)"
                    )));
                }
                o.deny_warnings = true;
            }
            "--samples" => {
                o.samples = parse_num::<usize>(&take(args, &mut i, "--samples")?, "--samples")?
            }
            "--seed" => o.seed = parse_num(&take(args, &mut i, "--seed")?, "--seed")?,
            "--depth" => o.depth = parse_num(&take(args, &mut i, "--depth")?, "--depth")?,
            "--workers" => {
                o.workers = parse_num::<usize>(&take(args, &mut i, "--workers")?, "--workers")?
            }
            "--repeat" => {
                o.repeat = parse_num::<usize>(&take(args, &mut i, "--repeat")?, "--repeat")?.max(1)
            }
            "--store-dir" => o.store_dir = Some(take(args, &mut i, "--store-dir")?),
            "--store-cap" => {
                o.store_cap = parse_num(&take(args, &mut i, "--store-cap")?, "--store-cap")?
            }
            "--call" => {
                let name = take(args, &mut i, "--call")?;
                let mut call_args = Vec::new();
                while let Some(n) = args.get(i + 1).and_then(|a| a.parse::<i64>().ok()) {
                    call_args.push(n);
                    i += 1;
                }
                o.call = Some((name, call_args));
            }
            flag if flag.starts_with("--") => {
                return Err(FunTalError::driver(format!("unknown option `{flag}`")))
            }
            file => o.files.push(file.to_string()),
        }
        i += 1;
    }
    Ok(o)
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, FunTalError> {
    s.parse()
        .map_err(|_| FunTalError::driver(format!("{flag}: `{s}` is not a valid number")))
}

fn read_file(path: &str) -> Result<String, FunTalError> {
    std::fs::read_to_string(path).map_err(|e| FunTalError::io(path, e))
}

/// Every job of the JSON-lines stream `r`, read from `path`.
fn read_jobs(r: impl std::io::BufRead, path: &str) -> Result<Vec<Job>, FunTalError> {
    Job::read_jsonl(r)
        .collect::<Result<_, _>>()
        .map_err(|e| FunTalError::io(path, e))
}

fn one_file<'a>(o: &'a Opts, cmd: &str) -> Result<&'a str, FunTalError> {
    match o.files.as_slice() {
        [f] => Ok(f),
        _ => Err(FunTalError::driver(format!(
            "`funtal {cmd}` takes exactly one file (got {})",
            o.files.len()
        ))),
    }
}

impl Opts {
    /// The run-stage fuel bound.
    fn run_fuel(&self) -> u64 {
        self.fuel.unwrap_or(1_000_000)
    }
}

fn pipeline(o: &Opts) -> Pipeline {
    Pipeline::new()
        .with_fuel(o.run_fuel())
        .with_strategy(o.strategy)
        .with_guard(o.guard)
        .with_codegen(CodegenOpts {
            tail_call_opt: o.tco,
        })
        .with_equiv_cfg(EquivCfg {
            // An explicit --fuel overrides the per-experiment bound in
            // both directions; otherwise keep the equiv default.
            fuel: o.fuel.unwrap_or(EquivCfg::default().fuel),
            samples: o.samples,
            depth: o.depth,
            seed: o.seed,
        })
}

fn cmd_check(o: &Opts) -> Result<(), FunTalError> {
    if o.files.is_empty() {
        return Err(FunTalError::driver(
            "`funtal check` needs at least one file",
        ));
    }
    let p = pipeline(o);
    for file in &o.files {
        let checked = p.check_source(&read_file(file)?)?;
        println!("{file}: {}", checked.ty);
    }
    Ok(())
}

fn cmd_run(o: &Opts) -> Result<(), FunTalError> {
    let file = one_file(o, "run")?;
    let p = pipeline(o);
    let src = read_file(file)?;
    if o.verify_bytecode {
        // Lower and verify before anything executes — the same check
        // that guards `prelower` under debug assertions and cache
        // loads, on demand in release builds.
        let e = p.parse(&src)?;
        p.check(&e)?;
        let lowered = funtal::prelower(&e);
        funtal::verify_lowered(&lowered)
            .map_err(|err| FunTalError::driver(format!("--verify-bytecode: {err}")))?;
        println!("verify: {} bytecode module(s) OK", lowered.module_count());
    }
    let report = if o.trace {
        let traced = p.trace_source(&src)?;
        println!("type:   {}", traced.ty);
        print!("{}", traced.render());
        funtal_driver::RunReport {
            ty: traced.ty.clone(),
            outcome: traced.outcome.clone(),
            counts: traced.counts(),
            fuel: o.run_fuel(),
        }
    } else {
        let report = p.run_source(&src)?;
        println!("type:   {}", report.ty);
        report
    };
    // Exhausting the fuel bound is a failed run for scripting purposes.
    if matches!(report.outcome, funtal::machine::FtOutcome::OutOfFuel) {
        return Err(FunTalError::OutOfFuel { fuel: o.run_fuel() });
    }
    println!("{}", report.outcome_line());
    if o.steps {
        println!("{}", report.counts_line());
    }
    Ok(())
}

fn cmd_trace(o: &Opts) -> Result<(), FunTalError> {
    let file = one_file(o, "trace")?;
    let report = pipeline(o).trace_source(&read_file(file)?)?;
    println!("type:   {}", report.ty);
    print!("{}", report.render());
    println!("{}", report.counts_line());
    Ok(())
}

fn cmd_profile(o: &Opts) -> Result<(), FunTalError> {
    let file = one_file(o, "profile")?;
    let p = pipeline(o);
    let src = read_file(file)?;
    let report = if file.ends_with(".mf") {
        let Some((name, args)) = &o.call else {
            return Err(FunTalError::driver(
                "`funtal profile` over a .mf file needs --call NAME ARGS..",
            ));
        };
        let (program, def_spans) = funtal_driver::minif::parse_minif_spanned(&src)?;
        let bundle = p.compile_minif(&program)?;
        p.profile_compiled(&bundle, name, args, &def_spans)?
    } else {
        p.profile_source(&src)?
    };
    if matches!(report.run.outcome, funtal::machine::FtOutcome::OutOfFuel) {
        return Err(FunTalError::OutOfFuel { fuel: o.run_fuel() });
    }
    match o.format.as_str() {
        // Pure folded lines: pipe straight into flamegraph tooling.
        "folded" => print!("{}", report.profiler.render_folded()),
        "json" => println!("{}", report.profile_json()),
        _ => {
            println!("type:   {}", report.run.ty);
            println!("{}", report.run.outcome_line());
            print!("{}", report.profiler.render_table());
        }
    }
    Ok(())
}

fn cmd_compile(o: &Opts) -> Result<(), FunTalError> {
    let file = one_file(o, "compile")?;
    let p = pipeline(o);
    let bundle = p.compile_minif_source(&read_file(file)?)?;
    println!(
        "// {} definition(s), {} T block(s), tail_call_opt: {}",
        bundle.program.defs.len(),
        bundle.block_count(),
        o.tco,
    );
    print!("{bundle}");
    if let Some((name, args)) = &o.call {
        let report = p.run_compiled(&bundle, name, args)?;
        let rendered = args
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        println!("// {name}({rendered}) = {}", report.value()?);
    }
    Ok(())
}

/// Renders one diagnostic line: `file:line:col: severity[rule]: msg`,
/// with the position omitted for synthetic spans (whole-program
/// findings and generated code).
fn render_diag(d: &funtal::Diagnostic) -> String {
    if d.span == funtal_syntax::span::Span::SYNTH {
        format!("{}: {}[{}]: {}", d.file, d.severity, d.rule, d.message)
    } else {
        format!(
            "{}:{}:{}: {}[{}]: {}",
            d.file, d.span.line, d.span.col, d.severity, d.rule, d.message
        )
    }
}

fn lint_json(diags: &[funtal::Diagnostic], files: usize) -> funtal_driver::json::Json {
    use funtal_driver::json::{obj, Json};
    let count = |s| diags.iter().filter(|d| d.severity == s).count() as i64;
    obj([
        ("lint", Json::Bool(true)),
        ("files", Json::Int(files as i64)),
        (
            "findings",
            Json::Arr(
                diags
                    .iter()
                    .map(|d| {
                        obj([
                            ("file", Json::Str(d.file.clone())),
                            ("line", Json::Int(d.span.line as i64)),
                            ("col", Json::Int(d.span.col as i64)),
                            ("rule", Json::Str(d.rule.clone())),
                            ("severity", Json::Str(d.severity.to_string())),
                            ("message", Json::Str(d.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("errors", Json::Int(count(funtal::Severity::Error))),
        ("warnings", Json::Int(count(funtal::Severity::Warning))),
        ("notes", Json::Int(count(funtal::Severity::Note))),
    ])
}

fn cmd_lint(o: &Opts) -> Result<(), FunTalError> {
    if o.format == "folded" {
        return Err(FunTalError::driver(
            "--format: `folded` is not a lint format (use `table` or `json`)",
        ));
    }
    if o.files.is_empty() {
        return Err(FunTalError::driver("`funtal lint` needs at least one file"));
    }
    let p = pipeline(o);
    let mut diags = Vec::new();
    // Files keep their command-line order; findings within a file are
    // already in the deterministic normal form.
    for file in &o.files {
        let src = read_file(file)?;
        if file.ends_with(".mf") {
            diags.extend(p.lint_minif_source(file, &src)?);
        } else {
            diags.extend(p.lint_source(file, &src)?);
        }
    }
    let count = |s| diags.iter().filter(|d| d.severity == s).count();
    let errors = count(funtal::Severity::Error);
    let warnings = count(funtal::Severity::Warning);
    let notes = count(funtal::Severity::Note);
    if o.format == "json" {
        println!("{}", lint_json(&diags, o.files.len()));
    } else {
        for d in &diags {
            println!("{}", render_diag(d));
        }
        println!(
            "lint: {errors} error(s), {warnings} warning(s), {notes} note(s) in {} file(s)",
            o.files.len()
        );
    }
    if errors > 0 {
        return Err(FunTalError::driver(format!("lint found {errors} error(s)")));
    }
    if o.deny_warnings && warnings > 0 {
        return Err(FunTalError::driver(format!(
            "lint found {warnings} warning(s) (denied by --deny warnings)"
        )));
    }
    Ok(())
}

fn cmd_equiv(o: &Opts) -> Result<(), FunTalError> {
    let (a, b) = match o.files.as_slice() {
        [a, b] => (a, b),
        _ => {
            return Err(FunTalError::driver(
                "`funtal equiv` takes exactly two files",
            ))
        }
    };
    let (ty, verdict) = pipeline(o).equiv_source(&read_file(a)?, &read_file(b)?)?;
    println!("type:    {ty}");
    println!("verdict: {verdict}");
    if !verdict.is_equiv() {
        return Err(FunTalError::driver("programs are observably different"));
    }
    Ok(())
}

/// Builds the job list for `funtal batch`: `.jsonl`/`.json` files (or
/// `-` for stdin) are JSON-lines job streams; `.ft` files become `run`
/// jobs and `.mf` files `compile` jobs, with ids from the file path.
fn batch_jobs(o: &Opts) -> Result<Vec<Job>, FunTalError> {
    let mut jobs = Vec::new();
    for file in &o.files {
        if file == "-" {
            jobs.extend(read_jobs(std::io::stdin().lock(), "<stdin>")?);
        } else if file.ends_with(".jsonl") || file.ends_with(".json") {
            let f = std::fs::File::open(file).map_err(|e| FunTalError::io(file, e))?;
            jobs.extend(read_jobs(std::io::BufReader::new(f), file)?);
        } else if file.ends_with(".mf") {
            let mut job = Job::compile(file.clone(), read_file(file)?);
            if let (
                Job {
                    kind: JobKind::Compile { tco, call, .. },
                    ..
                },
                true,
            ) = (&mut job, o.tco || o.call.is_some())
            {
                *tco = o.tco;
                call.clone_from(&o.call);
            }
            jobs.push(job);
        } else if file.ends_with(".ft") {
            jobs.push(Job::run(file.clone(), read_file(file)?));
        } else {
            return Err(FunTalError::driver(format!(
                "`funtal batch`: cannot tell what `{file}` is \
                 (use .jsonl/.json job files, .ft, .mf, or `-` for stdin)"
            )));
        }
    }
    if jobs.is_empty() {
        return Err(FunTalError::driver(
            "`funtal batch` needs at least one job (a .jsonl file, `-`, or .ft/.mf files)",
        ));
    }
    if o.repeat > 1 {
        let base = jobs.clone();
        for r in 2..=o.repeat {
            jobs.extend(base.iter().map(|j| Job {
                id: format!("{}#{r}", j.id),
                kind: j.kind.clone(),
            }));
        }
    }
    Ok(jobs)
}

/// Opens the persistent verdict store named by `--store-dir`, if any.
fn open_store(o: &Opts) -> Result<Option<std::sync::Arc<funtal_driver::DiskStore>>, FunTalError> {
    match &o.store_dir {
        None => Ok(None),
        Some(dir) => funtal_driver::DiskStore::open(dir, o.store_cap)
            .map(|s| Some(std::sync::Arc::new(s)))
            .map_err(|e| FunTalError::io(dir, e)),
    }
}

/// A batch/serve engine cache, disk-backed when `--store-dir` is given.
fn engine_cache(o: &Opts) -> Result<std::sync::Arc<funtal_driver::ArtifactCache>, FunTalError> {
    Ok(std::sync::Arc::new(match open_store(o)? {
        Some(store) => funtal_driver::ArtifactCache::with_store(store),
        None => funtal_driver::ArtifactCache::new(),
    }))
}

fn cmd_batch(o: &Opts) -> Result<(), FunTalError> {
    let jobs = batch_jobs(o)?;
    let engine = Batch::new(pipeline(o))
        .with_workers(o.workers)
        .with_cache(engine_cache(o)?);
    let report = engine.run(&jobs);
    print!("{}", report.result_lines());
    println!("{}", report.summary_json());
    if report.err_count() > 0 {
        return Err(FunTalError::driver(format!(
            "{} of {} job(s) failed",
            report.err_count(),
            jobs.len()
        )));
    }
    Ok(())
}

fn cmd_serve(o: &Opts) -> Result<(), FunTalError> {
    if !o.files.is_empty() {
        return Err(FunTalError::driver(
            "`funtal serve` reads jobs from stdin (no file arguments)",
        ));
    }
    if o.workers > 1 {
        return Err(FunTalError::driver(
            "`funtal serve` processes requests in arrival order (one at a time); \
             `--workers` applies to `funtal batch`",
        ));
    }
    let engine = Batch::new(pipeline(o)).with_cache(engine_cache(o)?);
    let mut served = 0usize;
    let mut failed = 0usize;
    // Ends at EOF, when the client hangs up.
    for job in Job::read_jsonl(std::io::stdin().lock()) {
        use std::io::Write;
        let job = job.map_err(|e| FunTalError::io("<stdin>", e))?;
        served += 1;
        let outcome = engine.run_job(&job);
        if outcome.result.is_err() {
            failed += 1;
        }
        println!("{}", outcome.to_json());
        std::io::stdout().flush().ok();
    }
    // The parting summary goes to stderr so stdout stays pure
    // protocol — the same schema `funtal batch` prints, via the one
    // shared renderer.
    eprintln!(
        "{}",
        funtal_driver::batch::render_summary(
            &engine.cache().stats(),
            engine.cache().store_stats().as_ref(),
            served,
            served - failed,
            failed,
            engine.workers(),
        )
    );
    Ok(())
}

/// `funtal store stats|gc|verify --store-dir DIR`: offline maintenance
/// of the persistent verdict store.
fn cmd_store(o: &Opts) -> Result<(), FunTalError> {
    use funtal_store::{parse_container, Stage};
    let action = match o.files.as_slice() {
        [a] => a.as_str(),
        _ => {
            return Err(FunTalError::driver(
                "`funtal store` takes exactly one action: stats, gc, or verify",
            ))
        }
    };
    let Some(dir) = &o.store_dir else {
        return Err(FunTalError::driver("`funtal store` needs --store-dir DIR"));
    };
    let store =
        funtal_driver::DiskStore::open(dir, o.store_cap).map_err(|e| FunTalError::io(dir, e))?;
    let io_err = |e: std::io::Error| FunTalError::io(dir, e);
    match action {
        "stats" => {
            let mut total_entries = 0usize;
            let mut total_bytes = 0u64;
            println!("store: {dir} (cap: {} bytes)", store.cap_bytes());
            for stage in Stage::ALL {
                let entries = store.entries(stage).map_err(io_err)?;
                let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
                total_entries += entries.len();
                total_bytes += bytes;
                println!(
                    "{:<8} {} entrie(s), {} byte(s)",
                    format!("{}:", stage.dir()),
                    entries.len(),
                    bytes
                );
            }
            println!("total:   {total_entries} entrie(s), {total_bytes} byte(s)");
            Ok(())
        }
        "gc" => {
            let report = store.gc().map_err(io_err)?;
            println!(
                "gc: examined {}, removed {}, {} -> {} byte(s) (cap: {})",
                report.examined,
                report.removed,
                report.bytes_before,
                report.bytes_after,
                store.cap_bytes()
            );
            Ok(())
        }
        "verify" => {
            // A read-only walk: every entry's container must parse for
            // its own stage and its payload must decode through
            // `artifact::decode` — the exact gate a load applies,
            // without counters or deletions.
            let mut ok = 0usize;
            let mut corrupt = 0usize;
            for entry in store.all_entries().map_err(io_err)? {
                let bytes = std::fs::read(&entry.path).map_err(io_err)?;
                let verdict = parse_container(&bytes, Some(entry.stage), None)
                    .map_err(|e| e.to_string())
                    .and_then(|(stage, key, payload)| {
                        funtal_driver::artifact::decode(stage, &key, &payload)
                    });
                match verdict {
                    Ok(_) => ok += 1,
                    Err(msg) => {
                        corrupt += 1;
                        println!("corrupt: {} ({msg})", entry.path.display());
                    }
                }
            }
            println!("verify: {ok} entrie(s) OK, {corrupt} corrupt");
            if corrupt > 0 {
                return Err(FunTalError::driver(format!(
                    "store verify found {corrupt} corrupt entrie(s)"
                )));
            }
            Ok(())
        }
        other => Err(FunTalError::driver(format!(
            "`funtal store`: unknown action `{other}` (use stats, gc, or verify)"
        ))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `funtal help`, `funtal --help`, or `-h`/`--help` anywhere.
    if matches!(cmd.as_str(), "-h" | "--help" | "help")
        || args.iter().any(|a| a == "-h" || a == "--help")
    {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let rest = &args[1..];
    let result = parse_args(rest).and_then(|o| match cmd.as_str() {
        "check" => cmd_check(&o),
        "run" => cmd_run(&o),
        "trace" => cmd_trace(&o),
        "profile" => cmd_profile(&o),
        "compile" => cmd_compile(&o),
        "lint" => cmd_lint(&o),
        "equiv" => cmd_equiv(&o),
        "batch" => cmd_batch(&o),
        "serve" => cmd_serve(&o),
        "store" => cmd_store(&o),
        other => Err(FunTalError::driver(format!(
            "unknown command `{other}` (try `funtal --help`)"
        ))),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // The canonical `error[stage][ at l:c]: message` rendering
            // is FunTalError's Display — one path for CLI and batch.
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
