//! End-to-end and per-layer benchmark of the FunTAL job engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot|cold_compile|store_restart --seed N --seconds S --trace 0|1
//! ```
//!
//! One client on one thread drives `funtal-driver`'s public API the way
//! `funtal serve` does: `Json::parse` → `Job::from_json` →
//! `Batch::run_job` → `JobOutcome::to_json().to_string()`. Every result
//! line is compared with a reference computed before any timer starts.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! same jobs with a span around each layer and prints the per-layer
//! metrics. The last line of standard output is one JSON object. See
//! README.md for the workloads and the metric definitions.

mod gen;
mod replay;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::{median, nearest_rank, ratio};
use trace::{Layer, Tag, Totals};
use workload::{Counts, PassResult, Prepared, Workload};

/// Where the benchmark keeps its working files (the store of
/// `store_restart`), relative to the directory it runs in.
const WORK_DIR: &str = ".perfbench-work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload `{name}` (use serve_hot, cold_compile or store_restart)"
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Removes the run's working directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(Path::new(WORK_DIR).join(format!("run-{}", std::process::id())));
    let passes = args.workload.passes(args.seconds);
    let started = std::time::Instant::now();
    let prep = workload::prepare(
        args.workload,
        args.seed,
        if args.trace { 2 * passes } else { passes },
        &work.0,
    );
    let mut out = format!(
        "prepared jobs and references in {:.2} s (untimed)\n",
        started.elapsed().as_secs_f64()
    );
    let run = Run::measure(&prep, passes, args.trace);
    let result = if args.trace {
        let spans = Path::new(WORK_DIR).join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        run.report_layers(&mut out, &prep, &spans)
    } else {
        run.report_end_to_end(&mut out, &prep)
    };
    print!("{out}");
    println!("{result}");
    drop(work);
    ExitCode::SUCCESS
}

/// Every pass of a run, untraced first, then (with `--trace 1`) traced.
struct Run {
    untraced: Vec<PassResult>,
    traced: Vec<PassResult>,
    attempted: usize,
    failed: usize,
    /// Traced passes whose result lines differ from the untraced
    /// engine's for the same job lines.
    replay_mismatches: usize,
}

impl Run {
    fn measure(prep: &Prepared, passes: usize, trace: bool) -> Run {
        let untraced: Vec<PassResult> = (0..passes)
            .map(|i| workload::run_pass(prep, i, false))
            .collect();
        let traced: Vec<PassResult> = if trace {
            (passes..2 * passes)
                .map(|i| workload::run_pass(prep, i, true))
                .collect()
        } else {
            Vec::new()
        };
        let attempted = untraced
            .iter()
            .chain(&traced)
            .map(|p| p.latency_us.len() + prep.warmup.len())
            .sum();
        let failed = untraced.iter().chain(&traced).map(|p| p.failed).sum();
        // The replay must print what the engine prints for the same job
        // lines. In `store_restart` every restart serves new programs, so
        // no untraced pass shares a traced pass's lines; there both are
        // held to the reference line by line.
        let replay_mismatches = traced
            .iter()
            .filter_map(|t| {
                let same = |u: &&PassResult| prep.passes[u.index] == prep.passes[t.index];
                untraced.iter().find(same).map(|u| t.digest != u.digest)
            })
            .filter(|differs| *differs)
            .count();
        Run {
            untraced,
            traced,
            attempted,
            failed,
            replay_mismatches,
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.replay_mismatches == 0
    }

    fn result_json(&self, metrics: &[(String, f64, &str)]) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed + self.replay_mismatches,
        )
    }

    fn header(&self, out: &mut String, prep: &Prepared, passes: &[PassResult]) {
        let jobs: usize = passes.iter().map(|p| p.latency_us.len()).sum();
        let _ = writeln!(
            out,
            "workload {}: {} passes, {} timed jobs, {} warm-up jobs per pass; one client, one thread",
            prep.workload.name(),
            passes.len(),
            jobs,
            prep.warmup.len(),
        );
        let _ = writeln!(
            out,
            "jobs attempted {}, jobs failed {}",
            self.attempted,
            self.failed + self.replay_mismatches
        );
        class_table(out, prep, passes);
        if let Some((start, end)) = entry_counts(passes) {
            let _ = writeln!(
                out,
                "store entries: {start} at the first restart, {end} after the last"
            );
        }
    }

    fn report_end_to_end(&self, out: &mut String, prep: &Prepared) -> String {
        let passes = &self.untraced;
        self.header(out, prep, passes);
        let (p50, p99, samples) = percentiles(passes);
        let metrics = vec![
            ("jobs_per_s".to_string(), jobs_per_s(passes), "1/s"),
            ("job_p50_us".to_string(), p50, "us"),
            ("job_p99_us".to_string(), p99, "us"),
            (
                "setup_s".to_string(),
                median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
                "s",
            ),
            ("peak_rss_mib".to_string(), peak_rss_mib(), "MiB"),
        ];
        let mut per_pass: Vec<f64> = passes
            .iter()
            .map(|p| p.latency_us.len() as f64 / p.wall_s)
            .collect();
        per_pass.sort_by(f64::total_cmp);
        let _ = writeln!(
            out,
            "jobs_per_s by pass: min {:.0}, median {:.0}, max {:.0}; {samples} timed jobs, {} per pass; p50 and p99 are medians over passes",
            per_pass[0],
            median(&per_pass),
            per_pass[per_pass.len() - 1],
            samples / passes.len(),
        );
        for (name, value, unit) in &metrics {
            let _ = writeln!(out, "  {name:<14} {value:>14.3} {unit}");
        }
        self.result_json(&metrics)
    }

    /// The per-layer metrics of the traced passes. The first traced
    /// pass's spans are written to `spans` as JSON lines.
    fn report_layers(&self, out: &mut String, prep: &Prepared, spans: &Path) -> String {
        let passes = &self.traced;
        self.header(out, prep, passes);
        let mut totals = Totals::default();
        let mut counters = replay::Counters::default();
        for pass in passes {
            let (spans, c) = pass.trace.as_ref().expect("traced passes carry spans");
            totals.add(spans);
            counters += *c;
        }
        let first = &passes[0]
            .trace
            .as_ref()
            .expect("traced passes carry spans")
            .0;
        let written = std::fs::create_dir_all(WORK_DIR)
            .and_then(|()| std::fs::write(spans, trace::spans_jsonl(first)));
        let _ = match written {
            Ok(()) => writeln!(out, "spans of the first traced pass: {}", spans.display()),
            Err(e) => writeln!(out, "spans not written to {}: {e}", spans.display()),
        };
        let jobs = totals.roots as f64;
        let total_ns = totals.root_ns as f64;
        let us_per_job = |ns: u64| ns as f64 / 1e3 / jobs;
        let share = |ns: u64| ratio(ns as f64, total_ns);
        let mut m: Vec<(String, f64, &str)> = Vec::new();
        let mut put =
            |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));
        for layer in [Layer::Json, Layer::Batch, Layer::Cache] {
            let ns = totals.self_ns(layer);
            put(
                &format!("{}.self_us_per_job", layer.name()),
                us_per_job(ns),
                "us",
            );
            put(&format!("{}.share", layer.name()), share(ns), "ratio");
        }
        let cache = passes.iter().fold([Counts::default(); 4], |t, p| {
            std::array::from_fn(|i| t[i].plus(p.cache[i]))
        });
        for (stage, c) in ["parse", "check", "lower", "compile"].iter().zip(cache) {
            put(
                &format!("cache.{stage}.hit_ratio"),
                ratio(c.hits as f64, (c.hits + c.misses) as f64),
                "ratio",
            );
        }
        put("cache.lower.rejects", cache[2].rejects as f64, "count");

        let (load_ns, loads) = totals.tagged(Layer::Cache, Tag::DiskHit);
        let (save_ns, saves) = totals.tagged(Layer::Cache, Tag::Wrote);
        let (disk, evicted) = passes
            .iter()
            .filter_map(|p| p.store.as_ref())
            .fold((Counts::default(), 0), |(c, e), s| {
                (c.plus(s.disk), e + s.evicted)
            });
        let (entries_start, entries_end) = entry_counts(passes).unwrap_or((0, 0));
        put(
            "store.load_us_per_hit",
            ratio(load_ns as f64 / 1e3, loads as f64),
            "us",
        );
        put(
            "store.save_us_per_write",
            ratio(save_ns as f64 / 1e3, saves as f64),
            "us",
        );
        put("store.share", share(load_ns + save_ns), "ratio");
        put("store.hits", disk.hits as f64, "count");
        put("store.misses", disk.misses as f64, "count");
        put("store.rejects", disk.rejects as f64, "count");
        put("store.evicted", evicted as f64, "count");
        put(
            "store.hit_ratio",
            ratio(disk.hits as f64, (disk.hits + disk.misses) as f64),
            "ratio",
        );
        put("store.entries_start", entries_start as f64, "count");
        put("store.entries_end", entries_end as f64, "count");

        let parser_ns = totals.self_ns(Layer::Parser);
        put("parser.calls", counters.parser_calls as f64, "count");
        put("parser.self_us_per_job", us_per_job(parser_ns), "us");
        put("parser.share", share(parser_ns), "ratio");
        put(
            "parser.ns_per_byte",
            ratio(parser_ns as f64, counters.parser_bytes as f64),
            "ns/byte",
        );
        let check_ns = totals.self_ns(Layer::Check);
        put("check.calls", counters.check_calls as f64, "count");
        put("check.errors", counters.check_errors as f64, "count");
        put("check.self_us_per_job", us_per_job(check_ns), "us");
        put("check.share", share(check_ns), "ratio");
        let compile_ns = totals.self_ns(Layer::Compile);
        put("compile.calls", counters.compile_calls as f64, "count");
        put("compile.blocks", counters.compile_blocks as f64, "count");
        put("compile.self_us_per_job", us_per_job(compile_ns), "us");
        put("compile.share", share(compile_ns), "ratio");
        let lower_ns = totals.self_ns(Layer::Lower);
        put("lower.calls", counters.lower_calls as f64, "count");
        put("lower.modules", counters.lower_modules as f64, "count");
        put("lower.self_us_per_job", us_per_job(lower_ns), "us");
        put("lower.share", share(lower_ns), "ratio");
        let eval_ns = totals.self_ns(Layer::Eval);
        put(
            "eval.env_self_us_per_job",
            us_per_job(totals.tagged(Layer::Eval, Tag::Env).0),
            "us",
        );
        put(
            "eval.bc_self_us_per_job",
            us_per_job(totals.tagged(Layer::Eval, Tag::Bytecode).0),
            "us",
        );
        put("eval.share", share(eval_ns), "ratio");
        put("eval.steps", counters.eval_steps as f64, "count");
        put("eval.crossings", counters.eval_crossings as f64, "count");
        put(
            "eval.ns_per_step",
            ratio(eval_ns as f64, counters.eval_steps as f64),
            "ns/step",
        );
        let overhead = jobs_per_s(&self.traced) / jobs_per_s(&self.untraced);
        put("trace.overhead", overhead, "ratio");

        let _ = writeln!(
            out,
            "traced replay over {} jobs: result lines {} the untraced engine's; traced/untraced jobs_per_s {overhead:.3}",
            totals.roots,
            if self.replay_mismatches == 0 { "byte-identical to" } else { "DIFFER from" },
        );
        let has_store = prep.store.is_some();
        for (name, value, unit) in &m {
            // Store metrics mean nothing without a store: the JSON line
            // carries them (as measured, all zero) but the table skips them.
            if has_store || !name.starts_with("store.") {
                let _ = writeln!(out, "  {name:<26} {value:>14.4} {unit}");
            }
        }
        self.result_json(&m)
    }
}

/// Median over passes of jobs per wall-clock second.
fn jobs_per_s(passes: &[PassResult]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.latency_us.len() as f64 / p.wall_s)
            .collect::<Vec<_>>(),
    )
}

/// The medians over passes of each pass's p50 and p99 latency, and the
/// number of timed jobs. Taking each percentile within a pass and the
/// median across passes keeps a burst of interference from the host,
/// which stalls only the passes it overlaps, out of the reported tail.
fn percentiles(passes: &[PassResult]) -> (f64, f64, usize) {
    let per_pass = |q: f64| {
        let values: Vec<f64> = passes
            .iter()
            .map(|p| {
                let mut l = p.latency_us.clone();
                l.sort_by(f64::total_cmp);
                nearest_rank(&l, q)
            })
            .collect();
        median(&values)
    };
    let samples = passes.iter().map(|p| p.latency_us.len()).sum();
    (per_pass(0.50), per_pass(0.99), samples)
}

fn entry_counts(passes: &[PassResult]) -> Option<(usize, usize)> {
    let first = passes.first()?.store.as_ref()?;
    let last = passes.last()?.store.as_ref()?;
    Some((first.entries_before, last.entries_after))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Per class: share of jobs, share of time, median latency; which class
/// holds the p50 and p99 ranks; and whether either rank sits within half
/// a percentage point of a class boundary (classes ordered by median
/// latency), where a small shift in the mix would move it to another
/// class.
fn class_table(out: &mut String, prep: &Prepared, passes: &[PassResult]) {
    let names = prep.workload.classes();
    let mut samples: Vec<(f64, usize)> = Vec::new();
    for pass in passes {
        for (j, lat) in prep.passes[pass.index].iter().zip(&pass.latency_us) {
            samples.push((*lat, j.class));
        }
    }
    if samples.is_empty() {
        return;
    }
    let n = samples.len() as f64;
    let total: f64 = samples.iter().map(|s| s.0).sum();
    let mut rows: Vec<(usize, f64, f64, f64)> = (0..names.len())
        .filter_map(|c| {
            let lats: Vec<f64> = samples.iter().filter(|s| s.1 == c).map(|s| s.0).collect();
            (!lats.is_empty()).then(|| {
                (
                    c,
                    lats.len() as f64 / n,
                    lats.iter().sum::<f64>() / total,
                    median(&lats),
                )
            })
        })
        .collect();
    rows.sort_by(|a, b| a.3.total_cmp(&b.3));
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let holder = |q: f64| names[samples[stats::rank_index(samples.len(), q)].1];
    let _ = writeln!(
        out,
        "  {:<13} {:>8} {:>8} {:>12}",
        "class", "jobs", "time", "p50_us"
    );
    let mut cumulative = 0.0;
    let mut near = Vec::new();
    for (c, jobs, time, p50) in &rows {
        let _ = writeln!(
            out,
            "  {:<13} {:>7.1}% {:>7.1}% {:>12.2}",
            names[*c],
            jobs * 100.0,
            time * 100.0,
            p50
        );
        cumulative += jobs;
        for q in [0.50, 0.99] {
            if (cumulative - q).abs() < 0.005 && cumulative < 0.9999 {
                near.push(format!("p{:.0} near the {} boundary", q * 100.0, names[*c]));
            }
        }
    }
    let _ = writeln!(
        out,
        "  p50 rank in {}, p99 rank in {}; mix check: {}",
        holder(0.50),
        holder(0.99),
        if near.is_empty() {
            "no percentile within 0.5 pp of a class boundary".to_string()
        } else {
            near.join(", ")
        }
    );
}
