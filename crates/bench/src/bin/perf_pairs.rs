//! Paired perfbench runs of two builds, summarised by the pairing rule.
//!
//! ```text
//! perf_pairs <BENCHMARK.json> <BASE_BIN> <CHANGE_BIN> <WORKLOAD> <SEED> [PAIRS]
//! ```
//!
//! Runs `PAIRS` (default 10) pairs of the two perfbench executables on
//! one workload and seed, at `BENCHMARK.json`'s `run_seconds`, with
//! `--trace 0`. Pairs alternate which side runs first. Each run's last
//! output line is its JSON summary; the raw lines go to standard error
//! as they arrive. For every end-to-end metric of `BENCHMARK.json` the
//! summary then prints both sides' medians and quartiles and the
//! change's wins (ties count for neither side), and a verdict:
//!
//! - `gain`: the change won at least nine tenths of the pairs and the
//!   medians differ by more than the base's interquartile range;
//! - `worse`: the change's median is worse than the base's by more
//!   than the metric's bound;
//! - `unresolved`: the base's own interquartile range is wider than the
//!   bound, so "no worse" cannot be told;
//! - `flat` otherwise.
//!
//! The run also fails (exit 1) when any run reports failed jobs.
//! `just perf-pairs` builds both sides and calls this.

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode};

use funtal_driver::json::Json;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn read_benchmark(path: &str) -> Result<(u64, Vec<Metric>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let seconds = j
        .get("run_seconds")
        .and_then(Json::as_i64)
        .ok_or(format!("{path}: no run_seconds"))?;
    let Some(Json::Arr(rows)) = j.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    let metric = |m: &Json| -> Option<Metric> {
        Some(Metric {
            name: m.get("name")?.as_str()?.to_string(),
            unit: m.get("unit")?.as_str()?.to_string(),
            higher_is_better: m.get("better")?.as_str()? == "higher",
            bound: num(m.get("bound")?)?,
        })
    };
    let metrics = rows
        .iter()
        .map(|m| metric(m).ok_or(format!("{path}: malformed end_to_end entry")))
        .collect::<Result<_, _>>()?;
    Ok((seconds as u64, metrics))
}

/// Runs one perfbench executable and returns its JSON summary line.
fn run(bin: &str, workload: &str, seed: &str, seconds: u64) -> Result<Json, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", seed, "--trace", "0"])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{bin} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    eprintln!("{bin}: {last}");
    Json::parse(last).map_err(|e| format!("{bin}: last line is not JSON: {e}"))
}

fn metric_value(summary: &Json, name: &str) -> Option<f64> {
    num(summary.get("metrics")?.get(name)?.get("value")?)
}

/// The `q`-quantile of sorted `xs`, interpolating linearly.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// `x` to four significant digits.
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let digits = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.digits$}")
}

/// Median, first and third quartile.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    (quantile(&s, 0.5), quantile(&s, 0.25), quantile(&s, 0.75))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !(5..=6).contains(&args.len()) {
        eprintln!(
            "usage: perf_pairs <BENCHMARK.json> <BASE_BIN> <CHANGE_BIN> <WORKLOAD> <SEED> [PAIRS]"
        );
        return ExitCode::FAILURE;
    }
    match pairs(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_pairs: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the pairs and prints the summary; `Ok(false)` when a run
/// reported failed jobs.
fn pairs(args: &[String]) -> Result<bool, String> {
    let [benchmark, base, change, workload, seed] = &args[..5] else {
        unreachable!("main checks the argument count")
    };
    let n: usize = match args.get(5) {
        Some(p) => p.parse().map_err(|e| format!("PAIRS: {e}"))?,
        None => 10,
    };
    if n == 0 {
        return Err("PAIRS must be at least 1".to_string());
    }
    let (seconds, metrics) = read_benchmark(benchmark)?;
    let mut runs: Vec<(Json, Json)> = Vec::with_capacity(n);
    for i in 0..n {
        let (b, c) = if i % 2 == 0 {
            let b = run(base, workload, seed, seconds)?;
            (b, run(change, workload, seed, seconds)?)
        } else {
            let c = run(change, workload, seed, seconds)?;
            (run(base, workload, seed, seconds)?, c)
        };
        runs.push((b, c));
    }
    let failed: i64 = runs
        .iter()
        .flat_map(|(b, c)| [b, c])
        .filter_map(|r| r.get("failed").and_then(Json::as_i64))
        .sum();
    println!("{workload}, seed {seed}, {n} pairs at --seconds {seconds}; failed jobs: {failed}");
    println!(
        "{:<14} {:>6} {:>30} {:>30} {:>7}  verdict",
        "metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for m in &metrics {
        let pairs: Vec<(f64, f64)> = runs
            .iter()
            .filter_map(|(b, c)| Some((metric_value(b, &m.name)?, metric_value(c, &m.name)?)))
            .collect();
        if pairs.len() != n {
            println!("{:<14} missing from some runs", m.name);
            continue;
        }
        let better = |c: f64, b: f64| if m.higher_is_better { c > b } else { c < b };
        let wins = pairs.iter().filter(|(b, c)| better(*c, *b)).count();
        let (bm, bq1, bq3) = quartiles(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let (cm, cq1, cq3) = quartiles(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        let worse_by = if m.higher_is_better {
            (bm - cm) / bm
        } else {
            (cm - bm) / bm
        };
        let verdict = if wins * 10 >= 9 * n && (cm - bm).abs() > bq3 - bq1 {
            "gain"
        } else if worse_by > m.bound {
            "worse"
        } else if (bq3 - bq1) / bm > m.bound {
            "unresolved"
        } else {
            "flat"
        };
        println!(
            "{:<14} {:>6} {:>30} {:>30} {:>4}/{:<2}  {verdict}",
            m.name,
            m.unit,
            format!("{} [{}, {}]", sig(bm), sig(bq1), sig(bq3)),
            format!("{} [{}, {}]", sig(cm), sig(cq1), sig(cq3)),
            wins,
            n
        );
    }
    Ok(failed == 0)
}
