//! Regression gate over benchmark snapshots.
//!
//! ```text
//! bench_check <BASELINE.json> <CURRENT.json> [--threshold 1.25]
//!             [--prefix P]... [--speedup BASE:CUR:FACTOR]...
//!             [--min-abs-us 10]
//! ```
//!
//! Compares every benchmark in `BASELINE` matched by a gate entry —
//! entries ending in `/` gate a whole group by prefix, other entries
//! gate exactly one row id — against the same id in `CURRENT`, and
//! exits non-zero when any row regressed by more than the threshold
//! factor, or when a gated row disappeared. Defaults:
//! `interpreted_vs_compiled/`, `tail_call_ablation/`, the headline
//! bytecode row `fib_steady/bytecode/24`, and the single-threaded
//! batch rows `batch_throughput/workers/1` + `batch_throughput/warm/1`
//! (exact ids — the multi-worker rows are recorded but not gated,
//! because machine-speed calibration cannot correct for core-count
//! differences between hosts, and the short `fib_steady/bytecode/16`
//! and `/20` rows are recorded but not gated because their sub-3ms
//! medians swing by double-digit percentages run-to-run on a shared
//! host). Rows are judged on their **median** ns/iter
//! (falling back to the mean for snapshots that lack one): medians
//! ride out background-load spikes that can swing the mean of a short
//! measurement by tens of percent on a busy host.
//!
//! `--speedup BASE:CUR:FACTOR` additionally asserts a cross-row
//! speedup: the `CUR` row of `CURRENT` must be at least `FACTOR`×
//! faster than the `BASE` row of `BASELINE` (after machine-speed
//! calibration). Passing one snapshot as both files compares two rows
//! of the same run; CI pins the fast machine's lead over the Fig 8
//! oracle (`strategy_ablation/{substitution,environment}/12`) that way.
//!
//! `--min-abs-us N` (default 10) is the absolute-time noise floor: a
//! gated row whose baseline **and** current medians are both under N
//! microseconds is reported but can never fail the regression check.
//! Sub-floor rows measure so little work that scheduler jitter alone
//! produces double-digit ratios; they stay in the snapshot (and the
//! calibration sample) so trends remain visible, without flaking the
//! gate. Cross-row `--speedup` assertions ignore the floor — they
//! compare two rows that are both deliberately sized to be measurable.
//!
//! Snapshots from different machines are made comparable by
//! **calibration** (on by default, `--no-calibrate` disables): the
//! median current/baseline ratio over the *non-gated* rows estimates
//! the machine-speed factor between the two measurements, and gated
//! ratios are judged relative to it. A uniformly slower CI runner thus
//! passes, while a change that slows the gated runtime paths relative
//! to the rest of the suite fails.
//!
//! The files are the `BENCH_OUTPUT` snapshots of the vendored
//! criterion shim (one `{"id": …, "mean_ns": …}` object per line), so
//! a dependency-free line parser is enough.

#![forbid(unsafe_code)]

use std::process::ExitCode;

#[derive(Debug)]
struct Row {
    id: String,
    /// The gated statistic: median ns/iter, or the mean when the
    /// snapshot has no median.
    ns: f64,
}

fn parse_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(id) = field_str(line, "\"id\":") else {
            continue;
        };
        let Some(ns) =
            field_num(line, "\"median_ns\":").or_else(|| field_num(line, "\"mean_ns\":"))
        else {
            return Err(format!("{path}: row `{id}` has no median_ns/mean_ns"));
        };
        rows.push(Row {
            id: id.to_string(),
            ns,
        });
    }
    if rows.is_empty() {
        return Err(format!("{path}: no benchmark rows found"));
    }
    Ok(rows)
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    let close = rest.find('"')?;
    Some(&rest[..close])
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = line[line.find(key)? + key.len()..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut threshold = 1.25f64;
    let mut min_abs_us = 10.0f64;
    let mut calibrate = true;
    let mut prefixes: Vec<String> = Vec::new();
    let mut speedups: Vec<(String, String, f64)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(t) => t,
                    None => {
                        eprintln!("--threshold needs a number");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--min-abs-us" => {
                i += 1;
                min_abs_us = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(t) => t,
                    None => {
                        eprintln!("--min-abs-us needs a number");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--no-calibrate" => calibrate = false,
            "--prefix" => {
                i += 1;
                match args.get(i) {
                    Some(p) => prefixes.push(p.clone()),
                    None => {
                        eprintln!("--prefix needs a value");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--speedup" => {
                i += 1;
                let spec = args.get(i).map(String::as_str).unwrap_or("");
                let parts: Vec<&str> = spec.split(':').collect();
                let parsed = match parts.as_slice() {
                    [base, cur, factor] => factor
                        .parse::<f64>()
                        .ok()
                        .map(|f| (base.to_string(), cur.to_string(), f)),
                    _ => None,
                };
                match parsed {
                    Some(s) => speedups.push(s),
                    None => {
                        eprintln!("--speedup needs BASE_ID:CUR_ID:FACTOR");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => files.push(other.to_string()),
        }
        i += 1;
    }
    if prefixes.is_empty() {
        prefixes = vec![
            "interpreted_vs_compiled/".to_string(),
            "tail_call_ablation/".to_string(),
            // The bytecode VM's headline steady-state row
            // (exact id). The interpreted/compiled fib_steady rows and
            // the short bytecode/16 + /20 rows stay ungated — they
            // feed the calibration sample instead, and the short rows'
            // sub-3ms medians are too volatile on a shared host to
            // gate honestly at any reasonable threshold.
            "fib_steady/bytecode/24".to_string(),
            // Only the single-threaded batch rows: calibration (below)
            // is measured on single-threaded rows, so it can correct
            // for clock speed but not for core count — gating
            // workers/{2,8} would false-fail whenever the snapshot
            // host and the runner have different parallelism.
            "batch_throughput/workers/1".to_string(),
            "batch_throughput/warm/1".to_string(),
        ];
    }
    let [baseline, current] = files.as_slice() else {
        eprintln!(
            "usage: bench_check <BASELINE.json> <CURRENT.json> \
             [--threshold F] [--min-abs-us N] [--no-calibrate] \
             [--prefix P]... [--speedup BASE:CUR:FACTOR]..."
        );
        return ExitCode::FAILURE;
    };

    let (base, cur) = match (parse_rows(baseline), parse_rows(current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Machine-speed calibration from the rows we are *not* gating.
    // Multi-threaded rows are excluded from the sample even when
    // ungated: they vary with the host's core count, not its speed,
    // and would skew the estimate between hosts with different
    // parallelism.
    // A gate entry ending in `/` is a prefix (gates the whole group);
    // anything else matches one row exactly, so gating
    // `batch_throughput/workers/1` can never swallow a future
    // `workers/16` row.
    let gated = |id: &str| {
        prefixes.iter().any(|p| {
            if p.ends_with('/') {
                id.starts_with(p.as_str())
            } else {
                id == p
            }
        })
    };
    let calibration_row = |id: &str| !gated(id) && !id.starts_with("batch_throughput/");
    let speed = if calibrate {
        let mut ratios: Vec<f64> = base
            .iter()
            .filter(|r| calibration_row(&r.id))
            .filter_map(|r| cur.iter().find(|c| c.id == r.id).map(|c| c.ns / r.ns))
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        match ratios.as_slice() {
            [] => 1.0,
            rs => rs[rs.len() / 2],
        }
    } else {
        1.0
    };
    println!("machine-speed calibration factor: {speed:.3}");

    let mut failures = 0usize;
    let mut checked = 0usize;
    for row in base.iter().filter(|r| gated(&r.id)) {
        checked += 1;
        match cur.iter().find(|c| c.id == row.id) {
            None => {
                eprintln!("FAIL {}: missing from {current}", row.id);
                failures += 1;
            }
            Some(c) => {
                let ratio = c.ns / row.ns / speed;
                // The absolute-time noise floor: when both medians are
                // under it, the row is too short to gate honestly —
                // record the comparison, never fail it.
                let floor_ns = min_abs_us * 1000.0;
                let below_floor = row.ns < floor_ns && c.ns < floor_ns;
                let fail = ratio > threshold && !below_floor;
                let verdict = if fail {
                    "FAIL"
                } else if ratio > threshold {
                    "ok~ " // over threshold but under the noise floor
                } else {
                    "ok  "
                };
                println!(
                    "{verdict} {:<44} {:>12.1} -> {:>12.1} ns  ({:+.1}%){}",
                    row.id,
                    row.ns,
                    c.ns,
                    (ratio - 1.0) * 100.0,
                    if below_floor {
                        format!("  [below {min_abs_us}us floor]")
                    } else {
                        String::new()
                    }
                );
                if fail {
                    failures += 1;
                }
            }
        }
    }
    if checked == 0 {
        eprintln!("error: no gated rows matched prefixes {prefixes:?} in {baseline}");
        return ExitCode::FAILURE;
    }
    for (base_id, cur_id, factor) in &speedups {
        checked += 1;
        let (Some(b), Some(c)) = (
            base.iter().find(|r| &r.id == base_id),
            cur.iter().find(|r| &r.id == cur_id),
        ) else {
            eprintln!("FAIL speedup {base_id} -> {cur_id}: row missing");
            failures += 1;
            continue;
        };
        let got = b.ns * speed / c.ns;
        let verdict = if got < *factor { "FAIL" } else { "ok  " };
        println!("{verdict} speedup {base_id} -> {cur_id}: {got:.2}x (need >= {factor:.2}x)");
        if got < *factor {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!(
            "{failures}/{checked} gated benchmark(s) regressed beyond {:.0}%",
            (threshold - 1.0) * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{checked} gated benchmark(s) within {:.0}%",
        (threshold - 1.0) * 100.0
    );
    ExitCode::SUCCESS
}
