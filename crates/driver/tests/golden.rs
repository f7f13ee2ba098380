//! Golden snapshot tests for the `funtal` CLI.
//!
//! Every subcommand runs over the committed `examples/` corpus (plus
//! the fixtures under `tests/golden/`); stdout, stderr, and the exit
//! code are captured and compared byte-for-byte against the committed
//! snapshots in `tests/golden/*.golden`.
//!
//! To refresh after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p funtal-driver --test golden
//! ```
//!
//! then review the diff like any other code change. The snapshots pin
//! the CLI's user-visible surface: value renderings, trace diagrams,
//! step-count lines, the JSON-lines batch protocol, and the canonical
//! `error[stage][ at l:c]: message` diagnostics.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// One golden case: a snapshot name, CLI arguments, optional stdin,
/// and an optional directory to delete before the run (so cases that
/// share a persistent store directory start from a pinned cold state).
struct Case {
    name: &'static str,
    args: &'static [&'static str],
    stdin: Option<&'static str>,
    pre_clean: Option<&'static str>,
}

const fn case(name: &'static str, args: &'static [&'static str]) -> Case {
    Case {
        name,
        args,
        stdin: None,
        pre_clean: None,
    }
}

/// The fixed store directory the persistent-tier cases share. The
/// first case pre-cleans it, so the cold → warm → stats → verify
/// sequence is deterministic regardless of prior runs.
const GOLDEN_STORE: &str = "/tmp/funtal_golden_store";

/// The full matrix: all five original subcommands plus `batch` and
/// `serve`, over every committed example, plus the error paths.
const CASES: &[Case] = &[
    // check: every example, one invocation (order pins multi-file output).
    case(
        "check_all",
        &["check", "examples/double_twice.ft", "examples/fact_t.ft"],
    ),
    // run: each .ft example, with and without --steps.
    case("run_double_twice", &["run", "examples/double_twice.ft"]),
    case(
        "run_double_twice_steps",
        &["run", "examples/double_twice.ft", "--steps"],
    ),
    case("run_fact_t", &["run", "examples/fact_t.ft"]),
    case(
        "run_fact_t_steps",
        &["run", "examples/fact_t.ft", "--steps"],
    ),
    case(
        "run_fact_t_subst",
        &[
            "run",
            "examples/fact_t.ft",
            "--strategy",
            "substitution",
            "--steps",
        ],
    ),
    // `--tier bytecode` is another name for the fast machine: same
    // value and step counts as the other snapshots of this file.
    case(
        "run_fact_t_bytecode",
        &["run", "examples/fact_t.ft", "--tier", "bytecode", "--steps"],
    ),
    // trace: the Fig 12-style diagrams.
    case("trace_double_twice", &["trace", "examples/double_twice.ft"]),
    case("trace_fact_t", &["trace", "examples/fact_t.ft"]),
    // profile: the span-attributed fuel tables, all three formats,
    // over .ft (parser spans) and .mf (definition spans) sources.
    case("profile_fact_t", &["profile", "examples/fact_t.ft"]),
    case(
        "profile_fact_t_folded",
        &["profile", "examples/fact_t.ft", "--format", "folded"],
    ),
    case(
        "profile_double_twice_json",
        &["profile", "examples/double_twice.ft", "--format", "json"],
    ),
    case(
        "profile_fact_mf",
        &[
            "profile",
            "examples/fact.mf",
            "--tco",
            "--call",
            "fact",
            "5",
        ],
    ),
    // run with the on-demand bytecode verifier: the verify line, then
    // the byte-identical run output.
    case(
        "run_fact_t_verify",
        &[
            "run",
            "examples/fact_t.ft",
            "--verify-bytecode",
            "--tier",
            "bytecode",
            "--steps",
        ],
    ),
    // lint: the static-analysis diagnostics over every example at
    // once (the CI gate invocation: clean at warning level), plus the
    // JSON rendering and a single-file table.
    case(
        "lint_examples",
        &[
            "lint",
            "examples/double_twice.ft",
            "examples/fact_t.ft",
            "examples/fact.mf",
            "examples/poly.mf",
            "--deny",
            "warnings",
        ],
    ),
    case(
        "lint_poly_json",
        &["lint", "examples/poly.mf", "--format", "json"],
    ),
    case("lint_fact_mf", &["lint", "examples/fact.mf"]),
    // compile: plain, TCO, and applied.
    case("compile_fact", &["compile", "examples/fact.mf"]),
    case(
        "compile_poly_call",
        &["compile", "examples/poly.mf", "--call", "poly", "3", "4"],
    ),
    case(
        "compile_fact_tco_call",
        &[
            "compile",
            "examples/fact.mf",
            "--tco",
            "--call",
            "fact",
            "5",
        ],
    ),
    // equiv: reflexivity and an observable difference.
    case(
        "equiv_self",
        &[
            "equiv",
            "examples/double_twice.ft",
            "examples/double_twice.ft",
        ],
    ),
    case(
        "equiv_differs",
        &["equiv", "examples/double_twice.ft", "examples/fact_t.ft"],
    ),
    // error paths: the canonical rendering, pinned.
    case("error_parse", &["run", "crates/driver/tests/golden/bad.ft"]),
    case("error_missing_file", &["run", "no/such/file.ft"]),
    case("error_unknown_cmd", &["frobnicate"]),
    case(
        "error_bad_tier",
        &["run", "examples/fact_t.ft", "--tier", "jit"],
    ),
    case(
        "error_lint_folded",
        &["lint", "examples/fact_t.ft", "--format", "folded"],
    ),
    // batch: the protocol corpus, cold and warm (one worker so the
    // cache counters in the summary are deterministic), plus direct
    // .ft/.mf file jobs on two workers (all-distinct keys, so the
    // counters are deterministic even racing).
    case(
        "batch_jobs",
        &["batch", "crates/driver/tests/golden/jobs.jsonl"],
    ),
    case(
        "batch_jobs_warm",
        &[
            "batch",
            "crates/driver/tests/golden/jobs.jsonl",
            "--repeat",
            "2",
        ],
    ),
    // compile+call jobs: arity and unknown-definition errors, extreme
    // integer arguments, and warm repeats of the same calls.
    case(
        "batch_jobs_calls",
        &["batch", "crates/driver/tests/golden/jobs_calls.jsonl"],
    ),
    // batch with per-job `tier` fields, one worker so
    // the lower-stage cache counters in the summary are deterministic
    // (the repeated program must report a lower-cache hit).
    case(
        "batch_jobs_bytecode",
        &["batch", "crates/driver/tests/golden/jobs_bytecode.jsonl"],
    ),
    // batch resilience: malformed lines mid-stream become per-line
    // error results; the jobs after them still run (and the batch
    // exits non-zero because some jobs failed).
    case(
        "batch_jobs_poison",
        &["batch", "crates/driver/tests/golden/jobs_poison.jsonl"],
    ),
    case(
        "batch_files",
        &[
            "batch",
            "examples/double_twice.ft",
            "examples/fact_t.ft",
            "examples/fact.mf",
            "--workers",
            "2",
        ],
    ),
    // serve: same corpus through the long-lived loop (stdin → stdout).
    Case {
        name: "serve_session",
        args: &["serve"],
        stdin: Some(include_str!("golden/jobs.jsonl")),
        pre_clean: None,
    },
    // serve over the poison corpus: its result lines must match
    // `batch_jobs_poison`'s (see `serve_and_batch_render_poison_alike`).
    Case {
        name: "serve_poison",
        args: &["serve"],
        stdin: Some(include_str!("golden/jobs_poison.jsonl")),
        pre_clean: None,
    },
    // The persistent tier, as a cross-process sequence over one shared
    // store directory. Cold: every typecheck computes and writes its
    // verdict through (the summary's "store" block shows only misses).
    // Warm: a new process, so the memory cache is cold but every check
    // and compile verdict loads from disk (hits, zero rejects; parse
    // and lower stay at zero). The bytecode corpus then adds its check
    // entries, and stats/verify read the populated store back. Error
    // jobs in the corpus pin that failures are never written through.
    Case {
        name: "batch_store_cold",
        args: &[
            "batch",
            "crates/driver/tests/golden/jobs.jsonl",
            "--store-dir",
            GOLDEN_STORE,
        ],
        stdin: None,
        pre_clean: Some(GOLDEN_STORE),
    },
    case(
        "batch_store_warm",
        &[
            "batch",
            "crates/driver/tests/golden/jobs.jsonl",
            "--store-dir",
            GOLDEN_STORE,
        ],
    ),
    case(
        "batch_store_bytecode",
        &[
            "batch",
            "crates/driver/tests/golden/jobs_bytecode.jsonl",
            "--store-dir",
            GOLDEN_STORE,
        ],
    ),
    case(
        "store_stats",
        &["store", "stats", "--store-dir", GOLDEN_STORE],
    ),
    case(
        "store_verify",
        &["store", "verify", "--store-dir", GOLDEN_STORE],
    ),
];

fn repo_root() -> PathBuf {
    // crates/driver → repo root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
        .to_path_buf()
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs the binary and renders the observation in the snapshot format.
fn observe(case: &Case) -> String {
    if let Some(dir) = case.pre_clean {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_funtal"));
    cmd.args(case.args)
        .current_dir(repo_root())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawning funtal");
    if let Some(stdin) = case.stdin {
        use std::io::Write;
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(stdin.as_bytes())
            .expect("writing stdin");
    } else {
        drop(child.stdin.take());
    }
    let out = child.wait_with_output().expect("running funtal");
    format!(
        "# funtal {}\n# exit: {}\n--- stdout ---\n{}--- stderr ---\n{}",
        case.args.join(" "),
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn cli_output_matches_golden_snapshots() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let mut failures = Vec::new();
    for case in CASES {
        let got = observe(case);
        let path = golden_dir().join(format!("{}.golden", case.name));
        if update {
            std::fs::write(&path, &got).expect("writing golden");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(want) if want == got => {}
            Ok(want) => failures.push(format!(
                "snapshot `{}` differs\n--- want ---\n{want}\n--- got ---\n{got}",
                case.name
            )),
            Err(_) => failures.push(format!(
                "snapshot `{}` missing (run with UPDATE_GOLDEN=1 to create)\n--- got ---\n{got}",
                case.name
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden mismatch(es):\n\n{}\n\nIf the change is intentional, refresh with \
         UPDATE_GOLDEN=1 cargo test -p funtal-driver --test golden",
        failures.len(),
        failures.join("\n\n")
    );
}

/// The profile a user sees must not depend on the machine that produced
/// it: `funtal profile --tier X` prints byte-identical output for every
/// tier spelling. (The library-level certification lives in the core
/// crate's strategy_equiv suite; this pins the full CLI path, spans
/// included.)
#[test]
fn profile_output_is_tier_independent() {
    for (file, format) in [
        ("examples/fact_t.ft", "table"),
        ("examples/fact_t.ft", "folded"),
        ("examples/double_twice.ft", "json"),
    ] {
        let outputs: Vec<_> = ["substitution", "environment", "bytecode"]
            .iter()
            .map(|tier| {
                let out = Command::new(env!("CARGO_BIN_EXE_funtal"))
                    .args(["profile", file, "--tier", tier, "--format", format])
                    .current_dir(repo_root())
                    .output()
                    .expect("running funtal");
                assert!(out.status.success(), "{file} {format} --tier {tier}");
                String::from_utf8(out.stdout).expect("utf-8 stdout")
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "{file} {format}: environment tier");
        assert_eq!(outputs[0], outputs[2], "{file} {format}: bytecode tier");
    }
}

/// Snapshot names must be unique — a duplicate silently overwrites a
/// sibling in UPDATE_GOLDEN mode.
#[test]
fn snapshot_names_are_unique() {
    let mut names: Vec<&str> = CASES.iter().map(|c| c.name).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(before, names.len(), "duplicate snapshot names");
}

/// Every .ft/.mf file under examples/ is covered by at least one case,
/// so adding an example forces a golden decision.
#[test]
fn all_examples_are_covered() {
    let mut uncovered = Vec::new();
    for entry in std::fs::read_dir(repo_root().join("examples")).expect("examples/") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        if !(name.ends_with(".ft") || name.ends_with(".mf")) {
            continue;
        }
        let covered = CASES.iter().any(|c| {
            c.args.iter().any(|a| a.ends_with(&name)) || c.stdin.is_some_and(|s| s.contains(&name))
        });
        if !covered {
            uncovered.push(name);
        }
    }
    assert!(
        uncovered.is_empty(),
        "examples without golden coverage: {uncovered:?}"
    );
}

/// `serve` and `batch` share one per-line job parser, so a malformed
/// line renders as the same `"cmd":"invalid"` result in both (the two
/// snapshots differ only in where the summary goes).
#[test]
fn serve_and_batch_render_poison_alike() {
    let results = |name: &str| -> Vec<String> {
        std::fs::read_to_string(golden_dir().join(format!("{name}.golden")))
            .expect("reading golden")
            .lines()
            .filter(|l| l.starts_with("{\"id\""))
            .map(str::to_string)
            .collect()
    };
    let batch = results("batch_jobs_poison");
    assert_eq!(batch.len(), 5);
    assert_eq!(results("serve_poison"), batch);
}
