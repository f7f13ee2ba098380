//! The persistent artifact store as a cache tier: cross-process warm
//! starts, counter accounting, and the summary JSON contract.
//!
//! "Cross-process" is simulated with two independent [`ArtifactCache`]
//! instances sharing one store directory — exactly what two `funtal
//! batch` invocations with the same `--store-dir` do (the CI workflow
//! runs the real two-process version).

use std::sync::Arc;

use funtal_driver::{ArtifactCache, Batch, DiskStore, Job, Pipeline};
use funtal_store::Stage;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("funtal_store_tier_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A job mix that exercises all four stages: parse + check + lower
/// (every FT run job) and compile (the MiniF job).
fn all_stage_jobs() -> Vec<Job> {
    vec![
        Job::run("plain", "6 * 7"),
        Job::run_tiered(
            "bc",
            "FT[int](mv r1, 6; mul r1, r1, 7; halt int, * {r1})",
            funtal::machine::EvalStrategy::Bytecode,
        ),
        Job::compile("mf", "fn double(n) = n + n"),
    ]
}

fn engine_on(dir: &std::path::Path) -> Batch {
    let store = Arc::new(DiskStore::open(dir, 0).expect("open store"));
    Batch::new(Pipeline::new()).with_cache(Arc::new(ArtifactCache::with_store(store)))
}

#[test]
fn second_process_warm_starts_every_stage() {
    let dir = temp_dir("warm");
    let jobs = all_stage_jobs();

    let cold = engine_on(&dir).run(&jobs);
    let cold_store = cold.store.expect("store stats present");
    for stage in Stage::ALL {
        let s = cold_store.stage(stage);
        assert_eq!(s.hits, 0, "{stage:?} hit on a cold store");
        assert_eq!(s.rejects, 0, "{stage:?} reject on a cold store");
    }
    // Every exercised stage wrote through.
    assert!(cold_store.parse.misses >= 2);
    assert_eq!(cold_store.lower.misses, 2);
    assert_eq!(cold_store.compile.misses, 1);

    // A second, memory-cold engine on the same directory: identical
    // results, every stage served from disk.
    let warm = engine_on(&dir).run(&jobs);
    assert_eq!(cold.result_lines(), warm.result_lines());
    let warm_store = warm.store.expect("store stats present");
    assert!(warm_store.parse.hits >= 2, "{warm_store:?}");
    assert!(warm_store.check.hits >= 2, "{warm_store:?}");
    assert_eq!(warm_store.lower.hits, 2, "{warm_store:?}");
    assert_eq!(warm_store.compile.hits, 1, "{warm_store:?}");
    assert_eq!(warm_store.total_rejects(), 0, "{warm_store:?}");
    // The in-memory tier keeps its storeless semantics: a disk hit is
    // still a memory miss.
    assert_eq!(warm.cache.parse.hits, 0);
    assert!(warm.cache.parse.misses >= 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_block_appears_only_when_configured() {
    let jobs = [Job::run("j", "1 + 2")];
    let plain = Batch::new(Pipeline::new()).run(&jobs);
    assert!(plain.store.is_none());
    assert!(
        !plain.summary_json().to_string().contains("\"store\""),
        "storeless summary grew a store block"
    );

    let dir = temp_dir("summary");
    let with_store = engine_on(&dir).run(&jobs);
    let summary = with_store.summary_json().to_string();
    assert!(
        summary.contains("\"store\":{\"parse\":{\"hits\":0,\"misses\":1,\"rejects\":0}"),
        "{summary}"
    );
    assert!(summary.contains("\"cache\":{"), "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_not_written_through() {
    let dir = temp_dir("errs");
    let engine = engine_on(&dir);
    let report = engine.run(&[Job::run("bad", "1 +")]);
    assert_eq!(report.err_count(), 1);
    let store = engine.cache().store().expect("store configured");
    assert_eq!(
        store.entries(Stage::Parse).expect("entries").len(),
        0,
        "a failed parse must not persist an artifact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn formatting_changes_share_check_and_lower_entries() {
    // Disk keys mirror the in-memory keys: check/lower key on the
    // term's canonical rendering, so a reformatted source re-parses
    // but reuses the persisted typecheck and lowering.
    let dir = temp_dir("fmt");
    let src = "FT[int](mv r1, 6; mul r1, r1, 7; halt int, * {r1})";
    let resrc = src.replace("; ", ";  ");
    engine_on(&dir).run(&[Job::run_tiered(
        "a",
        src,
        funtal::machine::EvalStrategy::Bytecode,
    )]);
    let warm = engine_on(&dir).run(&[Job::run_tiered(
        "b",
        &resrc,
        funtal::machine::EvalStrategy::Bytecode,
    )]);
    let stats = warm.store.expect("store stats");
    assert_eq!(stats.parse.hits, 0, "different source text: parse is cold");
    assert_eq!(stats.check.hits, 1, "same term: typecheck served from disk");
    assert_eq!(stats.lower.hits, 1, "same term: lowering served from disk");
    let _ = std::fs::remove_dir_all(&dir);
}
