//! Concurrency stress test for the batch engine.
//!
//! The paper corpus — both Fig 17 factorials, the Fig 3 call-to-call
//! component (boundary-wrapped), the Fig 11 JIT example, and the two
//! committed `.ft` examples — is submitted 100× across 8 workers, and
//! the whole report must be **byte-identical** to the sequential
//! single-worker run of the same job list. A third run submits the
//! jobs in a shuffled order and must produce the same per-id results,
//! proving nothing depends on submission order. Cache counters are
//! checked for the cross-thread invariants the engine guarantees.
//!
//! (This machine may have any number of cores; the assertions are
//! about determinism, not speedup — the throughput claims live in
//! `crates/bench/benches/batch.rs`.)

use std::collections::BTreeMap;

use funtal_driver::corpus::paper_corpus as corpus;
use funtal_driver::{Batch, Job, Pipeline};
use funtal_equiv::gen::SplitMix;

const REPEATS: usize = 100;
const WORKERS: usize = 8;

/// The full job list: the corpus repeated `REPEATS` times with
/// round-tagged ids (distinct ids, identical programs — exactly the
/// serving workload the caches exist for).
fn jobs() -> Vec<Job> {
    let corpus = corpus();
    (0..REPEATS)
        .flat_map(|round| {
            corpus
                .iter()
                .map(move |(name, src)| Job::run(format!("{name}@{round}"), src.clone()))
        })
        .collect()
}

fn engine(workers: usize) -> Batch {
    Batch::new(Pipeline::new().with_fuel(1_000_000)).with_workers(workers)
}

#[test]
fn eight_workers_match_sequential_byte_for_byte() {
    let jobs = jobs();
    let sequential = engine(1).run(&jobs);
    let parallel = engine(WORKERS).run(&jobs);

    assert_eq!(sequential.err_count(), 0, "sequential run had failures");
    assert_eq!(
        sequential.result_lines(),
        parallel.result_lines(),
        "parallel results diverge from the sequential pipeline"
    );
    assert_eq!(sequential.workers, 1);
    assert_eq!(parallel.workers, WORKERS);

    let distinct = corpus().len() as u64;
    // The check cache keys on the *term*, and the corpus deliberately
    // contains one aliased pair: `examples/fact_t.ft` parses to the
    // same term as the rendered `fig17_fact_t()` applied to 6, so the
    // typecheck stage sees one fewer distinct key than the parse stage.
    let distinct_terms = {
        let p = Pipeline::new();
        // The check cache's key: the parsed term's canonical rendering.
        let keys: std::collections::BTreeSet<String> = corpus()
            .iter()
            .map(|(_, src)| p.parse(src).unwrap().to_string())
            .collect();
        keys.len() as u64
    };
    assert_eq!(
        distinct_terms,
        distinct - 1,
        "expected exactly one aliased pair"
    );
    let runs = jobs.len() as u64;
    for (name, stats) in [
        ("sequential", sequential.cache),
        ("parallel", parallel.cache),
    ] {
        // Every run job probes parse and check exactly once.
        assert_eq!(stats.parse.lookups(), runs, "{name}: parse lookups");
        assert_eq!(stats.check.lookups(), runs, "{name}: check lookups");
        assert_eq!(stats.compile.lookups(), 0, "{name}: compile lookups");
        // Each distinct key misses at least once; racing cold lookups
        // can add at most one extra miss per worker per key.
        for (stage, floor, s) in [
            ("parse", distinct, stats.parse),
            ("check", distinct_terms, stats.check),
        ] {
            assert!(
                (floor..=floor * WORKERS as u64).contains(&s.misses),
                "{name}: {stage} misses {} outside [{floor}, {}]",
                s.misses,
                floor * WORKERS as u64
            );
            assert_eq!(s.hits + s.misses, runs, "{name}: {stage} accounting");
        }
    }
    // The sequential run is perfectly warm after round one.
    assert_eq!(sequential.cache.parse.misses, distinct);
    assert_eq!(sequential.cache.check.misses, distinct_terms);
}

#[test]
fn results_do_not_depend_on_submission_order() {
    let ordered = jobs();
    // Deterministic Fisher–Yates shuffle.
    let mut shuffled = ordered.clone();
    let mut rng = SplitMix::new(0xfeed);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.below(i + 1));
    }
    assert_ne!(
        ordered.iter().map(|j| &j.id).collect::<Vec<_>>(),
        shuffled.iter().map(|j| &j.id).collect::<Vec<_>>(),
        "shuffle was a no-op"
    );

    let by_id = |report: funtal_driver::BatchReport| -> BTreeMap<String, String> {
        report
            .outcomes
            .into_iter()
            .map(|o| (o.id.clone(), o.to_json().to_string()))
            .collect()
    };
    let base = by_id(engine(WORKERS).run(&ordered));
    let perm = by_id(engine(WORKERS).run(&shuffled));
    assert_eq!(base.len(), ordered.len(), "duplicate ids in the corpus");
    assert_eq!(
        base, perm,
        "per-job results changed when submission order changed"
    );
}

/// A shared cache across engines (the `serve` configuration): a warm
/// second batch does zero parse/check work and still matches the cold
/// run byte-for-byte.
#[test]
fn warm_cache_reuses_artifacts_and_preserves_results() {
    let jobs = jobs();
    let cold_engine = engine(WORKERS);
    let cold = cold_engine.run(&jobs);
    let after_cold = cold_engine.cache().stats();

    let warm_engine = engine(WORKERS).with_cache(cold_engine.cache().clone());
    let warm = warm_engine.run(&jobs);

    assert_eq!(cold.result_lines(), warm.result_lines());
    // The warm pass added zero misses: every artifact was shared.
    assert_eq!(warm.cache.parse.misses, after_cold.parse.misses);
    assert_eq!(warm.cache.check.misses, after_cold.check.misses);
    assert_eq!(
        warm.cache.parse.hits,
        after_cold.parse.hits + jobs.len() as u64
    );
    assert_eq!(
        warm.cache.check.hits,
        after_cold.check.hits + jobs.len() as u64
    );
}
