//! Batch-engine throughput: worker scaling and cache temperature.
//!
//! `batch_throughput/workers/N` runs the examples+figures corpus on a
//! cold-cache engine with N workers (every iteration re-parses and
//! re-typechecks each distinct program once). `batch_throughput/warm/N`
//! runs the same corpus against a persistent warm cache, so each job is
//! hash lookups plus evaluation — the serving configuration.
//!
//! Worker-scaling rows only show speedup when the host actually has
//! cores to scale onto, and single-threaded calibration cannot correct
//! for core-count differences — so the regression gate (`bench_check`)
//! gates only the single-threaded rows (`workers/1`, `warm/1`); the
//! multi-worker rows are recorded for observation.
//!
//! `store_warm_start/{none,cold,warm}/24` measures the persistent
//! tier's cross-process warm start against having no store at all.
//! Every row runs a memory-cold engine (a fresh [`ArtifactCache`] per
//! iteration — the second-process configuration): `none` has no store
//! (the simplest alternative), `cold` an empty store directory, `warm`
//! one a previous "process" fully populated. The store persists only
//! typecheck verdicts, so the warm row still parses, lowers and runs
//! MiniF codegen, and skips every FT typecheck, paying disk load +
//! decode of the stored type text instead; the gate pins
//! warm ≥ 2× cold.
//!
//! `store_save/{uncapped,at_cap}/64` is the store's write-path stage
//! row: 64 saves of 100-byte containers per iteration, cycling through
//! 512 keys. `uncapped` has no cap, so each save is a temp-file write
//! and a rename over an older entry. `at_cap` keeps the store at its
//! 256-entry cap, so every save inserts a key evicted long ago and
//! pays its share of the budgeted eviction sweeps. The rows are
//! recorded, not gated.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use funtal_driver::corpus::paper_corpus;
use funtal_driver::{ArtifactCache, Batch, DiskStore, Job, JobKind, Pipeline};
use funtal_store::Stage;

/// Corpus repeats per batch: 6 distinct programs × 4 = 24 jobs/iter.
const ROUNDS: usize = 4;

/// The measured workload is exactly the corpus the stress tests prove
/// deterministic (`funtal_driver::corpus`).
fn corpus_jobs() -> Vec<Job> {
    let sources = paper_corpus();
    (0..ROUNDS)
        .flat_map(|round| {
            sources
                .iter()
                .map(move |(name, src)| Job::run(format!("{name}@{round}"), src.clone()))
        })
        .collect()
}

fn engine(workers: usize) -> Batch {
    Batch::new(Pipeline::new().with_fuel(1_000_000)).with_workers(workers)
}

fn batch_throughput(c: &mut Criterion) {
    let jobs = corpus_jobs();
    let mut g = c.benchmark_group("batch_throughput");

    // Cold cache: a fresh engine per iteration (parse + check once per
    // distinct program, evaluate every job).
    for workers in [1usize, 2, 8] {
        g.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| {
                let report = engine(workers).run(&jobs);
                assert_eq!(report.err_count(), 0);
                report.outcomes.len()
            })
        });
    }

    // Warm cache: one engine reused across iterations — after the
    // first pass every parse/check lookup hits, which the summary
    // counters prove (asserted in the stress tests; here we measure).
    for workers in [1usize, 8] {
        let warm = engine(workers);
        warm.run(&jobs); // prime
        g.bench_function(BenchmarkId::new("warm", workers), |b| {
            b.iter(|| {
                let report = warm.run(&jobs);
                assert_eq!(report.err_count(), 0);
                report.outcomes.len()
            })
        });
    }
    g.finish();
}

/// The persistent-tier workload: every corpus program on the bytecode
/// tier (parse + check + lower) plus six distinct MiniF compilations —
/// 6×3 + 6 = 24 jobs exercising both persisted stages (check, compile).
fn store_jobs() -> Vec<Job> {
    let sources = paper_corpus();
    let mut jobs: Vec<Job> = (0..3)
        .flat_map(|round| {
            sources.iter().map(move |(name, src)| {
                Job::run_tiered(
                    format!("{name}@{round}"),
                    src.clone(),
                    funtal::machine::EvalStrategy::Bytecode,
                )
            })
        })
        .collect();
    for i in 0..6 {
        jobs.push(Job {
            id: format!("mf{i}"),
            kind: JobKind::Compile {
                src: format!("fn f{i}(a, b) = if0 a {{ b + {i} }} {{ f{i}(a - 1, b + a) }}"),
                tco: i % 2 == 0,
                call: None,
            },
        });
    }
    jobs
}

/// A memory-cold engine (fresh `ArtifactCache`) over `dir` — the
/// second-process configuration the store rows measure.
fn store_engine(dir: &std::path::Path) -> Batch {
    let store = Arc::new(DiskStore::open(dir, 0).expect("open store"));
    Batch::new(Pipeline::new().with_fuel(1_000_000))
        .with_cache(Arc::new(ArtifactCache::with_store(store)))
}

fn store_warm_start(c: &mut Criterion) {
    let jobs = store_jobs();
    let mut g = c.benchmark_group("store_warm_start");
    let seq = AtomicUsize::new(0);
    let base = std::env::temp_dir().join(format!("funtal_bench_store_{}", std::process::id()));

    // None: no store, the baseline the store must beat — every stage
    // computes and nothing touches the disk.
    g.bench_function(BenchmarkId::new("none", jobs.len()), |b| {
        b.iter(|| {
            let report = engine(1).run(&jobs);
            assert_eq!(report.err_count(), 0);
            report.outcomes.len()
        })
    });

    // Cold: an empty store per iteration — every stage computes and
    // writes through (the first process to ever see this corpus).
    g.bench_function(BenchmarkId::new("cold", jobs.len()), |b| {
        b.iter(|| {
            let dir = base.join(format!("cold{}", seq.fetch_add(1, Ordering::Relaxed)));
            let report = store_engine(&dir).run(&jobs);
            assert_eq!(report.err_count(), 0);
            let _ = std::fs::remove_dir_all(&dir);
            report.outcomes.len()
        })
    });

    // Warm: one pre-populated directory; each iteration is still
    // memory-cold, so every artifact is served by the disk tier
    // (verified on load) instead of recomputed.
    let warm_dir = base.join("warm");
    let _ = std::fs::remove_dir_all(&warm_dir);
    let primed = store_engine(&warm_dir).run(&jobs);
    assert_eq!(primed.err_count(), 0);
    g.bench_function(BenchmarkId::new("warm", jobs.len()), |b| {
        b.iter(|| {
            let report = store_engine(&warm_dir).run(&jobs);
            assert_eq!(report.err_count(), 0);
            let stats = report.store.expect("store stats");
            assert_eq!(stats.total_rejects(), 0);
            assert!(stats.total_hits() > 0);
            report.outcomes.len()
        })
    });
    let _ = std::fs::remove_dir_all(&base);
    g.finish();
}

fn store_save(c: &mut Criterion) {
    const SAVES: usize = 64;
    const KEYS: usize = 512;
    let mut g = c.benchmark_group("store_save");
    let base = std::env::temp_dir().join(format!("funtal_bench_save_{}", std::process::id()));
    // A 5-byte key and a 64-byte payload: 100 bytes a container.
    let key = |i: usize| format!("k{:04}", i % KEYS);
    let payload = [7u8; 64];
    for (name, cap) in [("uncapped", 0), ("at_cap", KEYS as u64 / 2 * 100)] {
        let dir = base.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir, cap).expect("open store");
        for i in 0..KEYS {
            store
                .save(Stage::Check, key(i).as_bytes(), &payload)
                .expect("prime");
        }
        let mut next = KEYS;
        g.bench_function(BenchmarkId::new(name, SAVES), |b| {
            b.iter(|| {
                for _ in 0..SAVES {
                    store
                        .save(Stage::Check, key(next).as_bytes(), &payload)
                        .expect("save");
                    next += 1;
                }
                next
            })
        });
    }
    let _ = std::fs::remove_dir_all(&base);
    g.finish();
}

criterion_group!(benches, batch_throughput, store_warm_start, store_save);
criterion_main!(benches);
