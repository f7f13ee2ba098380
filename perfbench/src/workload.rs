//! The three workloads: how each prepares its seeded jobs, sets up its
//! engine, and runs one timed pass.
//!
//! A run is a fixed number of passes over fixed job lists, so every run
//! of a workload does the same work. Each pass sets up a fresh engine
//! (timed as set-up), then serves its jobs one at a time on this thread,
//! timing each from job line in to result line out.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use funtal::machine::EvalStrategy;
use funtal_driver::cache::CacheStats;
use funtal_driver::corpus::paper_corpus;
use funtal_driver::json::Json;
use funtal_driver::{ArtifactCache, Batch, DiskStore, Job, Pipeline, StoreStats};
use funtal_equiv::gen::SplitMix;

use crate::gen::{self, BenchJob, Programs};
use crate::replay::{Counters, Replay};
use crate::trace::{Recorder, Span};

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ColdCompile,
    StoreRestart,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        [
            Workload::ServeHot,
            Workload::ColdCompile,
            Workload::StoreRestart,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ColdCompile => "cold_compile",
            Workload::StoreRestart => "store_restart",
        }
    }

    pub fn classes(self) -> &'static [&'static str] {
        match self {
            Workload::ServeHot => &["ft_env", "ft_bc", "mf_call", "mf_fib16"],
            Workload::ColdCompile => &[
                "ft_env",
                "ft_bc",
                "mf_compile",
                "mf_call",
                "broken_parse",
                "broken_type",
            ],
            Workload::StoreRestart => &["disk_hit", "new"],
        }
    }

    /// Passes in a run of `seconds`: pass sizes are fixed and each
    /// workload's pass takes roughly `1 / rate` seconds on a 2-core
    /// x86-64 host, so a run's work depends only on its arguments,
    /// never on a clock.
    pub fn passes(self, seconds: u64) -> usize {
        let rate = match self {
            Workload::ServeHot => 8,
            Workload::ColdCompile => 5,
            Workload::StoreRestart => 6,
        };
        (seconds.max(3) * rate) as usize
    }
}

/// `serve_hot`: distinct `gen_program` outputs in the pool.
const HOT_GEN_PROGRAMS: usize = 240;
/// `serve_hot`: timed jobs per pass, and each class's share (‰).
const HOT_JOBS: usize = 1000;
const HOT_SHARES: [usize; 4] = [450, 400, 130, 20];

/// `cold_compile`: untimed warm-up jobs and timed jobs per pass.
const COLD_WARMUP: usize = 200;
const COLD_JOBS: usize = 1500;
/// `cold_compile`: distinct job lists the passes cycle through, so a
/// run samples more programs than one pass holds.
const COLD_LISTS: usize = 4;
const COLD_SHARES: [usize; 6] = [350, 350, 100, 100, 50, 50];

/// `store_restart`: programs staged before timing; per restart, disk
/// hits drawn from the `STORE_RECENT` most recently used programs, and
/// new programs.
const STORE_STAGED: usize = 200;
const STORE_RECENT: usize = 100;
const STORE_HITS: usize = 75;
const STORE_NEW: usize = 25;
const STORE_SETUP_REPEATS: usize = 15;

/// Everything a run needs, generated from the seed before any timer.
pub struct Prepared {
    pub workload: Workload,
    /// Untimed jobs served after the engine is built, inside set-up.
    pub warmup: Vec<BenchJob>,
    /// The timed jobs of each pass.
    pub passes: Vec<Vec<BenchJob>>,
    /// `store_restart` only: the store directory and its staged cap.
    pub store: Option<StoreSetup>,
}

pub struct StoreSetup {
    pub dir: PathBuf,
    pub cap_bytes: u64,
}

/// Prepares `passes` passes of `workload` from `seed`. `work_dir` is
/// where `store_restart` keeps its store.
pub fn prepare(workload: Workload, seed: u64, passes: usize, work_dir: &Path) -> Prepared {
    match workload {
        Workload::ServeHot => prepare_hot(seed, passes),
        Workload::ColdCompile => prepare_cold(seed, passes),
        Workload::StoreRestart => prepare_store(seed, passes, work_dir),
    }
}

fn job(line: String, class: usize) -> BenchJob {
    let expected = gen::expected_line(&line);
    BenchJob {
        line,
        class,
        expected,
    }
}

fn tier_for(i: usize) -> EvalStrategy {
    if i.is_multiple_of(2) {
        EvalStrategy::Environment
    } else {
        EvalStrategy::Bytecode
    }
}

fn tier_class(tier: EvalStrategy) -> usize {
    usize::from(tier == EvalStrategy::Bytecode)
}

/// The `serve_hot` pool: generated programs and the paper corpus on
/// both tiers, and MiniF compile+call jobs. The warm-up serves each
/// pool entry once; timed jobs draw from the pool by class quota.
fn prepare_hot(seed: u64, passes: usize) -> Prepared {
    let mut programs = Programs::new(gen::rng(seed, 1));
    let mut pool: Vec<BenchJob> = Vec::new();
    let mut id = 0;
    let mut next_id = || {
        id += 1;
        format!("p{id}")
    };
    for i in 0..HOT_GEN_PROGRAMS {
        let (src, _) = programs.next();
        let tier = tier_for(i);
        pool.push(job(gen::run_line(&next_id(), &src, tier), tier_class(tier)));
    }
    for (_, src) in paper_corpus() {
        for tier in [EvalStrategy::Environment, EvalStrategy::Bytecode] {
            pool.push(job(gen::run_line(&next_id(), &src, tier), tier_class(tier)));
        }
    }
    let calls: [(String, &str, &[i64], usize); 7] = [
        (gen::minif_fact(), "fact", &[5], 2),
        (gen::minif_fact(), "fact", &[8], 2),
        (gen::minif_sum_to(), "sum_to", &[10, 0], 2),
        (gen::minif_sum_to(), "sum_to", &[40, 0], 2),
        (gen::minif_fib(), "fib", &[5], 2),
        (gen::minif_fib(), "fib", &[10], 2),
        (gen::minif_fib(), "fib", &[16], 3),
    ];
    for (src, name, args, class) in calls {
        for tco in [false, true] {
            let line = gen::compile_line(&next_id(), &src, tco, Some((name, args)));
            pool.push(job(line, class));
        }
    }
    // Each class cycles through its pool entries in a seeded order, so
    // every entry of a class recurs equally often (±1) in every stream.
    let mut rng = gen::rng(seed, 2);
    let mut by_class: Vec<Vec<&BenchJob>> = (0..HOT_SHARES.len())
        .map(|c| pool.iter().filter(|j| j.class == c).collect())
        .collect();
    for entries in &mut by_class {
        gen::shuffle(entries, &mut rng);
    }
    let mut drawn = vec![0; HOT_SHARES.len()];
    let timed: Vec<BenchJob> = gen::class_sequence(HOT_JOBS, &HOT_SHARES, &mut rng)
        .into_iter()
        .map(|c| {
            drawn[c] += 1;
            by_class[c][drawn[c] % by_class[c].len()].clone()
        })
        .collect();
    Prepared {
        workload: Workload::ServeHot,
        warmup: pool,
        passes: vec![timed; passes],
        store: None,
    }
}

/// Fresh `cold_compile` jobs: every program distinct from every other
/// job of the run.
struct ColdJobs {
    programs: Programs,
    rng: SplitMix,
    next: usize,
}

impl ColdJobs {
    fn job(&mut self, class: usize) -> BenchJob {
        self.next += 1;
        let id = format!("c{}", self.next);
        let line = match class {
            0 | 1 => {
                let tier = if class == 0 {
                    EvalStrategy::Environment
                } else {
                    EvalStrategy::Bytecode
                };
                gen::run_line(&id, &self.programs.next().0, tier)
            }
            2 | 3 => {
                let (src, name, args) = gen::gen_minif(&mut self.rng, self.next);
                let tco = self.rng.below(2) == 1;
                let call = (class == 3).then_some((name.as_str(), args.as_slice()));
                gen::compile_line(&id, &src, tco, call)
            }
            // Truncations of programs that share a prefix can coincide.
            4 => loop {
                match gen::broken_parse(&self.programs.next().0) {
                    Some(cut) if self.programs.claim(&cut) => {
                        break gen::run_line(&id, &cut, EvalStrategy::Environment)
                    }
                    _ => {}
                }
            },
            _ => {
                let (src, ty) = self.programs.next();
                gen::run_line(&id, &gen::broken_type(&src, &ty), EvalStrategy::Environment)
            }
        };
        job(line, class)
    }

    fn jobs(&mut self, total: usize) -> Vec<BenchJob> {
        gen::class_sequence(total, &COLD_SHARES, &mut self.rng)
            .into_iter()
            .map(|c| self.job(c))
            .collect()
    }
}

fn prepare_cold(seed: u64, passes: usize) -> Prepared {
    let mut jobs = ColdJobs {
        programs: Programs::new(gen::rng(seed, 3)),
        rng: gen::rng(seed, 4),
        next: 0,
    };
    let warmup = jobs.jobs(COLD_WARMUP);
    let lists: Vec<Vec<BenchJob>> = (0..COLD_LISTS).map(|_| jobs.jobs(COLD_JOBS)).collect();
    Prepared {
        workload: Workload::ColdCompile,
        warmup,
        passes: (0..passes).map(|i| lists[i % COLD_LISTS].clone()).collect(),
        store: None,
    }
}

/// Stages the store, then plans every restart's jobs: disk hits on
/// recently used programs and new programs, in the order a simulated
/// LRU says keeps the hits resident.
fn prepare_store(seed: u64, passes: usize, work_dir: &Path) -> Prepared {
    // Staged and new programs come from one shuffled list: `Programs`
    // never repeats, so it runs out of the few fixed figure programs
    // early, and drawing staged programs first would make them larger on
    // average than the new ones, shrinking entries and growing the count.
    let mut programs = Programs::new(gen::rng(seed, 5));
    let mut rng = gen::rng(seed, 6);
    let mut all: Vec<BenchJob> = (1..=STORE_STAGED + passes * STORE_NEW)
        .map(|i| {
            let line = gen::run_line(&format!("s{i}"), &programs.next().0, EvalStrategy::Bytecode);
            job(line, 1)
        })
        .collect();
    gen::shuffle(&mut all, &mut rng);
    let mut fresh = all.split_off(STORE_STAGED).into_iter();
    let staged = all;

    // Staging: earlier "processes" fill the store with the cap off.
    let dir = work_dir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for chunk in staged.chunks(STORE_STAGED / 4) {
        let (engine, _) = store_engine(&dir, 0);
        for j in chunk {
            assert_eq!(
                serve_line(&engine, &j.line),
                j.expected,
                "staging job diverged"
            );
        }
    }
    let cap_bytes = DiskStore::open(&dir, 0)
        .and_then(|s| s.all_entries())
        .expect("reading the staged store")
        .iter()
        .map(|e| e.bytes)
        .sum();

    let mut recent: VecDeque<BenchJob> = staged.into();
    let plans = (0..passes)
        .map(|_| {
            let mut window: Vec<usize> = (recent.len() - STORE_RECENT..recent.len()).collect();
            gen::shuffle(&mut window, &mut rng);
            let mut hits: HashSet<usize> = window[..STORE_HITS].iter().copied().collect();
            let mut pass: Vec<BenchJob> = window[..STORE_HITS]
                .iter()
                .map(|i| BenchJob {
                    class: 0,
                    ..recent[*i].clone()
                })
                .collect();
            pass.extend(fresh.by_ref().take(STORE_NEW));
            gen::shuffle(&mut pass, &mut rng);
            // Replay the pass's touches on the simulated LRU order.
            let mut kept: Vec<BenchJob> = Vec::new();
            for (i, j) in std::mem::take(&mut recent).into_iter().enumerate() {
                if !hits.remove(&i) {
                    kept.push(j);
                }
            }
            recent = kept.into();
            recent.extend(pass.iter().map(|j| BenchJob {
                class: 1,
                ..j.clone()
            }));
            pass
        })
        .collect();
    Prepared {
        workload: Workload::StoreRestart,
        warmup: Vec::new(),
        passes: plans,
        store: Some(StoreSetup { dir, cap_bytes }),
    }
}

/// A storeless engine as `funtal serve` builds it.
pub fn memory_engine() -> Batch {
    Batch::new(Pipeline::new())
}

/// An engine over a (re)opened disk store.
pub fn store_engine(dir: &Path, cap_bytes: u64) -> (Batch, Arc<DiskStore>) {
    let store = Arc::new(DiskStore::open(dir, cap_bytes).expect("opening the benchmark store"));
    let cache = Arc::new(ArtifactCache::with_store(store.clone()));
    (Batch::new(Pipeline::new()).with_cache(cache), store)
}

/// The `funtal serve` loop body without stdio.
pub fn serve_line(engine: &Batch, line: &str) -> String {
    let v = Json::parse(line).expect("generated job lines are JSON");
    let job = Job::from_json(&v, "job").expect("generated job lines are valid jobs");
    engine.run_job(&job).to_json().to_string()
}

/// What one pass measured.
pub struct PassResult {
    /// Which of `Prepared::passes` ran.
    pub index: usize,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Per timed job: latency in µs.
    pub latency_us: Vec<f64>,
    /// Warm-up and timed jobs whose result line differed from the
    /// reference.
    pub failed: usize,
    /// A digest of the timed result lines, in order.
    pub digest: u64,
    /// Cache counters over the timed jobs only, per stage in the order
    /// parse, check, lower, compile.
    pub cache: [Counts; 4],
    /// The disk tier over the timed jobs, when a store is configured.
    pub store: Option<StorePass>,
    /// Traced passes: the spans and the counters of the replay.
    pub trace: Option<(Vec<Span>, Counters)>,
}

/// Runs pass `index`: set-up (engine + warm-up), then the timed jobs,
/// through the engine or, when `traced`, through the span-recording
/// replay. Result lines are checked once the pass has ended.
pub fn run_pass(prep: &Prepared, index: usize, traced: bool) -> PassResult {
    // Reopening a store and building an engine takes microseconds, so a
    // restart is timed several times and the median kept.
    let repeats = if prep.store.is_some() {
        STORE_SETUP_REPEATS
    } else {
        1
    };
    let mut setups = Vec::with_capacity(repeats);
    let mut built = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let (engine, store) = match &prep.store {
            Some(s) => {
                let (engine, store) = store_engine(&s.dir, s.cap_bytes);
                (engine, Some(store))
            }
            None => (memory_engine(), None),
        };
        let warmup: Vec<String> = prep
            .warmup
            .iter()
            .map(|j| serve_line(&engine, &j.line))
            .collect();
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((engine, store, warmup));
    }
    let (engine, store, warmup) = built.expect("at least one set-up");
    let setup_s = crate::stats::median(&setups);

    let entries = |s: &DiskStore| s.all_entries().map_or(0, |e| e.len());
    let cache_before = cache_counts(engine.cache().stats());
    let store_before = store
        .as_ref()
        .map(|s| (store_counts(s.stats()), entries(s)));
    let jobs = &prep.passes[index];
    let mut latency_us = Vec::with_capacity(jobs.len());
    let mut lines = Vec::with_capacity(jobs.len());
    let (wall_s, trace) = if traced {
        let rec = Recorder::new();
        let replay = Replay::new(engine.cache(), Pipeline::new(), &rec);
        let start = Instant::now();
        for (i, j) in jobs.iter().enumerate() {
            rec.set_job(i as u32);
            let t = Instant::now();
            let line = replay.job_line(&j.line);
            latency_us.push(t.elapsed().as_secs_f64() * 1e6);
            lines.push(line);
        }
        let wall_s = start.elapsed().as_secs_f64();
        let counters = replay.counters();
        (wall_s, Some((rec.into_spans(), counters)))
    } else {
        let start = Instant::now();
        for j in jobs {
            let t = Instant::now();
            let line = serve_line(&engine, &j.line);
            latency_us.push(t.elapsed().as_secs_f64() * 1e6);
            lines.push(line);
        }
        (start.elapsed().as_secs_f64(), None)
    };
    let cache_after = cache_counts(engine.cache().stats());
    let cache = std::array::from_fn(|i| cache_after[i].minus(cache_before[i]));
    let store = store
        .zip(store_before)
        .map(|(s, (before, entries_before))| StorePass {
            disk: store_counts(s.stats()).minus(before),
            evicted: s.evicted(),
            entries_before,
            entries_after: entries(&s),
        });
    let failed = prep
        .warmup
        .iter()
        .zip(&warmup)
        .chain(jobs.iter().zip(&lines))
        .filter(|(j, got)| j.expected != **got)
        .count();
    let mut digest = DefaultHasher::new();
    lines.hash(&mut digest);
    PassResult {
        index,
        setup_s,
        wall_s,
        latency_us,
        failed,
        digest: digest.finish(),
        cache,
        store,
        trace,
    }
}

/// Hits, misses and rejects of one cache stage, or of the disk tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub hits: u64,
    pub misses: u64,
    pub rejects: u64,
}

impl Counts {
    pub fn plus(self, o: Counts) -> Counts {
        Counts {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            rejects: self.rejects + o.rejects,
        }
    }

    fn minus(self, o: Counts) -> Counts {
        Counts {
            hits: self.hits - o.hits,
            misses: self.misses - o.misses,
            rejects: self.rejects - o.rejects,
        }
    }
}

/// What the disk tier did during a pass.
pub struct StorePass {
    pub disk: Counts,
    pub evicted: u64,
    pub entries_before: usize,
    pub entries_after: usize,
}

fn cache_counts(s: CacheStats) -> [Counts; 4] {
    [s.parse, s.check, s.lower, s.compile].map(|c| Counts {
        hits: c.hits,
        misses: c.misses,
        rejects: c.rejects,
    })
}

fn store_counts(s: StoreStats) -> Counts {
    [s.parse, s.check, s.lower, s.compile]
        .iter()
        .fold(Counts::default(), |t, c| {
            t.plus(Counts {
                hits: c.hits,
                misses: c.misses,
                rejects: c.rejects,
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(p: &Prepared) -> Vec<String> {
        p.warmup
            .iter()
            .chain(p.passes.iter().flatten())
            .map(|j| j.line.clone())
            .collect()
    }

    #[test]
    fn same_seed_same_lines_different_seed_different_lines() {
        let dir = Path::new("unused");
        for w in [Workload::ServeHot, Workload::ColdCompile] {
            let a = lines(&prepare(w, 11, 1, dir));
            let b = lines(&prepare(w, 11, 1, dir));
            let c = lines(&prepare(w, 12, 1, dir));
            assert_eq!(a, b, "{w:?}: one seed, two streams");
            assert_ne!(a, c, "{w:?}: two seeds, one stream");
        }
    }

    #[test]
    fn cold_jobs_are_all_distinct_and_broken_ones_fail_where_intended() {
        let p = prepare(Workload::ColdCompile, 7, COLD_LISTS, Path::new("unused"));
        let all: Vec<&BenchJob> = p.warmup.iter().chain(p.passes.iter().flatten()).collect();
        let srcs: HashSet<String> = all
            .iter()
            .map(|j| {
                let v = Json::parse(&j.line).unwrap();
                format!(
                    "{}{}",
                    v.get("src").unwrap(),
                    v.get("tco").map_or(String::new(), |t| t.to_string())
                )
            })
            .collect();
        assert_eq!(srcs.len(), all.len());
        for j in all {
            let stage = match j.class {
                4 => Some("parse"),
                5 => Some("typecheck"),
                _ => None,
            };
            let want = stage.map_or("\"ok\":true".to_string(), |s| format!("\"stage\":\"{s}\""));
            assert!(j.expected.contains(&want), "{} -> {}", j.line, j.expected);
        }
    }
}
