//! Content-addressed caches for pipeline artifacts.
//!
//! Batch workloads re-submit the same programs over and over (the
//! serving story of the ROADMAP), so the batch engine memoizes every
//! pure pipeline stage:
//!
//! | stage          | key (full content, collision-proof)        | artifact             |
//! |----------------|--------------------------------------------|----------------------|
//! | parse          | the source text                            | `Arc<Parsed>` (term + its rendering) |
//! | FT typecheck   | the parsed term's canonical rendering      | `Arc<FTy>`           |
//! | bytecode lower | the parsed term's canonical rendering      | `Arc<LoweredProgram>` |
//! | MiniF compile  | the source text + codegen options          | `Arc<CompiledMiniF>` |
//!
//! The in-process maps key on the **full content** (a cache must never
//! serve another program's artifact, so a 64-bit digest alone is not a
//! key — a long-lived `funtal serve` would turn a digest collision
//! into a silently wrong answer).
//!
//! Keying the typecheck stage on the *term* rather than the source
//! means two differently-formatted sources of the same program share
//! one typecheck. Evaluation is never cached — it is the work a job
//! asks for — so a warm cache turns `run` into hash + eval, which is
//! what the hit counters in the batch report prove. A memory hit is
//! served as is: every in-process entry was computed by this process,
//! so only disk loads (below) are re-verified.
//!
//! All maps are `Mutex<HashMap>` behind one [`ArtifactCache`] that
//! workers share via `Arc`. Lookups hold a lock only for the map
//! probe, never while computing a missing artifact, so a miss costs
//! the stage itself plus two probes. Two workers racing on the same
//! cold key may both compute it (both count as misses; last insert
//! wins — the artifacts are pure, so the duplicates are identical),
//! which keeps `hits + misses == lookups` as the cross-thread
//! invariant the stress tests assert.
//!
//! # The persistent tier
//!
//! A cache opened [`with_store`](ArtifactCache::with_store) layers a
//! disk-backed [`DiskStore`] *below* two of the in-process maps:
//!
//! ```text
//! memory probe → disk probe (verify-on-load) → compute (write-through)
//! ```
//!
//! The store holds *verdicts*, not artifacts: only the FT typing
//! judgment costs more to recompute than to load. The check stage
//! persists a term's type; the compile stage persists the types of the
//! wrapped definitions and, on a disk hit, re-runs MiniF codegen (which
//! is cheaper than decoding its output) with those types instead of
//! re-checking. Parse and lower are memory-only. Both verdicts are
//! canonical type text ([`artifact`]).
//!
//! A memory miss still counts as a memory miss — the in-process
//! counters keep their exact storeless semantics — and the disk tier
//! keeps its own per-stage hit/miss/reject counters
//! ([`store_stats`](ArtifactCache::store_stats)). Every disk load is
//! re-verified before it is served: the container layer already proved
//! magic/version/checksum/full-key, and [`artifact::decode`] re-parses
//! every type and demands its exact re-rendering (total, never
//! panics). Anything that fails is a *reject*: the entry is deleted,
//! the counters record it, and the stage degrades to recompute — a
//! corrupt store can cost time, never correctness. Computed verdicts
//! are written through (errors are not stored), so a second process
//! pointed at the same `--store-dir` skips every typecheck the first
//! one ran.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use funtal_store::{DiskStore, Stage, StoreStats};
use funtal_syntax::span::SpanTable;
use funtal_syntax::{FExpr, FTy};

use funtal_compile::codegen::CodegenOpts;

use crate::artifact::{self, Verdict};
use crate::error::FunTalError;
use crate::report::CompiledMiniF;
use crate::wire;

/// Hit/miss counters for one cached stage.
#[derive(Debug, Default)]
pub(crate) struct StageCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StageCounters {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub(crate) fn snapshot(&self) -> StageStats {
        StageStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejects: 0,
        }
    }
}

/// A point-in-time copy of one stage's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
    /// Always `0`: the in-process maps serve only artifacts this
    /// process computed, so nothing is re-verified on a hit (the disk
    /// tier counts its own rejects in [`StoreStats`]). Kept so the
    /// batch summary's `"rejects":0` and its readers stay stable.
    pub rejects: u64,
}

impl StageStats {
    /// Total lookups (`hits + misses` by construction).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A point-in-time copy of every stage's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// The parse stage (`.ft` sources).
    pub parse: StageStats,
    /// The FT typecheck stage.
    pub check: StageStats,
    /// The bytecode lowering stage (every run not on the oracle).
    pub lower: StageStats,
    /// The MiniF parse+compile stage (`.mf` sources).
    pub compile: StageStats,
}

struct Shard<K, V> {
    map: Mutex<HashMap<K, Arc<V>>>,
    counters: StageCounters,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: Mutex::new(HashMap::new()),
            counters: StageCounters::default(),
        }
    }
}

impl<K: std::hash::Hash + Eq, V> Shard<K, V> {
    /// Returns the cached artifact or computes, stores, and returns it.
    /// The lock is held only for the probes; `compute` runs unlocked.
    /// The map compares **full keys** on probe, so a digest collision
    /// can never alias two programs. A hit borrows `key`; only a miss
    /// copies it into the map.
    fn get_or_try_insert<Q, E>(
        &self,
        key: &Q,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E>
    where
        K: Borrow<Q>,
        Q: std::hash::Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(found) = self.map.lock().expect("cache poisoned").get(key) {
            self.counters.hit();
            return Ok(found.clone());
        }
        self.counters.miss();
        let value = Arc::new(compute()?);
        self.map
            .lock()
            .expect("cache poisoned")
            .insert(key.to_owned(), value.clone());
        Ok(value)
    }
}

/// Probes the disk tier for `key`, decoding with [`artifact::decode`]
/// and then `accept`. A payload either step refuses is a reject: the
/// entry is deleted and the probe reports a (disk) miss.
fn disk_probe<V>(
    store: &DiskStore,
    stage: Stage,
    key: &[u8],
    accept: impl FnOnce(Verdict) -> Option<V>,
) -> Option<V> {
    let payload = store.load(stage, key)?;
    match artifact::decode(stage, key, &payload).ok().and_then(accept) {
        Some(value) => {
            store.hit(stage);
            Some(value)
        }
        None => {
            store.reject(stage, key);
            None
        }
    }
}

/// Rebuilds a MiniF bundle from a compile-stage verdict: the codegen
/// [`Pipeline::compile_minif`](crate::Pipeline::compile_minif) runs,
/// with each wrapped definition's type taken from the store instead of
/// re-checked.
fn rebuild_compiled(verdict: Verdict) -> Option<CompiledMiniF> {
    let Verdict::Compile {
        program,
        tail_call_opt,
        types,
    } = verdict
    else {
        return None;
    };
    let mut types = types.into_iter();
    crate::build_minif(program, CodegenOpts { tail_call_opt }, |_| {
        types
            .next()
            .ok_or_else(|| FunTalError::driver("a definition has no stored type"))
    })
    .ok()
}

/// A cached parse artifact: the term plus its canonical rendering.
///
/// The rendering doubles as the typecheck stage's cache key, computed
/// once per distinct source at parse-miss time — so a warm `run` is
/// genuinely two map probes, with no per-request re-rendering of the
/// program.
#[derive(Debug)]
pub struct Parsed {
    /// The parsed term.
    pub expr: FExpr,
    /// Its canonical rendering (the typecheck cache key).
    pub check_key: String,
    /// Source spans of the term's heap labels, for profiled runs.
    pub(crate) spans: Arc<SpanTable>,
}

/// The shared content-addressed cache for parse, typecheck, and MiniF
/// compile artifacts. Cheap to clone via `Arc`; share one across every
/// worker of a batch (and across batches in `funtal serve`).
#[derive(Default)]
pub struct ArtifactCache {
    parse: Shard<String, Parsed>,
    check: Shard<String, FTy>,
    lower: Shard<String, funtal::LoweredProgram>,
    compile: Shard<(String, bool), CompiledMiniF>,
    /// The persistent tier, probed on memory misses and written
    /// through on computes. `None` (the default) keeps the cache
    /// purely in-process.
    store: Option<Arc<DiskStore>>,
}

// Workers on every thread probe the cache concurrently.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<ArtifactCache>();
};

impl ArtifactCache {
    /// A fresh, empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// A fresh cache backed by a persistent [`DiskStore`]: memory
    /// misses probe the disk tier (verify-on-load) before computing,
    /// and computed artifacts are written through.
    pub fn with_store(store: Arc<DiskStore>) -> ArtifactCache {
        ArtifactCache {
            store: Some(store),
            ..ArtifactCache::default()
        }
    }

    /// The persistent tier, when one is configured.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// A point-in-time copy of the disk-tier counters, when a store is
    /// configured.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// The parse artifact for a source, from cache or `compute`. The
    /// artifact carries the term's canonical rendering, so downstream
    /// typecheck lookups ([`check_keyed`](ArtifactCache::check_keyed))
    /// never re-render on the warm path. Parsing is cheaper to redo
    /// than to load, so this stage never touches the disk tier.
    pub fn parse<E>(
        &self,
        src: &str,
        compute: impl FnOnce() -> Result<(FExpr, SpanTable), E>,
    ) -> Result<Arc<Parsed>, E> {
        self.parse.get_or_try_insert(src, || {
            let (expr, spans) = compute()?;
            Ok(Parsed {
                check_key: expr.to_string(),
                expr,
                spans: Arc::new(spans),
            })
        })
    }

    /// The type of a term whose canonical rendering the caller already
    /// holds (a [`Parsed`] artifact's `check_key`): a warm lookup is a
    /// single map probe, no rendering, no allocation.
    pub fn check_keyed<E>(
        &self,
        check_key: &str,
        compute: impl FnOnce() -> Result<FTy, E>,
    ) -> Result<Arc<FTy>, E> {
        self.check.get_or_try_insert(check_key, || {
            let Some(store) = &self.store else {
                return compute();
            };
            let key = check_key.as_bytes();
            if let Some(ty) = disk_probe(store, Stage::Check, key, |verdict| match verdict {
                Verdict::Check(ty) => Some(ty),
                Verdict::Compile { .. } => None,
            }) {
                return Ok(ty);
            }
            let ty = compute()?;
            // Write failures are swallowed: the store is a cache, and a
            // full or read-only disk must not fail the job.
            let _ = store.save(Stage::Check, key, &wire::encode_types([&ty]));
            Ok(ty)
        })
    }

    /// The lowered bytecode artifact for a term whose canonical
    /// rendering the caller already holds (a [`Parsed`] artifact's
    /// `check_key`). Keyed like the typecheck stage — on the term, not
    /// the source — so differently formatted sources of one program
    /// share a single lowering, and a warm fast-machine run skips
    /// register allocation and fusion entirely. Lowering is cheaper to
    /// redo than to load, so this stage never touches the disk tier.
    ///
    /// A hit is served as is: every entry is a lowering this process
    /// made, so there is nothing to re-verify. The bytecode verifier
    /// (`funtal::verify_lowered`) guards lowering itself instead — in
    /// debug builds, under `--verify-bytecode`, and at JIT promotion
    /// (see PERFORMANCE.md).
    pub fn lower_keyed(
        &self,
        check_key: &str,
        compute: impl FnOnce() -> funtal::LoweredProgram,
    ) -> Arc<funtal::LoweredProgram> {
        let Ok(value) = self
            .lower
            .get_or_try_insert(check_key, || Ok::<_, std::convert::Infallible>(compute()));
        value
    }

    /// The compiled MiniF bundle for a source, from cache or `compute`.
    ///
    /// With a store, a memory miss probes the disk for the wrapped
    /// definitions' types. On a disk hit the bundle is rebuilt by the
    /// same codegen `compute` would run (parse, validate, compile,
    /// wrap) with each type taken from the store instead of re-checked.
    pub fn compile<E>(
        &self,
        src: &str,
        tail_call_opt: bool,
        compute: impl FnOnce() -> Result<CompiledMiniF, E>,
    ) -> Result<Arc<CompiledMiniF>, E> {
        let key = (src.to_string(), tail_call_opt);
        self.compile.get_or_try_insert(&key, || {
            let Some(store) = &self.store else {
                return compute();
            };
            let disk_key = artifact::compile_key(src, tail_call_opt);
            if let Some(bundle) = disk_probe(store, Stage::Compile, &disk_key, rebuild_compiled) {
                return Ok(bundle);
            }
            let bundle = compute()?;
            let payload = wire::encode_types(bundle.wrapped.iter().map(|(_, _, ty)| ty));
            // Best-effort, as in `check_keyed`.
            let _ = store.save(Stage::Compile, &disk_key, &payload);
            Ok(bundle)
        })
    }

    /// A point-in-time copy of all counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            parse: self.parse.counters.snapshot(),
            check: self.check.counters.snapshot(),
            lower: self.lower.counters.snapshot(),
            compile: self.compile.counters.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let cache = ArtifactCache::new();
        let parse = |src: &str| {
            cache.parse(src, || {
                Ok::<_, std::convert::Infallible>((
                    funtal_syntax::build::fint_e(1),
                    SpanTable::default(),
                ))
            })
        };
        parse("1").unwrap();
        parse("1").unwrap();
        parse("2").unwrap();
        let s = cache.stats().parse;
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(s.lookups(), 3);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ArtifactCache::new();
        let r1: Result<_, String> = cache.parse("bad", || Err("nope".to_string()));
        assert!(r1.is_err());
        // The failed computation did not populate the cache.
        let r2 = cache.parse("bad", || {
            Ok::<_, String>((funtal_syntax::build::funit_e(), SpanTable::default()))
        });
        assert!(r2.is_ok());
        let s = cache.stats().parse;
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    #[test]
    fn colliding_digests_cannot_alias_entries() {
        // Full-key maps: even if two sources shared a 64-bit digest,
        // the cache must keep them separate. (We cannot forge an FNV
        // collision here; instead assert the map distinguishes keys
        // regardless of digest by probing two distinct sources and
        // checking both artifacts survive independently.)
        let cache = ArtifactCache::new();
        let a = funtal_syntax::build::fint_e(1);
        let b = funtal_syntax::build::fint_e(2);
        cache
            .parse("src-a", || {
                Ok::<_, std::convert::Infallible>((a.clone(), SpanTable::default()))
            })
            .unwrap();
        cache
            .parse("src-b", || {
                Ok::<_, std::convert::Infallible>((b.clone(), SpanTable::default()))
            })
            .unwrap();
        // A compute closure that fails proves the lookup was a hit.
        let got_a = cache.parse("src-a", || Err("expected a hit".to_string()));
        let got_b = cache.parse("src-b", || Err("expected a hit".to_string()));
        assert_eq!(got_a.unwrap().expr, a);
        assert_eq!(got_b.unwrap().expr, b);
    }
}
