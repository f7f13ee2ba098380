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
//! into a silently wrong answer). The FNV-1a digests of
//! [`funtal_syntax::hash`] remain the stage's *content addresses* —
//! [`source_key`]/[`term_key`]/[`compile_key`] expose them for
//! reporting, distinct-key accounting in tests, and any future
//! persistent or distributed tier, and `IExpr::stable_hash` memoizes
//! the same term digest at the intern layer.
//!
//! Keying the typecheck stage on the *term* rather than the source
//! means two differently-formatted sources of the same program share
//! one typecheck. Evaluation is never cached — it is the work a job
//! asks for — so a warm cache turns `run` into hash + eval, which is
//! what the hit counters in the batch report prove.
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
//! disk-backed [`DiskStore`] *below* the in-process maps:
//!
//! ```text
//! memory probe → disk probe (verify-on-load) → compute (write-through)
//! ```
//!
//! A memory miss still counts as a memory miss — the in-process
//! counters keep their exact storeless semantics — and the disk tier
//! keeps its own per-stage hit/miss/reject counters
//! ([`store_stats`](ArtifactCache::store_stats)). Every disk load is
//! re-verified before it is served: the container layer already proved
//! magic/version/checksum/full-key, and this layer re-decodes the
//! payload (total, never panics) plus re-runs `verify_lowered` for
//! lowered bytecode. Anything that fails is a *reject*: the entry is
//! deleted, the counters record it, and the stage degrades to
//! recompute — a corrupt store can cost time, never correctness.
//! Computed artifacts are written through (errors are not stored), so
//! a second process pointed at the same `--store-dir` warm-starts
//! every stage.
//!
//! [`source_key`]: ArtifactCache::source_key
//! [`term_key`]: ArtifactCache::term_key
//! [`compile_key`]: ArtifactCache::compile_key

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use funtal_store::{DiskStore, Stage, StoreStats};
use funtal_syntax::hash::{hash_fexpr, StableHasher};
use funtal_syntax::span::SpanTable;
use funtal_syntax::{FExpr, FTy};

use crate::artifact;
use crate::report::CompiledMiniF;

/// Hit/miss counters for one cached stage.
#[derive(Debug, Default)]
pub struct StageCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    rejects: AtomicU64,
}

impl StageCounters {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn reject(&self) {
        self.rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> StageStats {
        StageStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
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
    /// Cached artifacts that failed verify-on-load and were discarded
    /// (each reject also counts as a miss: the stage recomputed).
    /// Only the `lower` stage verifies today, so it stays `0`
    /// elsewhere.
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
    /// can never alias two programs.
    fn get_or_try_insert<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(found) = self.map.lock().expect("cache poisoned").get(&key) {
            self.counters.hit();
            return Ok(found.clone());
        }
        self.counters.miss();
        let value = Arc::new(compute()?);
        self.map
            .lock()
            .expect("cache poisoned")
            .insert(key, value.clone());
        Ok(value)
    }
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
    pub spans: Arc<SpanTable>,
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

    /// Probes the disk tier (if any) for `key`, decoding and verifying
    /// with `decode`. A payload that fails decode/verify is a reject:
    /// the entry is deleted and the probe reports a (disk) miss.
    fn disk_probe<V>(
        &self,
        stage: Stage,
        key: &[u8],
        decode: impl FnOnce(&[u8]) -> Option<V>,
    ) -> Option<V> {
        let store = self.store.as_deref()?;
        let payload = store.load(stage, key)?;
        match decode(&payload) {
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

    /// Writes a computed artifact through to the disk tier (if any).
    /// Write failures are deliberately swallowed: the store is a
    /// cache, and a full or read-only disk must not fail the job.
    fn disk_save(&self, stage: Stage, key: &[u8], encode: impl FnOnce() -> Vec<u8>) {
        if let Some(store) = &self.store {
            let _ = store.save(stage, key, &encode());
        }
    }

    /// The 64-bit content address of a source text (reporting and
    /// persistent tiers; the in-process map keys on the text itself).
    pub fn source_key(src: &str) -> u64 {
        funtal_syntax::hash::hash_str(src)
    }

    /// The 64-bit content address of a parsed term — the digest of its
    /// canonical rendering, identical to what
    /// `funtal_syntax::intern::IExpr::stable_hash` memoizes.
    pub fn term_key(e: &FExpr) -> u64 {
        hash_fexpr(e)
    }

    /// The 64-bit content address of a MiniF compilation:
    /// source ⊕ codegen options.
    pub fn compile_key(src: &str, tail_call_opt: bool) -> u64 {
        let mut h = StableHasher::new();
        h.write_field("minif");
        h.write_field(src);
        h.write_u64(tail_call_opt as u64);
        h.finish()
    }

    /// The parse artifact for a source, from cache or `compute`. The
    /// artifact carries the term's canonical rendering, so downstream
    /// typecheck lookups ([`check_keyed`](ArtifactCache::check_keyed))
    /// never re-render on the warm path.
    pub fn parse<E>(
        &self,
        src: &str,
        compute: impl FnOnce() -> Result<(FExpr, SpanTable), E>,
    ) -> Result<Arc<Parsed>, E> {
        if let Some(found) = self.parse.map.lock().expect("cache poisoned").get(src) {
            self.parse.counters.hit();
            return Ok(found.clone());
        }
        self.parse.counters.miss();
        if let Some(parsed) = self.disk_probe(Stage::Parse, src.as_bytes(), |bytes| {
            artifact::decode_parsed(bytes).ok()
        }) {
            let value = Arc::new(parsed);
            self.parse
                .map
                .lock()
                .expect("cache poisoned")
                .insert(src.to_string(), value.clone());
            return Ok(value);
        }
        let (expr, spans) = compute()?;
        let value = Arc::new(Parsed {
            check_key: expr.to_string(),
            expr,
            spans: Arc::new(spans),
        });
        self.disk_save(Stage::Parse, src.as_bytes(), || {
            artifact::encode_parsed(&value)
        });
        self.parse
            .map
            .lock()
            .expect("cache poisoned")
            .insert(src.to_string(), value.clone());
        Ok(value)
    }

    /// The type of a term whose canonical rendering the caller already
    /// holds (a [`Parsed`] artifact's `check_key`): a warm lookup is a
    /// single map probe, no rendering, no allocation.
    pub fn check_keyed<E>(
        &self,
        check_key: &str,
        compute: impl FnOnce() -> Result<FTy, E>,
    ) -> Result<Arc<FTy>, E> {
        if let Some(found) = self
            .check
            .map
            .lock()
            .expect("cache poisoned")
            .get(check_key)
        {
            self.check.counters.hit();
            return Ok(found.clone());
        }
        self.check.counters.miss();
        if let Some(ty) = self.disk_probe(Stage::Check, check_key.as_bytes(), |bytes| {
            artifact::decode_checked(bytes).ok()
        }) {
            let value = Arc::new(ty);
            self.check
                .map
                .lock()
                .expect("cache poisoned")
                .insert(check_key.to_string(), value.clone());
            return Ok(value);
        }
        let value = Arc::new(compute()?);
        self.disk_save(Stage::Check, check_key.as_bytes(), || {
            artifact::encode_checked(&value)
        });
        self.check
            .map
            .lock()
            .expect("cache poisoned")
            .insert(check_key.to_string(), value.clone());
        Ok(value)
    }

    /// The type of a term, from cache or `compute`. Keyed on the
    /// term's canonical rendering, so differently formatted sources of
    /// the same program share one typecheck. Renders the term to build
    /// the key; engine code that holds a [`Parsed`] artifact should
    /// use [`check_keyed`](ArtifactCache::check_keyed) instead.
    pub fn check<E>(
        &self,
        term: &FExpr,
        compute: impl FnOnce() -> Result<FTy, E>,
    ) -> Result<Arc<FTy>, E> {
        self.check_keyed(&term.to_string(), compute)
    }

    /// The lowered bytecode artifact for a term whose canonical
    /// rendering the caller already holds (a [`Parsed`] artifact's
    /// `check_key`). Keyed like the typecheck stage — on the term, not
    /// the source — so differently formatted sources of one program
    /// share a single lowering, and a warm fast-machine run skips
    /// register allocation and fusion entirely.
    ///
    /// Every load out of the cache is re-checked by the bytecode
    /// verifier (`funtal::verify_lowered`). An artifact that no longer
    /// verifies is discarded and recomputed — the reject bumps the
    /// stage's `rejects` counter *and* counts as a miss, so a bad
    /// entry degrades to re-lowering instead of handing the dispatch
    /// loop garbage, and `hits + misses == lookups` stays the
    /// cross-thread invariant. Verification is linear in the module
    /// and runs only here and at lower time, never inside the dispatch
    /// loop (see PERFORMANCE.md).
    pub fn lower_keyed(
        &self,
        check_key: &str,
        compute: impl FnOnce() -> funtal::LoweredProgram,
    ) -> Arc<funtal::LoweredProgram> {
        if let Some(found) = self
            .lower
            .map
            .lock()
            .expect("cache poisoned")
            .get(check_key)
        {
            if funtal::verify_lowered(found).is_ok() {
                self.lower.counters.hit();
                return found.clone();
            }
            self.lower.counters.reject();
        }
        self.lower.counters.miss();
        // The disk probe verifies twice over: the payload must decode
        // (total, structural) *and* the decoded program must pass the
        // bytecode verifier — the same `verify_lowered` gate the
        // in-memory tier applies on every hit.
        if let Some(lowered) = self.disk_probe(Stage::Lower, check_key.as_bytes(), |bytes| {
            funtal::decode_lowered(bytes)
                .ok()
                .filter(|lp| funtal::verify_lowered(lp).is_ok())
        }) {
            let value = Arc::new(lowered);
            self.lower
                .map
                .lock()
                .expect("cache poisoned")
                .insert(check_key.to_string(), value.clone());
            return value;
        }
        let value = Arc::new(compute());
        self.disk_save(Stage::Lower, check_key.as_bytes(), || {
            funtal::encode_lowered(&value)
        });
        self.lower
            .map
            .lock()
            .expect("cache poisoned")
            .insert(check_key.to_string(), value.clone());
        value
    }

    /// The compiled MiniF bundle for a source, from cache or `compute`.
    pub fn compile<E>(
        &self,
        src: &str,
        tail_call_opt: bool,
        compute: impl FnOnce() -> Result<CompiledMiniF, E>,
    ) -> Result<Arc<CompiledMiniF>, E> {
        if self.store.is_none() {
            return self
                .compile
                .get_or_try_insert((src.to_string(), tail_call_opt), compute);
        }
        let key = (src.to_string(), tail_call_opt);
        if let Some(found) = self.compile.map.lock().expect("cache poisoned").get(&key) {
            self.compile.counters.hit();
            return Ok(found.clone());
        }
        self.compile.counters.miss();
        let disk_key = artifact::compile_key(src, tail_call_opt);
        if let Some(bundle) = self.disk_probe(Stage::Compile, &disk_key, |bytes| {
            artifact::decode_compiled(bytes).ok()
        }) {
            let value = Arc::new(bundle);
            self.compile
                .map
                .lock()
                .expect("cache poisoned")
                .insert(key, value.clone());
            return Ok(value);
        }
        let value = Arc::new(compute()?);
        self.disk_save(Stage::Compile, &disk_key, || {
            artifact::encode_compiled(&value)
        });
        self.compile
            .map
            .lock()
            .expect("cache poisoned")
            .insert(key, value.clone());
        Ok(value)
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

    /// Number of distinct artifacts currently cached (all stages).
    pub fn len(&self) -> usize {
        self.parse.map.lock().expect("cache poisoned").len()
            + self.check.map.lock().expect("cache poisoned").len()
            + self.lower.map.lock().expect("cache poisoned").len()
            + self.compile.map.lock().expect("cache poisoned").len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    fn term_key_agrees_with_interned_stable_hash() {
        // The content address of a term must match what the intern
        // layer memoizes (`IExpr::stable_hash`), so a future interned
        // pipeline can swap the memoized digest in without
        // invalidating any recorded cache addresses.
        let e = funtal_parser::parse_fexpr("(lam[z](x: int). x + 1)(41)").unwrap();
        assert_eq!(
            ArtifactCache::term_key(&e),
            funtal_syntax::intern::IExpr::from_fexpr(&e).stable_hash()
        );
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

    #[test]
    fn corrupted_lower_artifacts_are_rejected_and_recomputed() {
        let cache = ArtifactCache::new();
        let e = funtal_parser::parse_fexpr("FT[int](mv r1, 6; mul r1, r1, 7; halt int, * {r1})")
            .unwrap();
        let key = e.to_string();
        cache.lower_keyed(&key, || funtal::prelower(&e)); // cold: miss
        cache.lower_keyed(&key, || funtal::prelower(&e)); // warm: verified hit

        // Poison the cached artifact with a module the verifier
        // rejects (an out-of-bounds block offset).
        let mut corrupted = funtal::prelower(&e);
        assert!(funtal::bc_verify::corrupt_for_tests(&mut corrupted));
        assert!(funtal::verify_lowered(&corrupted).is_err());
        cache
            .lower
            .map
            .lock()
            .unwrap()
            .insert(key.clone(), Arc::new(corrupted));
        // The next load rejects the poisoned entry and degrades to
        // re-lowering: the caller still gets a verified artifact.
        let reloaded = cache.lower_keyed(&key, || funtal::prelower(&e));
        assert!(funtal::verify_lowered(&reloaded).is_ok());
        let s = cache.stats().lower;
        assert_eq!((s.hits, s.misses, s.rejects), (1, 2, 1));
        // A reject counts as a miss: lookups stays hits + misses.
        assert_eq!(s.lookups(), 3);
        // The recomputed artifact replaced the poisoned one.
        let again = cache.lower_keyed(&key, || panic!("expected a verified hit"));
        assert!(funtal::verify_lowered(&again).is_ok());
        assert_eq!(cache.stats().lower.rejects, 1);
    }

    #[test]
    fn term_key_ignores_formatting() {
        // Differently formatted sources, same parsed term, same key.
        let a = funtal_parser::parse_fexpr("1 + 2").unwrap();
        let b = funtal_parser::parse_fexpr("  1   +   2 ").unwrap();
        assert_eq!(ArtifactCache::term_key(&a), ArtifactCache::term_key(&b));
        assert_ne!(
            ArtifactCache::source_key("1 + 2"),
            ArtifactCache::source_key("  1   +   2 ")
        );
    }
}
