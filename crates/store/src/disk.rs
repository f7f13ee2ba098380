//! The disk tier: atomic, checksummed, full-key-verified, LRU-capped.
//!
//! Layout: one directory per [`Stage`] under the store root, one file
//! per entry named by the 64-bit FNV-1a digest of its key
//! (`<digest16hex>.art`). The digest only *names* the file — the
//! container embeds the full key, and [`DiskStore::load`] compares it
//! byte-for-byte, so a digest collision degrades to a miss, never to a
//! wrong verdict.
//!
//! Container format (all integers little-endian):
//!
//! ```text
//! magic    4 bytes  b"FTST"
//! version  u16      FORMAT_VERSION
//! stage    u8       Stage tag
//! checksum u64      FNV-1a over key ++ payload
//! key_len  u64      followed by that many key bytes
//! pay_len  u64      followed by that many payload bytes (exactly to EOF)
//! ```
//!
//! Writes go to a temp file in the same directory and are `rename`d
//! into place, so readers never observe a partial entry; a failed
//! write or rename removes its temp file.
//!
//! Eviction runs on a byte budget, not on every write. A capped store
//! keeps a ledger of the bytes it takes the directory to hold: the
//! first capped [`DiskStore::save`] seeds it with one scan, every
//! later save adds its container's length, and only a save that takes
//! the ledger past the cap scans again — evicting least-recently-used
//! entries down to the low-water mark `cap - cap / 8` when the scan
//! finds the store over its cap. A scan resets the ledger to what it
//! found, but never below the low-water mark, so a writer scans again
//! after at most `cap / 8` bytes of its own writes. The bound: with one
//! writing process the store holds at most `cap` bytes after every
//! save; with `W` processes writing at once, at most
//! `cap + (W - 1) * cap / 8`, since each one's ledger misses only the
//! others' writes since its last scan. Counter
//! protocol: `load` counts a miss for an absent entry and a
//! reject+miss (deleting the file) for a container-level failure; a
//! successful container read returns the payload *without* counting a
//! hit — the caller counts [`DiskStore::hit`] after its own decode and
//! semantic verification succeed, or [`DiskStore::reject`] if they
//! fail. Either way `hits + misses == lookups` holds per stage.

use std::fs;
use std::io::{self, Read};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::SystemTime;

use funtal_syntax::hash::{hash_bytes, hash_bytes_from};

/// Magic bytes opening every container file.
pub(crate) const MAGIC: [u8; 4] = *b"FTST";

/// The on-disk format version. Any change to the container layout or
/// to a payload's encoding must bump this; old entries then reject on
/// load and degrade to recompute. Version 2 persists typecheck
/// verdicts as canonical type text; version 1 also persisted binary
/// parse, lowering and compile artifacts.
pub const FORMAT_VERSION: u16 = 2;

/// Stage directories that format version 1 wrote and no stage reads
/// any more. [`DiskStore::open`] deletes them so their bytes cannot
/// sit outside the size cap.
const RETIRED_DIRS: [&str; 2] = ["parse", "lower"];

/// Where a capped store's sweep evicts down to: an eighth of the cap
/// below it, so a writer makes one scan per `cap / 8` bytes it writes.
fn low_water(cap_bytes: u64) -> u64 {
    cap_bytes - cap_bytes / 8
}

/// The two verdict kinds the store persists.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stage {
    /// An FT term's type, keyed on the term's canonical rendering.
    Check,
    /// The types of a MiniF program's boundary-wrapped definitions,
    /// keyed on codegen options + source text.
    Compile,
}

impl Stage {
    /// Every stage, in fixed order.
    pub const ALL: [Stage; 2] = [Stage::Check, Stage::Compile];

    /// The stage's directory name under the store root.
    pub fn dir(self) -> &'static str {
        match self {
            Stage::Check => "check",
            Stage::Compile => "compile",
        }
    }

    /// The stage's container tag byte.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Stage::Check => 0,
            Stage::Compile => 1,
        }
    }

    /// Inverse of [`Stage::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.tag() == tag)
    }

    fn index(self) -> usize {
        self.tag() as usize
    }
}

/// Why a container failed to parse (all count as rejects).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContainerError {
    /// The file is shorter than the fixed header.
    Truncated,
    /// The magic bytes are wrong.
    BadMagic,
    /// The format version does not match [`FORMAT_VERSION`].
    BadVersion(u16),
    /// The stage tag is unknown or does not match the lookup's stage.
    BadStage(u8),
    /// The checksum over key ++ payload does not match.
    BadChecksum,
    /// The embedded lengths disagree with the file size.
    BadLength,
    /// The embedded key differs from the lookup key (digest collision
    /// or renamed file).
    KeyMismatch,
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::Truncated => write!(f, "truncated container"),
            ContainerError::BadMagic => write!(f, "bad magic"),
            ContainerError::BadVersion(v) => {
                write!(f, "format version {v} (expected {FORMAT_VERSION})")
            }
            ContainerError::BadStage(t) => write!(f, "bad stage tag {t}"),
            ContainerError::BadChecksum => write!(f, "checksum mismatch"),
            ContainerError::BadLength => write!(f, "length fields disagree with file size"),
            ContainerError::KeyMismatch => write!(f, "embedded key differs from lookup key"),
        }
    }
}

impl std::error::Error for ContainerError {}

#[derive(Default, Debug)]
struct StageCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    rejects: AtomicU64,
}

/// A point-in-time snapshot of one stage's disk-tier counters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StageDiskStats {
    /// Loads whose artifact was served from disk (after verification).
    pub hits: u64,
    /// Loads that fell through to recompute (absent or rejected).
    pub misses: u64,
    /// Entries rejected by verification (also counted as misses).
    pub rejects: u64,
}

impl StageDiskStats {
    /// Total lookups observed (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Disk-tier counters, one field per cached pipeline stage. Parsing
/// and lowering are never persisted, so `parse` and `lower` always
/// read zero; they keep the summary schema's four keys stable.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StoreStats {
    /// Parse-stage counters (always zero: not persisted).
    pub parse: StageDiskStats,
    /// Typecheck-stage counters.
    pub check: StageDiskStats,
    /// Lowering-stage counters (always zero: not persisted).
    pub lower: StageDiskStats,
    /// Compile-stage counters.
    pub compile: StageDiskStats,
}

impl StoreStats {
    /// The counters for `stage`.
    pub fn stage(&self, stage: Stage) -> StageDiskStats {
        match stage {
            Stage::Check => self.check,
            Stage::Compile => self.compile,
        }
    }

    /// Sum of hits across stages.
    pub fn total_hits(&self) -> u64 {
        Stage::ALL.iter().map(|s| self.stage(*s).hits).sum()
    }

    /// Sum of rejects across stages.
    pub fn total_rejects(&self) -> u64 {
        Stage::ALL.iter().map(|s| self.stage(*s).rejects).sum()
    }
}

/// One on-disk entry, as seen by `stats`/`gc`/`verify`.
#[derive(Clone, Debug)]
pub struct EntryInfo {
    /// The stage the entry belongs to.
    pub stage: Stage,
    /// Full path of the container file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-access time (the LRU clock; touched on every hit).
    pub(crate) mtime: SystemTime,
}

/// What an eviction pass did.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct GcReport {
    /// Entries examined.
    pub examined: usize,
    /// Entries removed.
    pub removed: usize,
    /// Store size before, in bytes.
    pub bytes_before: u64,
    /// Store size after, in bytes.
    pub bytes_after: u64,
}

/// The disk-backed artifact store. Cheap to share (`Arc`) across the
/// batch engine's worker threads; all counters are atomic and all file
/// operations are crash-safe (temp file + rename).
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    cap_bytes: u64,
    counters: [StageCounters; 2],
    evicted: AtomicU64,
    tmp_seq: AtomicU64,
    ledger: Mutex<Ledger>,
}

/// A capped store's running estimate of its size (see the module docs).
/// It never reads less than the bytes this process has seen in the
/// directory: a save is charged after its rename, and every other
/// change (an eviction, a reject, another process's sweep) only takes
/// bytes away.
#[derive(Debug, Default)]
struct Ledger {
    /// Bytes the store is taken to hold; `None` until a scan seeds it,
    /// and again after a scan or eviction failed part-way.
    bytes: Option<u64>,
    /// Directory scans made, read by the tests that pin the budget.
    #[cfg_attr(not(test), allow(dead_code))]
    scans: u64,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DiskStore>()
};

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root` with a size
    /// cap of `cap_bytes` (`0` = unlimited). The directories of retired
    /// stages, left by a version 1 store, are deleted.
    pub fn open(root: impl Into<PathBuf>, cap_bytes: u64) -> io::Result<DiskStore> {
        let root = root.into();
        for dir in RETIRED_DIRS {
            match fs::remove_dir_all(root.join(dir)) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
        for stage in Stage::ALL {
            fs::create_dir_all(root.join(stage.dir()))?;
        }
        Ok(DiskStore {
            root,
            cap_bytes,
            counters: Default::default(),
            evicted: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            ledger: Mutex::default(),
        })
    }

    /// The configured size cap in bytes (`0` = unlimited).
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// Entries evicted by this process (cap enforcement + `gc`).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// The container file path for `key` in `stage`.
    pub fn entry_path(&self, stage: Stage, key: &[u8]) -> PathBuf {
        self.root
            .join(stage.dir())
            .join(format!("{:016x}.art", hash_bytes(key)))
    }

    /// Looks up `key`, returning the verified container payload.
    ///
    /// Counts a miss when absent and a reject+miss (removing the file)
    /// on any container-level failure. A `Some` return has counted
    /// *nothing* yet: the caller must follow up with [`DiskStore::hit`]
    /// once its decode + semantic verification succeed, or
    /// [`DiskStore::reject`] if they fail.
    pub fn load(&self, stage: Stage, key: &[u8]) -> Option<Vec<u8>> {
        let path = self.entry_path(stage, key);
        let mut bytes = Vec::new();
        let file = match fs::File::open(&path).and_then(|mut f| {
            f.read_to_end(&mut bytes)?;
            Ok(f)
        }) {
            Ok(f) => f,
            Err(_) => {
                self.counters[stage.index()]
                    .misses
                    .fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse_container(&bytes, Some(stage), Some(key)) {
            Ok((_, _, payload)) => {
                // Touch the LRU clock through the handle just read;
                // best-effort (a failed touch only makes the entry look
                // colder than it is).
                let _ = file.set_modified(SystemTime::now());
                Some(payload)
            }
            Err(_) => {
                let c = &self.counters[stage.index()];
                c.rejects.fetch_add(1, Ordering::Relaxed);
                c.misses.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Counts a disk hit for `stage` (call after decode + verify).
    pub fn hit(&self, stage: Stage) {
        self.counters[stage.index()]
            .hits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a post-container rejection for `stage` — the payload
    /// parsed as a container but failed decode or semantic
    /// verification — removing the entry and counting reject+miss.
    pub fn reject(&self, stage: Stage, key: &[u8]) {
        let c = &self.counters[stage.index()];
        c.rejects.fetch_add(1, Ordering::Relaxed);
        c.misses.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(self.entry_path(stage, key));
    }

    /// Writes `payload` for `key` atomically, then charges its bytes
    /// to the ledger; a save that takes the ledger past the cap sweeps
    /// (evicting least-recently-used entries down to the low-water
    /// mark, this one last — it carries the freshest mtime).
    pub fn save(&self, stage: Stage, key: &[u8], payload: &[u8]) -> io::Result<()> {
        let dir = self.root.join(stage.dir());
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let mut bytes = Vec::with_capacity(31 + key.len() + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.push(stage.tag());
        let checksum = hash_bytes_from(hash_bytes(key), payload);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes.extend_from_slice(&(key.len() as u64).to_le_bytes());
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        if let Err(e) =
            fs::write(&tmp, &bytes).and_then(|()| fs::rename(&tmp, self.entry_path(stage, key)))
        {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        if self.cap_bytes > 0 {
            let mut ledger = self.ledger();
            // An overwritten entry is charged again: the ledger may
            // only read high.
            match ledger.bytes.map(|b| b.saturating_add(bytes.len() as u64)) {
                Some(b) if b <= self.cap_bytes => ledger.bytes = Some(b),
                _ => {
                    let _ = self.sweep(&mut ledger, self.cap_bytes, low_water(self.cap_bytes));
                }
            }
        }
        Ok(())
    }

    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        // Every update leaves the ledger at or above the store's size,
        // so a panic elsewhere while it was held leaves it usable.
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every entry of `stage`, sorted by file name (deterministic).
    pub fn entries(&self, stage: Stage) -> io::Result<Vec<EntryInfo>> {
        let dir = self.root.join(stage.dir());
        let mut out = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let is_artifact = path.extension().is_some_and(|e| e == "art");
            if !is_artifact {
                continue;
            }
            let meta = entry.metadata()?;
            out.push(EntryInfo {
                stage,
                path,
                bytes: meta.len(),
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(out)
    }

    /// Every entry of every stage.
    pub fn all_entries(&self) -> io::Result<Vec<EntryInfo>> {
        let mut out = Vec::new();
        for stage in Stage::ALL {
            out.extend(self.entries(stage)?);
        }
        Ok(out)
    }

    /// Evicts least-recently-used entries until the store fits in
    /// `cap_bytes` (`0` = remove nothing, report only), and reseeds the
    /// ledger from the scan.
    pub(crate) fn enforce_cap(&self, cap_bytes: u64) -> io::Result<GcReport> {
        self.sweep(&mut self.ledger(), cap_bytes, cap_bytes)
    }

    /// Scans the store and, when it holds more than `cap_bytes`, evicts
    /// down to `target`; the ledger then reads the bytes left, but not
    /// less than the low-water mark.
    fn sweep(&self, ledger: &mut Ledger, cap_bytes: u64, target: u64) -> io::Result<GcReport> {
        ledger.scans += 1;
        ledger.bytes = None;
        let report = self.evict(self.all_entries()?, cap_bytes, target)?;
        ledger.bytes = Some(report.bytes_after.max(low_water(self.cap_bytes)));
        Ok(report)
    }

    /// Removes the oldest of `entries` until they hold at most `target`
    /// bytes, if they hold more than `cap_bytes` (`0` = no cap). An
    /// entry already gone — another sweep or a reject took it after
    /// the scan — counts as removed.
    fn evict(
        &self,
        mut entries: Vec<EntryInfo>,
        cap_bytes: u64,
        target: u64,
    ) -> io::Result<GcReport> {
        let bytes_before: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut report = GcReport {
            examined: entries.len(),
            removed: 0,
            bytes_before,
            bytes_after: bytes_before,
        };
        if cap_bytes == 0 || bytes_before <= cap_bytes {
            return Ok(report);
        }
        // Oldest access first; path breaks ties deterministically.
        entries.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.path.cmp(&b.path)));
        for e in entries {
            if report.bytes_after <= target {
                break;
            }
            match fs::remove_file(&e.path) {
                Err(err) if err.kind() != io::ErrorKind::NotFound => return Err(err),
                _ => {}
            }
            report.bytes_after -= e.bytes;
            report.removed += 1;
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
    }

    /// Runs eviction against the configured cap.
    pub fn gc(&self) -> io::Result<GcReport> {
        self.enforce_cap(self.cap_bytes)
    }

    /// Snapshot of the disk-tier counters.
    pub fn stats(&self) -> StoreStats {
        let snap = |s: Stage| {
            let c = &self.counters[s.index()];
            StageDiskStats {
                hits: c.hits.load(Ordering::Relaxed),
                misses: c.misses.load(Ordering::Relaxed),
                rejects: c.rejects.load(Ordering::Relaxed),
            }
        };
        StoreStats {
            check: snap(Stage::Check),
            compile: snap(Stage::Compile),
            ..StoreStats::default()
        }
    }
}

/// Parses a container, optionally checking its stage and key. Returns
/// `(stage, key, payload)`. Pure (no counters, no file ops) — shared
/// by [`DiskStore::load`] and the `store verify` walk.
pub fn parse_container(
    bytes: &[u8],
    expect_stage: Option<Stage>,
    expect_key: Option<&[u8]>,
) -> Result<(Stage, Vec<u8>, Vec<u8>), ContainerError> {
    // Fixed header: 4 magic + 2 version + 1 stage + 8 checksum + 8 key_len.
    if bytes.len() < 23 {
        return Err(ContainerError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(ContainerError::BadVersion(version));
    }
    let stage = Stage::from_tag(bytes[6]).ok_or(ContainerError::BadStage(bytes[6]))?;
    if let Some(expect) = expect_stage {
        if stage != expect {
            return Err(ContainerError::BadStage(bytes[6]));
        }
    }
    let checksum = u64::from_le_bytes(bytes[7..15].try_into().expect("8 bytes"));
    let key_len = u64::from_le_bytes(bytes[15..23].try_into().expect("8 bytes"));
    let rest = &bytes[23..];
    // `key_len` comes from the file: an absurd value must reject, not
    // overflow.
    let key_len = usize::try_from(key_len)
        .ok()
        .filter(|&n| n.checked_add(8).is_some_and(|end| end <= rest.len()))
        .ok_or(ContainerError::BadLength)?;
    let key = &rest[..key_len];
    let pay_len = u64::from_le_bytes(rest[key_len..key_len + 8].try_into().expect("8 bytes"));
    let payload = &rest[key_len + 8..];
    if pay_len != payload.len() as u64 {
        return Err(ContainerError::BadLength);
    }
    if hash_bytes_from(hash_bytes(key), payload) != checksum {
        return Err(ContainerError::BadChecksum);
    }
    if let Some(expect) = expect_key {
        if key != expect {
            return Err(ContainerError::KeyMismatch);
        }
    }
    Ok((stage, key.to_vec(), payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory removed on drop, also when the test panics.
    struct TempDir(PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// A fresh store in its own scratch directory. Bind the guard
    /// before the store so the store drops first.
    fn temp_store(tag: &str, cap: u64) -> (TempDir, DiskStore) {
        let dir =
            std::env::temp_dir().join(format!("funtal_store_unit_{}_{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir, cap).expect("open store");
        (TempDir(dir), store)
    }

    #[test]
    fn save_load_round_trip_counts_protocol() {
        let (_dir, s) = temp_store("roundtrip", 0);
        assert_eq!(s.load(Stage::Check, b"k"), None); // cold: miss
        s.save(Stage::Check, b"k", b"artifact").unwrap();
        let got = s.load(Stage::Check, b"k").expect("warm load");
        assert_eq!(got, b"artifact");
        s.hit(Stage::Check);
        let st = s.stats().check;
        assert_eq!((st.hits, st.misses, st.rejects), (1, 1, 0));
        assert_eq!(st.lookups(), 2);
    }

    #[test]
    fn stages_do_not_alias() {
        let (_dir, s) = temp_store("stages", 0);
        s.save(Stage::Check, b"k", b"check-art").unwrap();
        assert_eq!(s.load(Stage::Compile, b"k"), None);
        assert_eq!(
            s.load(Stage::Check, b"k").as_deref(),
            Some(&b"check-art"[..])
        );
    }

    #[test]
    fn key_mismatch_rejects_never_serves() {
        let (_dir, s) = temp_store("collide", 0);
        s.save(Stage::Check, b"first-key", b"first-payload")
            .unwrap();
        // Simulate a 64-bit digest collision: the container for
        // `first-key` sitting at the path `other-key` hashes to.
        let src = s.entry_path(Stage::Check, b"first-key");
        let dst = s.entry_path(Stage::Check, b"other-key");
        fs::copy(&src, &dst).unwrap();
        assert_eq!(s.load(Stage::Check, b"other-key"), None);
        let st = s.stats().check;
        assert_eq!((st.hits, st.misses, st.rejects), (0, 1, 1));
        assert!(!dst.exists(), "rejected entry is removed");
        // The original entry is untouched.
        assert_eq!(
            s.load(Stage::Check, b"first-key").as_deref(),
            Some(&b"first-payload"[..])
        );
    }

    #[test]
    fn explicit_reject_removes_and_counts() {
        let (_dir, s) = temp_store("reject", 0);
        s.save(Stage::Compile, b"k", b"payload-that-wont-decode")
            .unwrap();
        assert!(s.load(Stage::Compile, b"k").is_some());
        s.reject(Stage::Compile, b"k");
        let st = s.stats().compile;
        assert_eq!((st.hits, st.misses, st.rejects), (0, 1, 1));
        assert!(!s.entry_path(Stage::Compile, b"k").exists());
    }

    #[test]
    fn every_single_byte_flip_rejects() {
        let (_dir, s) = temp_store("bitflip", 0);
        s.save(Stage::Compile, b"the-key", b"the-payload").unwrap();
        let path = s.entry_path(Stage::Compile, b"the-key");
        let original = fs::read(&path).unwrap();
        for i in 0..original.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut mutated = original.clone();
                mutated[i] ^= bit;
                fs::write(&path, &mutated).unwrap();
                assert_eq!(
                    s.load(Stage::Compile, b"the-key"),
                    None,
                    "flip at byte {i} must reject"
                );
                // load removed the corrupt file; restore for the next flip.
                fs::write(&path, &original).unwrap();
            }
        }
        let st = s.stats().compile;
        assert_eq!(st.rejects, 2 * original.len() as u64);
        assert_eq!(st.misses, st.rejects);
    }

    #[test]
    fn truncations_reject() {
        let (_dir, s) = temp_store("trunc", 0);
        s.save(Stage::Check, b"key", b"some payload bytes").unwrap();
        let path = s.entry_path(Stage::Check, b"key");
        let original = fs::read(&path).unwrap();
        for cut in 0..original.len() {
            fs::write(&path, &original[..cut]).unwrap();
            assert_eq!(s.load(Stage::Check, b"key"), None, "cut at {cut}");
        }
    }

    #[test]
    fn version_bump_rejects() {
        let (_dir, s) = temp_store("version", 0);
        s.save(Stage::Check, b"key", b"payload").unwrap();
        let path = s.entry_path(Stage::Check, b"key");
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1); // version field
        fs::write(&path, &bytes).unwrap();
        assert_eq!(s.load(Stage::Check, b"key"), None);
        assert_eq!(s.stats().check.rejects, 1);
    }

    #[test]
    fn lru_eviction_respects_cap_and_recency() {
        let (_dir, s) = temp_store("lru", 0);
        let payload = vec![0u8; 128];
        s.save(Stage::Check, b"old", &payload).unwrap();
        s.save(Stage::Check, b"mid", &payload).unwrap();
        s.save(Stage::Check, b"new", &payload).unwrap();
        // Backdate mtimes so recency is unambiguous even on coarse
        // filesystem clocks.
        let t0 = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000);
        let t1 = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(2_000);
        let t2 = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(3_000);
        for (key, t) in [(&b"old"[..], t0), (&b"mid"[..], t1), (&b"new"[..], t2)] {
            let f = fs::OpenOptions::new()
                .write(true)
                .open(s.entry_path(Stage::Check, key))
                .unwrap();
            f.set_modified(t).unwrap();
        }
        let one = fs::metadata(s.entry_path(Stage::Check, b"old"))
            .unwrap()
            .len();
        let report = s.enforce_cap(2 * one).unwrap();
        assert_eq!(report.examined, 3);
        assert_eq!(report.removed, 1);
        assert!(!s.entry_path(Stage::Check, b"old").exists());
        assert!(s.entry_path(Stage::Check, b"mid").exists());
        assert!(s.entry_path(Stage::Check, b"new").exists());
        assert_eq!(s.evicted(), 1);
    }

    #[test]
    fn gc_with_zero_cap_reports_without_removing() {
        let (_dir, s) = temp_store("gc0", 0);
        s.save(Stage::Check, b"a", b"x").unwrap();
        let report = s.gc().unwrap();
        assert_eq!(report.removed, 0);
        assert_eq!(report.examined, 1);
        assert!(report.bytes_before > 0);
    }

    #[test]
    fn huge_key_lengths_reject_without_panicking() {
        let (_dir, s) = temp_store("keylen", 0);
        s.save(Stage::Check, b"k", b"artifact").unwrap();
        let good = fs::read(s.entry_path(Stage::Check, b"k")).unwrap();
        let rest_len = good.len() - 23;
        for key_len in [u64::MAX - 3, usize::MAX as u64 - 7, rest_len as u64 - 7] {
            let mut bytes = good.clone();
            bytes[15..23].copy_from_slice(&key_len.to_le_bytes());
            assert_eq!(
                parse_container(&bytes, None, None),
                Err(ContainerError::BadLength),
                "key_len {key_len}"
            );
        }
    }

    /// Saves entry `i`: a 5-byte key and a 64-byte payload make a
    /// 100-byte container.
    fn put(s: &DiskStore, i: usize) {
        s.save(Stage::Check, format!("k{i:04}").as_bytes(), &[7u8; 64])
            .unwrap();
    }

    const ENTRY: u64 = 100;

    fn total(s: &DiskStore) -> u64 {
        s.all_entries().unwrap().iter().map(|e| e.bytes).sum()
    }

    fn set_mtime(s: &DiskStore, key: &[u8], secs: u64) {
        fs::File::open(s.entry_path(Stage::Check, key))
            .unwrap()
            .set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs))
            .unwrap();
    }

    #[test]
    fn load_touches_the_lru_clock() {
        let (_dir, s) = temp_store("touch", 0);
        s.save(Stage::Check, b"k", b"artifact").unwrap();
        set_mtime(&s, b"k", 1_000);
        assert!(s.load(Stage::Check, b"k").is_some());
        let mtime = fs::metadata(s.entry_path(Stage::Check, b"k"))
            .unwrap()
            .modified()
            .unwrap();
        assert!(mtime > SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000));
    }

    #[test]
    fn failed_save_removes_its_temp_file() {
        let (dir, s) = temp_store("tmpfail", 0);
        // A non-empty directory at the entry's path makes the rename fail.
        let path = s.entry_path(Stage::Check, b"k");
        fs::create_dir_all(path.join("occupied")).unwrap();
        assert!(s.save(Stage::Check, b"k", b"artifact").is_err());
        let leftovers: Vec<_> = fs::read_dir(dir.0.join("check"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn eviction_goes_on_past_an_entry_already_gone() {
        let (_dir, s) = temp_store("gone", 0);
        for i in 0..4 {
            put(&s, i);
            set_mtime(&s, format!("k{i:04}").as_bytes(), 1_000 + i as u64);
        }
        let listed = s.all_entries().unwrap();
        // Another sweep takes the oldest entry after this one listed it.
        fs::remove_file(s.entry_path(Stage::Check, b"k0000")).unwrap();
        let report = s.evict(listed, 2 * ENTRY, 2 * ENTRY).unwrap();
        assert_eq!((report.removed, report.bytes_after), (2, 2 * ENTRY));
        assert!(!s.entry_path(Stage::Check, b"k0001").exists());
        assert_eq!(total(&s), 2 * ENTRY);
    }

    #[test]
    fn one_writer_stays_within_the_cap() {
        let cap = 16 * ENTRY;
        let (_dir, s) = temp_store("bound1", cap);
        for i in 0..160 {
            put(&s, i);
            assert!(total(&s) <= cap, "save {i}: {} > {cap}", total(&s));
        }
        assert!(total(&s) >= low_water(cap));
    }

    #[test]
    fn two_writers_stay_within_the_cap_plus_an_eighth() {
        let cap = 16 * ENTRY;
        let (dir, a) = temp_store("bound2", cap);
        let b = DiskStore::open(&dir.0, cap).unwrap();
        for i in 0..160 {
            put(if i % 2 == 0 { &a } else { &b }, i);
            assert!(total(&a) <= cap + cap / 8, "save {i}: {}", total(&a));
        }
    }

    #[test]
    fn a_sweep_keeps_the_recently_loaded_entry() {
        let (_dir, s) = temp_store("recent", 8 * ENTRY);
        for i in 0..8 {
            put(&s, i);
        }
        assert_eq!(total(&s), 8 * ENTRY);
        for i in 0..8 {
            set_mtime(&s, format!("k{i:04}").as_bytes(), 1_000 + i as u64);
        }
        assert!(s.load(Stage::Check, b"k0000").is_some());
        put(&s, 8); // past the cap: sweeps down to 7 entries
        assert!(s.entry_path(Stage::Check, b"k0000").exists());
        assert!(!s.entry_path(Stage::Check, b"k0001").exists());
        assert!(!s.entry_path(Stage::Check, b"k0002").exists());
        assert_eq!(total(&s), low_water(8 * ENTRY));
    }

    #[test]
    fn saves_into_a_full_store_scan_on_a_budget() {
        let cap = 64 * ENTRY;
        let (_dir, s) = temp_store("budget", cap);
        for i in 0..64 {
            put(&s, i);
        }
        let scans = s.ledger().scans;
        for i in 64..128 {
            put(&s, i);
        }
        // One sweep per `cap / 8` bytes written: 8 entries here.
        let swept = s.ledger().scans - scans;
        assert!((1..=9).contains(&swept), "{swept} scans for 64 saves");
        assert!(total(&s) <= cap);
        // `gc` reseeds the ledger from its own scan.
        s.gc().unwrap();
        assert_eq!(s.ledger().bytes, Some(total(&s).max(low_water(cap))));
    }

    #[test]
    fn temp_files_are_invisible_to_entries() {
        let (dir, s) = temp_store("tmpvis", 0);
        s.save(Stage::Check, b"a", b"x").unwrap();
        fs::write(dir.0.join("check").join(".tmp-999-0"), b"partial").unwrap();
        let entries = s.entries(Stage::Check).unwrap();
        assert_eq!(entries.len(), 1);
    }
}
