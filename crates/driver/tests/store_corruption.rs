//! Corruption injection against the persistent store: every mutated
//! entry must be rejected on load (counted in `rejects`), the stage
//! must recompute the correct verdict, and nothing may panic.
//!
//! Four container-level mutations (truncation, bit flip, version bump,
//! simulated digest collision) are applied to both persisted stages,
//! plus payload-level corruptions that keep the container checksum
//! valid (garbage bytes, non-canonical type text, a compile payload
//! with the wrong line count, a line that does not parse) to prove the
//! decode layer rejects what the container layer cannot see.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use funtal_driver::artifact::compile_key;
use funtal_driver::{ArtifactCache, Batch, DiskStore, Job, Pipeline};
use funtal_store::Stage;

const SRC_PLAIN: &str = "6 * 7";
const SRC_BC: &str = "FT[int](mv r1, 6; mul r1, r1, 7; halt int, * {r1})";
const SRC_MF: &str = "fn double(n) = n + n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("funtal_store_corrupt_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Jobs that persist both verdict kinds: two FT runs (check) and a
/// MiniF compile.
fn jobs() -> Vec<Job> {
    vec![
        Job::run("plain", SRC_PLAIN),
        Job::run_tiered("bc", SRC_BC, funtal::machine::EvalStrategy::Bytecode),
        Job::compile("mf", SRC_MF),
    ]
}

fn engine_on(dir: &Path) -> Batch {
    let store = Arc::new(DiskStore::open(dir, 0).expect("open store"));
    Batch::new(Pipeline::new()).with_cache(Arc::new(ArtifactCache::with_store(store)))
}

/// Populates a fresh store, applies `mutate` to every entry, then runs
/// a memory-cold engine over the same jobs and asserts: identical
/// results, zero disk hits, every probed entry rejected, no panics.
fn assert_mutation_rejects(tag: &str, mutate: impl Fn(&Path)) {
    let dir = temp_dir(tag);
    let baseline = engine_on(&dir).run(&jobs());
    assert_eq!(baseline.err_count(), 0);

    let store = DiskStore::open(&dir, 0).expect("reopen");
    let entries = store.all_entries().expect("entries");
    assert_eq!(
        entries.len(),
        3,
        "expected both stages populated: {entries:?}"
    );
    for e in &entries {
        mutate(&e.path);
    }

    let recovered = engine_on(&dir).run(&jobs());
    assert_eq!(
        baseline.result_lines(),
        recovered.result_lines(),
        "{tag}: corruption changed results"
    );
    let stats = recovered.store.expect("store stats");
    assert_eq!(stats.total_hits(), 0, "{tag}: a corrupt entry was served");
    // Every stage that was probed rejected its corrupt entry. (100%
    // rejection: rejects == lookups that found a file.)
    assert_eq!(stats.total_rejects(), 3, "{tag}: {stats:?}");
    for stage in Stage::ALL {
        let s = stats.stage(stage);
        assert_eq!(s.hits, 0, "{tag}/{stage:?}: {s:?}");
        assert_eq!(s.lookups(), s.misses, "{tag}/{stage:?}: {s:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entries_reject_on_every_stage() {
    assert_mutation_rejects("truncate", |path| {
        let bytes = std::fs::read(path).expect("read");
        std::fs::write(path, &bytes[..bytes.len() / 2]).expect("write");
    });
}

#[test]
fn bit_flipped_entries_reject_on_every_stage() {
    assert_mutation_rejects("bitflip", |path| {
        let mut bytes = std::fs::read(path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(path, &bytes).expect("write");
    });
}

#[test]
fn version_bumped_entries_reject_on_every_stage() {
    assert_mutation_rejects("version", |path| {
        let mut bytes = std::fs::read(path).expect("read");
        // Bytes 4..6 are the little-endian format version.
        bytes[4] = bytes[4].wrapping_add(1);
        std::fs::write(path, &bytes).expect("write");
    });
}

#[test]
fn simulated_digest_collisions_reject() {
    // Serve entry A's container under entry B's path — what a 64-bit
    // digest collision (or a renamed file) would look like. The
    // embedded full key must catch it, in both stages.
    let dir = temp_dir("collide");
    let jobs = [
        Job::run("a", "6 * 7"),
        Job::run("b", "7 * 8"),
        Job::compile("f", "fn f(n) = n + 1"),
        Job::compile("g", "fn g(n) = n * 2"),
    ];
    let baseline = engine_on(&dir).run(&jobs);
    let store = DiskStore::open(&dir, 0).expect("reopen");
    for stage in Stage::ALL {
        let entries = store.entries(stage).expect("entries");
        assert_eq!(entries.len(), 2, "{stage:?}");
        std::fs::copy(&entries[0].path, &entries[1].path).expect("copy");
    }

    let recovered = engine_on(&dir).run(&jobs);
    assert_eq!(baseline.result_lines(), recovered.result_lines());
    let stats = recovered.store.expect("store stats");
    // In each stage one entry still loads fine; the clobbered one is a
    // key mismatch and must reject.
    for stage in Stage::ALL {
        let s = stats.stage(stage);
        assert_eq!((s.hits, s.rejects), (1, 1), "{stage:?}: {stats:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn check_key(src: &str) -> Vec<u8> {
    Pipeline::new()
        .parse(src)
        .expect("parse")
        .to_string()
        .into_bytes()
}

/// A stage, a store key, and the payload to store under it.
type BadEntry<'a> = (Stage, Vec<u8>, &'a [u8]);

/// Overwrites each listed entry with a valid container around a bad
/// payload — magic, version and checksum all hold, so only the payload
/// decoder can reject it — then asserts a memory-cold engine rejects
/// every one, recomputes byte-identical results, and a third engine
/// hits the rewritten entries.
fn assert_payloads_reject(tag: &str, bad: &[BadEntry]) {
    let dir = temp_dir(tag);
    let baseline = engine_on(&dir).run(&jobs());
    let store = DiskStore::open(&dir, 0).expect("reopen");
    for (stage, key, payload) in bad {
        assert!(
            store.entry_path(*stage, key).exists(),
            "{tag}: {stage:?} entry missing"
        );
        store.save(*stage, key, payload).expect("save");
    }

    let recovered = engine_on(&dir).run(&jobs());
    assert_eq!(baseline.result_lines(), recovered.result_lines(), "{tag}");
    let stats = recovered.store.expect("store stats");
    for stage in Stage::ALL {
        let n = bad.iter().filter(|(s, _, _)| *s == stage).count() as u64;
        assert_eq!(stats.stage(stage).rejects, n, "{tag}: {stats:?}");
    }
    assert_eq!(stats.total_hits(), 3 - bad.len() as u64, "{tag}: {stats:?}");

    let third = engine_on(&dir).run(&jobs());
    assert_eq!(baseline.result_lines(), third.result_lines(), "{tag}");
    let stats = third.store.expect("store stats");
    assert_eq!((stats.total_hits(), stats.total_rejects()), (3, 0), "{tag}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn valid_containers_with_garbage_payloads_reject_at_decode() {
    let garbage = b"not an artifact".as_slice();
    let plain = || check_key(SRC_PLAIN);
    let mf = || compile_key(SRC_MF, false);
    let cases: [(&str, Vec<BadEntry>); 4] = [
        (
            "garbage",
            vec![
                (Stage::Check, plain(), garbage),
                (Stage::Check, check_key(SRC_BC), garbage),
                (Stage::Compile, mf(), garbage),
            ],
        ),
        // Each payload parses to the right type; only the
        // byte-for-byte re-rendering check catches it.
        (
            "noncanonical",
            vec![
                (Stage::Check, plain(), b" int"),
                (Stage::Compile, mf(), b"(int)  ->  int"),
            ],
        ),
        (
            "linecount",
            vec![
                (Stage::Check, plain(), b"int\nint"),
                (Stage::Compile, mf(), b"(int) -> int\n(int) -> int"),
            ],
        ),
        (
            "unparsable",
            vec![
                (Stage::Check, plain(), b"int ->"),
                (Stage::Compile, mf(), b"(int) -> ?"),
            ],
        ),
    ];
    for (tag, bad) in &cases {
        assert_payloads_reject(tag, bad);
    }
}

#[test]
fn retired_stage_dirs_go_and_v1_entries_recompute() {
    // A store left by format version 1: a lowering under `lower/` and
    // a check entry whose header says version 1.
    let dir = temp_dir("v1");
    let baseline = engine_on(&dir).run(&jobs());
    let v1 = DiskStore::open(&dir, 0)
        .expect("reopen")
        .entry_path(Stage::Check, &check_key(SRC_PLAIN));
    let lower = dir.join("lower");
    std::fs::create_dir_all(&lower).expect("mkdir");
    std::fs::write(lower.join("00000000deadbeef.art"), b"FTST v1 lowering").expect("write");
    let mut bytes = std::fs::read(&v1).expect("read");
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(&v1, &bytes).expect("write");
    assert!(lower.exists());

    let store = DiskStore::open(&dir, 0).expect("reopen");
    assert!(!lower.exists(), "open left the retired lower/ directory");
    assert!(v1.exists());
    let recovered = Batch::new(Pipeline::new())
        .with_cache(Arc::new(ArtifactCache::with_store(Arc::new(store))))
        .run(&jobs());
    assert_eq!(baseline.result_lines(), recovered.result_lines());
    let stats = recovered.store.expect("store stats");
    assert_eq!((stats.check.hits, stats.check.rejects), (1, 1), "{stats:?}");
    // The recompute rewrote the entry at the current version.
    let bytes = std::fs::read(&v1).expect("read");
    assert_eq!(bytes[4..6], funtal_store::FORMAT_VERSION.to_le_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}
