//! Stable, platform-independent content hashing for terms.
//!
//! The batch engine (`funtal-driver`) keys its content-addressed
//! artifact caches on these hashes. Two properties matter:
//!
//! - **Stability**: the hash of a term is the same in every process,
//!   on every platform, in every run — unlike `std::hash`, which is
//!   randomized per process and explicitly unstable across releases.
//! - **Canonicity**: two structurally equal terms hash equally. The
//!   hash is computed over the canonical [`Display`] rendering, which
//!   round-trips through the parser for every figure of the paper
//!   (see `crates/parser/tests/roundtrip.rs`), so the rendering *is*
//!   the term's canonical content.
//!
//! The function is 64-bit FNV-1a: tiny, dependency-free, and fast
//! enough that hashing is negligible next to parsing (one pass over
//! the rendered text). These hashes index in-process caches — they are
//! not cryptographic and must not be used where collision resistance
//! against an adversary matters.
//!
//! [`Display`]: std::fmt::Display

use std::fmt::{self, Write};

use crate::term::FExpr;
use crate::ty::FTy;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x00000100000001b3;

/// An incremental 64-bit FNV-1a hasher over bytes.
///
/// Unlike [`std::hash::Hasher`] implementations, the result is stable
/// across processes and platforms, which is what makes it usable as a
/// content address.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher { state: FNV_OFFSET }
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a string as a delimited field: its UTF-8 bytes plus a
    /// length terminator, so adjacent fields cannot alias each other.
    ///
    /// Deliberately *not* named `write_str`: the [`fmt::Write`] impl
    /// below has a same-named method with different semantics (raw
    /// bytes, no terminator — it must match what streaming a
    /// `Display` rendering produces), and a silent resolution switch
    /// between the two would change every persisted content address.
    pub fn write_field(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write_u64(s.len() as u64);
    }

    /// Absorbs a 64-bit integer (little-endian bytes).
    pub fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

// `fmt::Write` lets terms hash their `Display` rendering without
// materializing the string.
impl Write for StableHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Hashes a string's content.
pub fn hash_str(s: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write(s.as_bytes());
    h.finish()
}

/// Hashes raw bytes. For `&str` input this agrees with [`hash_str`],
/// so byte-keyed consumers (the persistent verdict store) report the
/// same content addresses as the in-process caches.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    hash_bytes_from(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash from a prior state over more bytes.
/// `hash_bytes_from(hash_bytes(a), b)` hashes the concatenation
/// `a ++ b`, letting callers checksum multi-part records without
/// materializing the concatenation.
pub fn hash_bytes_from(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes anything that renders, streaming the rendering through the
/// hasher (no intermediate `String`).
pub fn hash_display(x: &dyn fmt::Display) -> u64 {
    let mut h = StableHasher::new();
    write!(h, "{x}").expect("StableHasher never fails");
    h.finish()
}

/// The stable content hash of an F expression (over its canonical
/// rendering, which round-trips through the parser).
pub fn hash_fexpr(e: &FExpr) -> u64 {
    hash_display(e)
}

/// The stable content hash of an F type.
pub fn hash_fty(t: &FTy) -> u64 {
    hash_display(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn known_vector() {
        // FNV-1a 64 of the empty input is the offset basis; of "a" it
        // is the classic published vector.
        assert_eq!(hash_str(""), 0xcbf29ce484222325);
        assert_eq!(hash_str("a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn bytes_agree_with_str_and_concatenation() {
        assert_eq!(hash_bytes(b"abc"), hash_str("abc"));
        assert_eq!(hash_bytes_from(hash_bytes(b"ab"), b"c"), hash_bytes(b"abc"));
        assert_eq!(hash_bytes(b""), 0xcbf29ce484222325);
    }

    #[test]
    fn structurally_equal_terms_hash_equal() {
        let a = app(
            lam(vec![("x", fint())], fadd(var("x"), fint_e(1))),
            vec![fint_e(41)],
        );
        let b = app(
            lam(vec![("x", fint())], fadd(var("x"), fint_e(1))),
            vec![fint_e(41)],
        );
        assert_eq!(hash_fexpr(&a), hash_fexpr(&b));
    }

    #[test]
    fn distinct_terms_hash_distinct() {
        let a = fadd(fint_e(1), fint_e(2));
        let b = fadd(fint_e(2), fint_e(1));
        assert_ne!(hash_fexpr(&a), hash_fexpr(&b));
        assert_ne!(hash_fty(&fint()), hash_fty(&funit()));
    }

    #[test]
    fn streaming_matches_string_hash() {
        let e = fmul(fint_e(6), fint_e(7));
        assert_eq!(hash_fexpr(&e), hash_str(&e.to_string()));
    }
}
