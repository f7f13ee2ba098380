//! Stable, platform-independent byte hashing.
//!
//! The persistent verdict store (`funtal-store`) names its entry files
//! and checksums its containers with these hashes. What matters is
//! **stability**: the hash of a byte string is the same in every
//! process, on every platform, in every run — unlike `std::hash`,
//! which is randomized per process and explicitly unstable across
//! releases.
//!
//! The function is 64-bit FNV-1a: tiny, dependency-free, and fast.
//! It is not cryptographic and must not be used where collision
//! resistance against an adversary matters (the store re-checks the
//! full key embedded in every entry).

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x00000100000001b3;

/// Hashes raw bytes.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a 64 of the empty input is the offset basis; of "a" it
        // is the classic published vector.
        assert_eq!(hash_bytes(b""), 0xcbf29ce484222325);
        assert_eq!(hash_bytes(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn bytes_agree_with_str_and_concatenation() {
        // A string hashes as its UTF-8 bytes, and continuing a hash is
        // hashing the concatenation.
        assert_eq!(hash_bytes("abc".as_bytes()), 0xe71fa2190541574b);
        assert_eq!(hash_bytes_from(hash_bytes(b"ab"), b"c"), hash_bytes(b"abc"));
        assert_eq!(hash_bytes_from(hash_bytes(b""), b"abc"), hash_bytes(b"abc"));
    }
}
