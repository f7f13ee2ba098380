//! A dense bit set over at most 64 elements.
//!
//! The fact domain for register-file analyses: the T machine has 8
//! registers, so one machine word holds a whole fact and join is a
//! single `or`/`and`. Kept general (up to 64) so index-shaped domains
//! of other passes can reuse it.

/// A set of small indices backed by one `u64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BitSet(u64);

impl BitSet {
    /// The empty set.
    pub const EMPTY: BitSet = BitSet(0);

    /// The set `{0, 1, …, n-1}`. Panics if `n > 64`.
    pub fn full(n: usize) -> BitSet {
        assert!(n <= 64, "BitSet holds at most 64 elements");
        if n == 64 {
            BitSet(u64::MAX)
        } else {
            BitSet((1u64 << n) - 1)
        }
    }

    /// Whether `i` is in the set.
    pub fn contains(self, i: usize) -> bool {
        i < 64 && self.0 & (1 << i) != 0
    }

    /// Inserts `i`. Panics if `i >= 64`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < 64, "BitSet holds at most 64 elements");
        self.0 |= 1 << i;
    }

    /// Removes `i`.
    pub fn remove(&mut self, i: usize) {
        if i < 64 {
            self.0 &= !(1 << i);
        }
    }

    /// Set union.
    pub fn union(self, other: BitSet) -> BitSet {
        BitSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: BitSet) -> BitSet {
        BitSet(self.0 & other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elems(s: BitSet) -> Vec<usize> {
        (0..64).filter(|&i| s.contains(i)).collect()
    }

    #[test]
    fn basic_ops() {
        let mut s = BitSet::EMPTY;
        assert_eq!(s, BitSet::EMPTY);
        s.insert(0);
        s.insert(7);
        assert!(s.contains(0) && s.contains(7) && !s.contains(3));
        assert_eq!(elems(s), vec![0, 7]);
        s.remove(0);
        assert!(!s.contains(0));
    }

    #[test]
    fn lattice_ops() {
        let mut a = BitSet::EMPTY;
        a.insert(1);
        a.insert(2);
        let mut b = BitSet::EMPTY;
        b.insert(2);
        b.insert(3);
        assert_eq!(elems(a.union(b)), vec![1, 2, 3]);
        assert_eq!(elems(a.intersect(b)), vec![2]);
    }

    #[test]
    fn full_sets() {
        assert_eq!(elems(BitSet::full(8)).len(), 8);
        assert_eq!(BitSet::full(0), BitSet::EMPTY);
        assert_eq!(elems(BitSet::full(64)).len(), 64);
        assert!(BitSet::full(8).contains(7) && !BitSet::full(8).contains(8));
    }
}
