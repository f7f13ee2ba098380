//! The worklist solver: forward or backward dataflow over a [`Cfg`]
//! and any join-semilattice of facts.
//!
//! An [`Analysis`] supplies the lattice (initial fact, join) and the
//! per-block transfer function; [`solve`] iterates to the least fixed
//! point. Boundary facts model entries the graph cannot see — the
//! machine entering block 0 with an empty register file, or a code
//! block whose label escapes as a first-class value and can therefore
//! be entered from anywhere.

use crate::cfg::Cfg;

/// Which way facts flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors into successors (e.g. definite
    /// initialization).
    Forward,
    /// Facts flow from successors into predecessors (e.g. liveness).
    Backward,
}

/// One dataflow problem: a lattice of facts plus a transfer function.
pub trait Analysis {
    /// The fact attached to each block edge; `join` must be monotone
    /// and the lattice of facts must have finite height, or the solver
    /// will not terminate.
    type Fact: Clone + PartialEq;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The starting fact for every block (the lattice bottom).
    fn init_fact(&self) -> Self::Fact;

    /// An extra fact joined into `block`'s input unconditionally —
    /// `Some` for blocks with entries the CFG cannot represent (the
    /// machine's entry into block 0, external entries into escaping
    /// blocks; for backward problems, exits). `None` elsewhere.
    fn boundary_fact(&self, block: usize) -> Option<Self::Fact>;

    /// Joins `from` into `into`, returning whether `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// The fact at the far edge of `block` given the fact at its near
    /// edge (input for forward problems, output for backward ones).
    fn transfer(&self, block: usize, fact: &Self::Fact) -> Self::Fact;
}

/// Runs `analysis` over `cfg` to its least fixed point with a
/// deterministic worklist (blocks revisited in index order, seeded in
/// reverse postorder for forward problems and its reverse for backward
/// ones). Returns the fact flowing *into* each block's transfer
/// function: block-entry facts for forward problems and block-exit
/// facts for backward ones.
pub fn solve<A: Analysis>(analysis: &A, cfg: &Cfg) -> Vec<A::Fact> {
    let n = cfg.node_count();
    let mut inputs: Vec<A::Fact> = vec![analysis.init_fact(); n];
    let mut outputs: Vec<A::Fact> = vec![analysis.init_fact(); n];
    let forward = analysis.direction() == Direction::Forward;

    let mut order = cfg.rpo();
    if !forward {
        order.reverse();
    }
    let mut on_list = vec![true; n];
    let mut work: std::collections::VecDeque<usize> = order.iter().copied().collect();

    while let Some(b) = work.pop_front() {
        on_list[b] = false;
        // Recompute b's input: boundary fact joined with every
        // upstream block's output.
        let mut input = analysis.init_fact();
        if let Some(bf) = analysis.boundary_fact(b) {
            analysis.join(&mut input, &bf);
        }
        let upstream: &[usize] = if forward { cfg.preds(b) } else { cfg.succs(b) };
        for &u in upstream {
            analysis.join(&mut input, &outputs[u]);
        }
        let output = analysis.transfer(b, &input);
        inputs[b] = input;
        if output != outputs[b] {
            outputs[b] = output;
            let downstream: &[usize] = if forward { cfg.succs(b) } else { cfg.preds(b) };
            for &d in downstream {
                if !on_list[d] {
                    on_list[d] = true;
                    work.push_back(d);
                }
            }
        }
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;

    fn elems(s: BitSet) -> Vec<usize> {
        (0..64).filter(|&i| s.contains(i)).collect()
    }

    /// Forward may-reach: which blocks have been passed through on
    /// some path (gen the block's own index, union join).
    struct Reach;
    impl Analysis for Reach {
        type Fact = BitSet;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn init_fact(&self) -> BitSet {
            BitSet::EMPTY
        }
        fn boundary_fact(&self, _b: usize) -> Option<BitSet> {
            None
        }
        fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
            let next = into.union(*from);
            let changed = next != *into;
            *into = next;
            changed
        }
        fn transfer(&self, block: usize, fact: &BitSet) -> BitSet {
            let mut out = *fact;
            out.insert(block);
            out
        }
    }

    #[test]
    fn forward_reach_on_a_diamond() {
        let cfg = Cfg::new(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let sol = solve(&Reach, &cfg);
        assert_eq!(elems(sol[3]), vec![0, 1, 2]);
        assert_eq!(elems(Reach.transfer(3, &sol[3])), vec![0, 1, 2, 3]);
    }

    #[test]
    fn forward_reach_converges_on_a_loop() {
        let cfg = Cfg::new(3, 0, [(0, 1), (1, 1), (1, 2)]);
        let sol = solve(&Reach, &cfg);
        assert_eq!(elems(sol[1]), vec![0, 1]);
        assert_eq!(elems(Reach.transfer(2, &sol[2])), vec![0, 1, 2]);
    }

    /// Backward liveness over a two-variable program encoded in facts.
    struct Live {
        /// Per block: (used, defined) variable sets.
        blocks: Vec<(BitSet, BitSet)>,
    }
    impl Analysis for Live {
        type Fact = BitSet;
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn init_fact(&self) -> BitSet {
            BitSet::EMPTY
        }
        fn boundary_fact(&self, _b: usize) -> Option<BitSet> {
            None
        }
        fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
            let next = into.union(*from);
            let changed = next != *into;
            *into = next;
            changed
        }
        fn transfer(&self, block: usize, fact: &BitSet) -> BitSet {
            let (used, defined) = self.blocks[block];
            // live-in = used ∪ (live-out ∖ defined)
            let mut out = BitSet::EMPTY;
            for v in elems(*fact) {
                if !defined.contains(v) {
                    out.insert(v);
                }
            }
            out.union(used)
        }
    }

    #[test]
    fn backward_liveness() {
        // 0: x :=        (defines 0)
        // 1: use x, y := (uses 0, defines 1)
        // 2: use y       (uses 1)
        let mut def_x = BitSet::EMPTY;
        def_x.insert(0);
        let mut use_x = BitSet::EMPTY;
        use_x.insert(0);
        let mut def_y = BitSet::EMPTY;
        def_y.insert(1);
        let mut use_y = BitSet::EMPTY;
        use_y.insert(1);
        let live = Live {
            blocks: vec![
                (BitSet::EMPTY, def_x),
                (use_x, def_y),
                (use_y, BitSet::EMPTY),
            ],
        };
        let cfg = Cfg::new(3, 0, [(0, 1), (1, 2)]);
        let sol = solve(&live, &cfg);
        // x is live into block 1 but dead into block 0's transfer
        // output (block 0 defines it).
        assert!(live.transfer(1, &sol[1]).contains(0));
        assert_eq!(elems(live.transfer(0, &sol[0])), vec![]);
        assert_eq!(elems(sol[1]), vec![1]);
    }

    /// Definite initialization: boundary fact at entry, intersection
    /// join — the verifier's shape.
    struct Init {
        defs: Vec<BitSet>,
    }
    impl Analysis for Init {
        type Fact = Option<BitSet>; // None = unreachable (top)
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn init_fact(&self) -> Option<BitSet> {
            None
        }
        fn boundary_fact(&self, b: usize) -> Option<Option<BitSet>> {
            (b == 0).then_some(Some(BitSet::EMPTY))
        }
        fn join(&self, into: &mut Option<BitSet>, from: &Option<BitSet>) -> bool {
            let next = match (&*into, from) {
                (None, f) => *f,
                (f, None) => *f,
                (Some(a), Some(b)) => Some(a.intersect(*b)),
            };
            let changed = next != *into;
            *into = next;
            changed
        }
        fn transfer(&self, block: usize, fact: &Option<BitSet>) -> Option<BitSet> {
            fact.as_ref().map(|f| f.union(self.defs[block]))
        }
    }

    #[test]
    fn definite_init_intersects_at_joins() {
        // 0 -> 1 (defines r1), 0 -> 2 (defines nothing), both -> 3.
        let mut r1 = BitSet::EMPTY;
        r1.insert(1);
        let init = Init {
            defs: vec![BitSet::EMPTY, r1, BitSet::EMPTY, BitSet::EMPTY],
        };
        let cfg = Cfg::new(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let sol = solve(&init, &cfg);
        // Only one branch defines r1, so it is not definitely
        // initialized at the join.
        assert_eq!(sol[3], Some(BitSet::EMPTY));
        assert_eq!(sol[1], Some(BitSet::EMPTY));
        assert_eq!(init.transfer(1, &sol[1]), Some(r1));
    }
}
