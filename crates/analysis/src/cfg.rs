//! Control-flow graphs over numbered basic blocks.
//!
//! A [`Cfg`] is deliberately untyped: blocks are `usize` indices and
//! edges are pairs, so one graph type serves the bytecode verifier
//! (blocks = instruction-stream regions), the lint rules, and the
//! fuel-bound inference (loop-free classification). Construction
//! dedups edges; queries are deterministic (successors kept in
//! insertion order, which every builder derives from instruction
//! order).

/// A directed graph over blocks `0..n` with a designated entry block.
#[derive(Clone, Debug)]
pub struct Cfg {
    entry: usize,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

impl Cfg {
    /// Builds a CFG over `n` blocks from an edge list. Duplicate edges
    /// are kept once; out-of-range endpoints panic (builder bug).
    pub fn new(n: usize, entry: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Cfg {
        assert!(entry < n || n == 0, "entry block out of range");
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (from, to) in edges {
            assert!(from < n && to < n, "edge ({from}, {to}) out of range");
            if !succs[from].contains(&to) {
                succs[from].push(to);
                preds[to].push(from);
            }
        }
        Cfg {
            entry,
            succs,
            preds,
        }
    }

    /// Number of blocks.
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// Successors of `b`, in edge-insertion order.
    pub(crate) fn succs(&self, b: usize) -> &[usize] {
        &self.succs[b]
    }

    /// Predecessors of `b`.
    pub(crate) fn preds(&self, b: usize) -> &[usize] {
        &self.preds[b]
    }

    /// Which blocks are reachable from the entry (plus any extra
    /// roots — blocks enterable from outside the graph, e.g. code
    /// blocks whose label escapes as a value).
    pub fn reachable_from(&self, extra_roots: &[usize]) -> Vec<bool> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut work: Vec<usize> = Vec::new();
        if self.entry < n {
            work.push(self.entry);
        }
        work.extend(extra_roots.iter().copied().filter(|&b| b < n));
        while let Some(b) = work.pop() {
            if std::mem::replace(&mut seen[b], true) {
                continue;
            }
            work.extend(self.succs[b].iter().copied());
        }
        seen
    }

    /// Every back edge `(from, to)` — an edge into a block currently
    /// on the DFS stack — discovered from the entry and all extra
    /// roots. An empty result means every region reachable through
    /// the graph is loop-free.
    pub(crate) fn back_edges_from(&self, extra_roots: &[usize]) -> Vec<(usize, usize)> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let n = self.node_count();
        let mut color = vec![Color::White; n];
        let mut out = Vec::new();
        let mut roots: Vec<usize> = Vec::new();
        if self.entry < n {
            roots.push(self.entry);
        }
        roots.extend(extra_roots.iter().copied().filter(|&b| b < n));
        // Iterative DFS: (block, next-successor-index) frames.
        for root in roots {
            if color[root] != Color::White {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            color[root] = Color::Grey;
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                if *i < self.succs[b].len() {
                    let next = self.succs[b][*i];
                    *i += 1;
                    match color[next] {
                        Color::Grey => out.push((b, next)),
                        Color::White => {
                            color[next] = Color::Grey;
                            stack.push((next, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[b] = Color::Black;
                    stack.pop();
                }
            }
        }
        out
    }

    /// Whether the graph has no back edges reachable from the entry or
    /// the given extra roots.
    pub fn is_loop_free_from(&self, extra_roots: &[usize]) -> bool {
        self.back_edges_from(extra_roots).is_empty()
    }

    /// Reverse postorder from the entry — the iteration order that
    /// makes forward analyses converge in one pass on loop-free
    /// graphs. Unreachable blocks are appended afterwards in index
    /// order so every block gets visited.
    pub(crate) fn rpo(&self) -> Vec<usize> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut post = Vec::with_capacity(n);
        if self.entry < n {
            let mut stack: Vec<(usize, usize)> = vec![(self.entry, 0)];
            seen[self.entry] = true;
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                if *i < self.succs[b].len() {
                    let next = self.succs[b][*i];
                    *i += 1;
                    if !std::mem::replace(&mut seen[next], true) {
                        stack.push((next, 0));
                    }
                } else {
                    post.push(b);
                    stack.pop();
                }
            }
        }
        post.reverse();
        post.extend((0..n).filter(|&b| !seen[b]));
        post
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_is_loop_free() {
        let g = Cfg::new(3, 0, [(0, 1), (1, 2)]);
        assert!(g.is_loop_free_from(&[]));
        assert_eq!(g.reachable_from(&[]), vec![true, true, true]);
        assert_eq!(g.rpo(), vec![0, 1, 2]);
    }

    #[test]
    fn self_loop_and_cycle_are_back_edges() {
        let g = Cfg::new(2, 0, [(0, 1), (1, 1)]);
        assert_eq!(g.back_edges_from(&[]), vec![(1, 1)]);
        let g = Cfg::new(3, 0, [(0, 1), (1, 2), (2, 1)]);
        assert!(!g.is_loop_free_from(&[]));
    }

    #[test]
    fn unreachable_cycle_needs_a_root() {
        // A cycle between blocks 1 and 2, unreachable from the entry:
        // invisible without roots, found once block 1 is a root.
        let g = Cfg::new(3, 0, [(1, 2), (2, 1)]);
        assert!(g.is_loop_free_from(&[]));
        assert!(!g.is_loop_free_from(&[1]));
        assert_eq!(g.reachable_from(&[]), vec![true, false, false]);
        assert_eq!(g.reachable_from(&[1]), vec![true, true, true]);
    }

    #[test]
    fn diamond_rpo_visits_join_last() {
        let g = Cfg::new(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let rpo = g.rpo();
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo[3], 3);
        assert!(g.is_loop_free_from(&[]));
    }

    #[test]
    fn dedups_edges() {
        let g = Cfg::new(2, 0, [(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.succs(0), &[1]);
        assert_eq!(g.preds(1), &[0]);
    }
}
