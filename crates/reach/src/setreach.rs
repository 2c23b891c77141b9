//! Batched set reachability: descendants / ancestors of a *set* of nodes
//! in one multi-source BFS sweep.
//!
//! The double-simulation select phase (§4.2) repeatedly asks, for a
//! reachability query edge `(qi, qj)`: *which candidate nodes of `qi` reach
//! at least one candidate of `qj`?* That is exactly membership in
//! `ancestors_of_set(G, FB(qj))`, computable in O(|V| + |E|) — far cheaper
//! than per-pair probes when candidate sets are large. [`sweep`] is the one
//! implementation: it writes into caller-held scratch and can stop as soon
//! as every node of a target set has been reached, which is all a prune
//! needs to know.

use rig_bitset::{Bitset, DenseBits};
use rig_graph::{GraphView, NodeId};

/// All nodes `v` such that some `s ∈ sources` has a non-empty path `s ⇝ v`.
/// (A source is included only if it is reachable *from* a source, e.g. on a
/// cycle or downstream of another source.)
pub fn descendants_of_set<'a>(g: impl Into<GraphView<'a>>, sources: &Bitset) -> Bitset {
    let mut scratch = SweepScratch::default();
    sweep(g.into(), sources, Direction::Forward, None, &mut scratch);
    scratch.visited.to_bitset()
}

/// All nodes `v` such that `v` has a non-empty path to some `s ∈ sources`.
pub fn ancestors_of_set<'a>(g: impl Into<GraphView<'a>>, sources: &Bitset) -> Bitset {
    let mut scratch = SweepScratch::default();
    sweep(g.into(), sources, Direction::Backward, None, &mut scratch);
    scratch.visited.to_bitset()
}

/// Which adjacency a traversal follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Out-edges: from a node to its successors.
    Forward,
    /// In-edges: from a node to its predecessors.
    Backward,
}

impl Direction {
    /// The neighbors of `v` in this direction.
    #[inline]
    pub fn neighbors<'a>(self, g: GraphView<'a>, v: NodeId) -> &'a [NodeId] {
        match self {
            Direction::Forward => g.out_neighbors(v),
            Direction::Backward => g.in_neighbors(v),
        }
    }

    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

/// Reusable buffers for [`sweep`]: the visited bitmap (the sweep's output)
/// and the BFS queue. Hold one across sweeps to allocate only once.
#[derive(Default)]
pub struct SweepScratch {
    /// After [`sweep`]: the nodes reached by a non-empty path.
    pub visited: DenseBits,
    queue: Vec<NodeId>,
}

/// Multi-source BFS from `sources` along `dir`, marking in
/// `scratch.visited` every node at the end of a non-empty path from a
/// source. With `until = Some((targets, count))`, where `count` is the
/// number of set bits of `targets`, the sweep returns as soon as all of
/// them have been visited; `visited` is then exact on `targets` only.
pub fn sweep(
    g: GraphView<'_>,
    sources: &Bitset,
    dir: Direction,
    until: Option<(&DenseBits, u64)>,
    scratch: &mut SweepScratch,
) {
    let SweepScratch { visited, queue } = scratch;
    visited.reset(g.num_nodes());
    queue.clear();
    let mut remaining = until.map_or(u64::MAX, |(_, n)| n);
    if remaining == 0 {
        return;
    }
    // Marks `x` and reports whether the last target has now been reached.
    let mut visit = |x: NodeId, queue: &mut Vec<NodeId>| {
        if !visited.insert(x) {
            return false;
        }
        queue.push(x);
        if until.is_some_and(|(targets, _)| targets.contains(x)) {
            remaining -= 1;
        }
        remaining == 0
    };
    // Seed with the one-step neighbors of every source, so that membership
    // certifies a path of length >= 1.
    for s in sources.iter() {
        for &x in dir.neighbors(g, s) {
            if visit(x, queue) {
                return;
            }
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &x in dir.neighbors(g, v) {
            if visit(x, queue) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{naive_reaches, random_graph};

    #[test]
    fn matches_per_node_reachability() {
        for seed in 0..6u64 {
            let g = random_graph(50, 110, seed);
            let sources = Bitset::from_slice(&[0, 7, 23]);
            let desc = descendants_of_set(&g, &sources);
            let anc = ancestors_of_set(&g, &sources);
            for v in 0..50u32 {
                let expect_desc = sources.iter().any(|s| naive_reaches(&g, s, v));
                let expect_anc = sources.iter().any(|s| naive_reaches(&g, v, s));
                assert_eq!(desc.contains(v), expect_desc, "seed={seed} v={v} desc");
                assert_eq!(anc.contains(v), expect_anc, "seed={seed} v={v} anc");
            }
        }
    }

    #[test]
    fn empty_sources_empty_result() {
        let g = random_graph(10, 20, 0);
        assert!(descendants_of_set(&g, &Bitset::new()).is_empty());
        assert!(ancestors_of_set(&g, &Bitset::new()).is_empty());
    }

    #[test]
    fn sweep_stops_once_every_target_is_reached() {
        use rig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        for _ in 0..10 {
            b.add_node(0);
        }
        for v in 0..9 {
            b.add_edge(v, v + 1); // chain 0 -> 1 -> ... -> 9
        }
        let g = b.build();
        let mut targets = DenseBits::new();
        targets.reset(10);
        targets.insert(2);
        targets.insert(3);
        let mut scratch = SweepScratch::default();
        let sources = Bitset::from_slice(&[0]);
        sweep((&g).into(), &sources, Direction::Forward, Some((&targets, 2)), &mut scratch);
        assert!(scratch.visited.contains(2) && scratch.visited.contains(3));
        assert!(!scratch.visited.contains(9), "sweep ran past its last target");
        // an unreachable target runs the sweep to completion
        targets.insert(0);
        sweep((&g).into(), &sources, Direction::Forward, Some((&targets, 3)), &mut scratch);
        assert!(scratch.visited.contains(9));
        assert!(!scratch.visited.contains(0));
    }

    #[test]
    fn source_on_cycle_is_its_own_descendant() {
        use rig_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        for _ in 0..2 {
            b.add_node(0);
        }
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build();
        let d = descendants_of_set(&g, &Bitset::from_slice(&[0]));
        assert!(d.contains(0));
        assert!(d.contains(1));
    }
}
