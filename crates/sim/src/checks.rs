//! Per-edge pruning primitives shared by the prefilter and all three FB
//! algorithms.
//!
//! `forward_prune_edge` enforces condition 2 of Def. 1 for one query edge
//! `(qi, qj)`: every surviving candidate of `qi` must have a qualified
//! successor among the candidates of `qj`. `backward_prune_edge` enforces
//! condition 3 symmetrically. Both return the nodes they pruned, ascending,
//! so callers can maintain change flags and traces.
//!
//! The default kernels work on dense scratch bitmaps ([`PruneScratch`]) and
//! never sort or build an intermediate compressed set:
//!
//! * **direct edges** (`bitBat`) mark one side in a dense bitmap and test
//!   the other against it. *Pull* marks the other side's candidates and
//!   scans each candidate's adjacency up to the first marked neighbor;
//!   *push* marks the other side's reverse adjacency and probes each
//!   candidate once. Whichever side has the smaller adjacency-degree sum
//!   decides, so the choice follows the input, not a setting;
//! * **reachability edges** run one multi-source sweep from the other side
//!   ([`rig_reach::sweep`], seeded with one-step neighbors so membership
//!   certifies a non-empty path) that stops once every candidate has been
//!   reached.
//!
//! Both leave exactly the candidate sets — container layout included — and
//! removal lists of the union-and-intersect formulation they replace.

use crate::{DirectCheckMode, ReachCheckMode, SimContext, SimOptions};
use rig_bitset::{Bitset, DenseBits};
use rig_graph::{GraphView, NodeId};
use rig_query::{EdgeId, EdgeKind};
use rig_reach::{sweep, Direction, SweepScratch};

/// Dense scratch reused by every check of one simulation run, so no check
/// allocates memory proportional to adjacency volume.
#[derive(Default)]
pub struct PruneScratch {
    marks: DenseBits,
    sweep: SweepScratch,
}

impl PruneScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Prunes `fb[qi]` (tail side) of edge `eid`; returns pruned node ids.
pub fn forward_prune_edge(
    ctx: &SimContext<'_>,
    fb: &mut [Bitset],
    eid: EdgeId,
    opts: &SimOptions,
    scratch: &mut PruneScratch,
) -> Vec<NodeId> {
    prune(ctx, fb, eid, Direction::Forward, opts, scratch)
}

/// Prunes `fb[qj]` (head side) of edge `eid`; returns pruned node ids.
pub fn backward_prune_edge(
    ctx: &SimContext<'_>,
    fb: &mut [Bitset],
    eid: EdgeId,
    opts: &SimOptions,
    scratch: &mut PruneScratch,
) -> Vec<NodeId> {
    prune(ctx, fb, eid, Direction::Backward, opts, scratch)
}

/// Prunes the endpoint of edge `eid` that `toward` leaves from (the tail
/// for `Forward`, the head for `Backward`): drops every candidate with no
/// neighbor (direct edge) or no non-empty path (reachability edge) along
/// `toward` into the other endpoint's candidates.
fn prune(
    ctx: &SimContext<'_>,
    fb: &mut [Bitset],
    eid: EdgeId,
    toward: Direction,
    opts: &SimOptions,
    scratch: &mut PruneScratch,
) -> Vec<NodeId> {
    let e = ctx.query.edge(eid);
    let (c, o) = match toward {
        Direction::Forward => (e.from as usize, e.to as usize),
        Direction::Backward => (e.to as usize, e.from as usize),
    };
    if fb[c].is_empty() {
        return Vec::new();
    }
    #[cfg(test)]
    if let Some(removed) = crate::reference::intercept(ctx, fb, e.kind, c, o, toward, opts) {
        return removed;
    }
    let g = ctx.graph;
    let mut removed = Vec::new();
    match e.kind {
        EdgeKind::Direct => match opts.direct_mode {
            DirectCheckMode::BitBat => {
                direct_kernel(g, fb, c, o, toward, &mut scratch.marks, &mut removed)
            }
            DirectCheckMode::BitIter => {
                let keep = fb[o].clone();
                fb[c].retain_reporting(
                    |v| Bitset::from_sorted_dedup(toward.neighbors(g, v)).intersects(&keep),
                    &mut removed,
                );
            }
            DirectCheckMode::BinSearch => {
                let keep = fb[o].clone();
                fb[c].retain_reporting(
                    |v| {
                        let adj = toward.neighbors(g, v);
                        keep.iter().any(|w| adj.binary_search(&w).is_ok())
                    },
                    &mut removed,
                );
            }
        },
        EdgeKind::Reachability => match opts.reach_mode {
            ReachCheckMode::BfsSets => reach_kernel(g, fb, c, o, toward, scratch, &mut removed),
            ReachCheckMode::PairwiseIndex => {
                let keep = fb[o].clone();
                let reaches = |v, w| match toward {
                    Direction::Forward => ctx.reach.reaches(v, w),
                    Direction::Backward => ctx.reach.reaches(w, v),
                };
                fb[c].retain_reporting(|v| keep.iter().any(|w| reaches(v, w)), &mut removed);
            }
        },
    }
    removed
}

/// The direct-edge kernel: pull or push through one dense bitmap, by the
/// cheaper adjacency-degree sum (each side also pays one pass over the
/// set it does not scan).
fn direct_kernel(
    g: GraphView<'_>,
    fb: &mut [Bitset],
    c: usize,
    o: usize,
    toward: Direction,
    marks: &mut DenseBits,
    removed: &mut Vec<NodeId>,
) {
    let back = toward.reverse();
    let pull: usize =
        fb[c].iter().map(|v| toward.neighbors(g, v).len()).sum::<usize>() + fb[o].len() as usize;
    let push: usize =
        fb[o].iter().map(|w| back.neighbors(g, w).len()).sum::<usize>() + fb[c].len() as usize;
    marks.reset(g.num_nodes());
    if pull <= push {
        for w in fb[o].iter() {
            marks.insert(w);
        }
        fb[c].retain_reporting(
            |v| toward.neighbors(g, v).iter().any(|&x| marks.contains(x)),
            removed,
        );
    } else {
        for w in fb[o].iter() {
            for &u in back.neighbors(g, w) {
                marks.insert(u);
            }
        }
        fb[c].retain_reporting(|v| marks.contains(v), removed);
    }
}

/// The reachability-edge kernel: sweep from `fb[o]` against `toward` until
/// every candidate of `fb[c]` has been reached (or the sweep runs dry).
fn reach_kernel(
    g: GraphView<'_>,
    fb: &mut [Bitset],
    c: usize,
    o: usize,
    toward: Direction,
    scratch: &mut PruneScratch,
    removed: &mut Vec<NodeId>,
) {
    let PruneScratch { marks, sweep: sw } = scratch;
    marks.reset(g.num_nodes());
    for v in fb[c].iter() {
        marks.insert(v);
    }
    sweep(g, &fb[o], toward.reverse(), Some((&*marks, fb[c].len())), sw);
    fb[c].retain_reporting(|v| sw.visited.contains(v), removed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rig_graph::GraphBuilder;
    use rig_query::{EdgeKind, PatternQuery};
    use rig_reach::BflIndex;

    fn chain_graph() -> rig_graph::DataGraph {
        // 0:a -> 1:b -> 2:c ; 3:a (no children) ; 4:b (no c below)
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(0);
        let n1 = b.add_node(1);
        let n2 = b.add_node(2);
        let _n3 = b.add_node(0);
        let n4 = b.add_node(1);
        b.add_edge(n0, n1);
        b.add_edge(n1, n2);
        b.add_edge(n0, n4);
        b.build()
    }

    fn ab_query(kind: EdgeKind) -> PatternQuery {
        let mut q = PatternQuery::new(vec![0, 1]);
        q.add_edge(0, 1, kind);
        q
    }

    #[test]
    fn forward_prune_direct_all_modes_agree() {
        let g = chain_graph();
        let q = ab_query(EdgeKind::Direct);
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        for mode in [DirectCheckMode::BinSearch, DirectCheckMode::BitIter, DirectCheckMode::BitBat]
        {
            let opts = SimOptions { direct_mode: mode, ..SimOptions::default() };
            let mut fb = ctx.match_sets();
            let pruned = forward_prune_edge(&ctx, &mut fb, 0, &opts, &mut PruneScratch::new());
            assert_eq!(pruned, vec![3], "{mode:?}"); // a-node 3 has no b child
            assert_eq!(fb[0].to_vec(), vec![0]);
        }
    }

    #[test]
    fn backward_prune_direct_all_modes_agree() {
        let g = chain_graph();
        let q = ab_query(EdgeKind::Direct);
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        for mode in [DirectCheckMode::BinSearch, DirectCheckMode::BitIter, DirectCheckMode::BitBat]
        {
            let opts = SimOptions { direct_mode: mode, ..SimOptions::default() };
            let mut fb = ctx.match_sets();
            let pruned = backward_prune_edge(&ctx, &mut fb, 0, &opts, &mut PruneScratch::new());
            assert!(pruned.is_empty(), "{mode:?}"); // both b nodes have a parents
            assert_eq!(fb[1].to_vec(), vec![1, 4]);
        }
    }

    #[test]
    fn reachability_prune_both_modes_agree() {
        let g = chain_graph();
        let mut q = PatternQuery::new(vec![0, 2]); // A ⇝ C
        q.add_edge(0, 1, EdgeKind::Reachability);
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        for mode in [ReachCheckMode::PairwiseIndex, ReachCheckMode::BfsSets] {
            let opts = SimOptions { reach_mode: mode, ..SimOptions::default() };
            let mut fb = ctx.match_sets();
            let fp = forward_prune_edge(&ctx, &mut fb, 0, &opts, &mut PruneScratch::new());
            assert_eq!(fp, vec![3], "{mode:?}"); // node 3 reaches nothing
            let bp = backward_prune_edge(&ctx, &mut fb, 0, &opts, &mut PruneScratch::new());
            assert!(bp.is_empty(), "{mode:?}");
            assert_eq!(fb[0].to_vec(), vec![0]);
            assert_eq!(fb[1].to_vec(), vec![2]);
        }
    }

    #[test]
    fn empty_side_is_noop() {
        let g = chain_graph();
        let q = ab_query(EdgeKind::Direct);
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        let opts = SimOptions::default();
        let mut fb = vec![rig_bitset::Bitset::new(), ctx.match_sets()[1].clone()];
        assert!(forward_prune_edge(&ctx, &mut fb, 0, &opts, &mut PruneScratch::new()).is_empty());
    }
}
