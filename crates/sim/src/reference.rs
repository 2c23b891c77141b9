//! Test-only reference for the default prune kernels: the batched
//! union-and-intersect formulation ("bitBat" as an adjacency union, "BFS
//! sets" as a full ancestor/descendant sweep) that the dense kernels in
//! `checks` replaced, kept verbatim so the differential tests below can
//! hold the new kernels to bit-identical output.
//!
//! [`with_reference`] routes every `BitBat` / `BfsSets` check on the
//! current thread through this module, so whole fixpoint runs can be
//! replayed on the old kernels and compared result for result.

use std::cell::Cell;

use rig_bitset::Bitset;
use rig_graph::{GraphView, NodeId};
use rig_query::EdgeKind;
use rig_reach::Direction;

use crate::{DirectCheckMode, ReachCheckMode, SimContext, SimOptions};

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the reference kernels in place of the default ones.
pub(crate) fn with_reference<R>(f: impl FnOnce() -> R) -> R {
    ACTIVE.with(|a| a.set(true));
    let out = f();
    ACTIVE.with(|a| a.set(false));
    out
}

/// The reference prune of `fb[c]` against `fb[o]`, when the reference is
/// active and the check uses a default kernel; `None` otherwise.
pub(crate) fn intercept(
    ctx: &SimContext<'_>,
    fb: &mut [Bitset],
    kind: EdgeKind,
    c: usize,
    o: usize,
    toward: Direction,
    opts: &SimOptions,
) -> Option<Vec<NodeId>> {
    if !ACTIVE.with(|a| a.get()) {
        return None;
    }
    let back = toward.reverse();
    let qualified = match kind {
        EdgeKind::Direct if opts.direct_mode == DirectCheckMode::BitBat => {
            union_adjacency(ctx.graph, &fb[o], back)
        }
        EdgeKind::Reachability if opts.reach_mode == ReachCheckMode::BfsSets => {
            full_sweep(ctx.graph, &fb[o], back)
        }
        _ => return None,
    };
    Some(shrink_to(&mut fb[c], &qualified))
}

/// Union of the `dir`-neighbor lists of all members of `set`.
fn union_adjacency(g: GraphView<'_>, set: &Bitset, dir: Direction) -> Bitset {
    let mut acc: Vec<NodeId> = Vec::new();
    for v in set.iter() {
        acc.extend_from_slice(dir.neighbors(g, v));
    }
    acc.sort_unstable();
    acc.dedup();
    Bitset::from_sorted_dedup(&acc)
}

/// Every node at the end of a non-empty `dir`-path from `sources`.
fn full_sweep(g: GraphView<'_>, sources: &Bitset, dir: Direction) -> Bitset {
    let mut seen = vec![false; g.num_nodes()];
    let mut frontier: Vec<NodeId> = Vec::new();
    for s in sources.iter() {
        for &x in dir.neighbors(g, s) {
            if !seen[x as usize] {
                seen[x as usize] = true;
                frontier.push(x);
            }
        }
    }
    let mut head = 0;
    while head < frontier.len() {
        let v = frontier[head];
        head += 1;
        for &x in dir.neighbors(g, v) {
            if !seen[x as usize] {
                seen[x as usize] = true;
                frontier.push(x);
            }
        }
    }
    frontier.sort_unstable();
    Bitset::from_sorted_dedup(&frontier)
}

/// `set ∩= qualified`, returning the removed elements.
fn shrink_to(set: &mut Bitset, qualified: &Bitset) -> Vec<NodeId> {
    let removed: Vec<NodeId> = set.and_not(qualified).iter().collect();
    if !removed.is_empty() {
        set.and_assign(qualified);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        backward_prune_edge, double_simulation, double_simulation_seeded, forward_prune_edge,
        prefilter, PruneScratch, SimAlgorithm, SimResult,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rig_graph::{
        CommitImpact, DataGraph, DeltaOverlay, GraphBuilder, LabelSpec, MutationOp, Snapshot,
    };
    use rig_query::PatternQuery;
    use rig_reach::{BflIndex, SnapshotReach};
    use std::sync::Arc;

    fn random_graph(rng: &mut StdRng, n: usize, m: usize, labels: u32) -> DataGraph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(rng.gen_range(0..labels));
        }
        for _ in 0..m {
            let u = rng.gen_range(0..n) as NodeId;
            let v = rng.gen_range(0..n) as NodeId;
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// A dirty snapshot over `base`: added nodes (fresh ids past the base)
    /// wired into the graph, plus removed edges and one removed node.
    fn dirty_snapshot(rng: &mut StdRng, base: Arc<DataGraph>, labels: u32) -> Snapshot {
        let n = base.num_nodes() as NodeId;
        let mut d = DeltaOverlay::new(Arc::clone(&base));
        let mut im = CommitImpact::default();
        let added = rng.gen_range(1..4u32);
        for _ in 0..added {
            d.apply(&MutationOp::AddNode(LabelSpec::Id(rng.gen_range(0..labels))), &mut im)
                .unwrap();
        }
        let total = n + added;
        for _ in 0..(3 * added + 4) {
            let u = rng.gen_range(0..total);
            let v = rng.gen_range(0..total);
            if u != v {
                d.apply(&MutationOp::AddEdge(u, v), &mut im).unwrap();
            }
        }
        for _ in 0..3 {
            let u = rng.gen_range(0..n);
            if let Some(&v) = base.out_neighbors(u).first() {
                if d.has_edge(u, v) {
                    d.apply(&MutationOp::RemoveEdge(u, v), &mut im).unwrap();
                }
            }
        }
        if n > 2 {
            d.apply(&MutationOp::RemoveNode(rng.gen_range(0..n)), &mut im).unwrap();
        }
        Snapshot::new(Arc::new(d), 1)
    }

    /// A random subset of the live nodes of `g`: empty, full or in between.
    fn random_side(rng: &mut StdRng, g: GraphView<'_>) -> Bitset {
        let p = match rng.gen_range(0..5u32) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen_range(0.05..0.95),
        };
        let n = g.num_nodes() as NodeId;
        (0..n).filter(|&v| g.is_live(v) && rng.gen_bool(p)).collect()
    }

    fn assert_same_result(new: &SimResult, old: &SimResult, what: &str) {
        assert!(new.fb == old.fb, "{what}: candidate sets differ");
        assert_eq!(new.passes, old.passes, "{what}: passes");
        assert_eq!(new.pruned, old.pruned, "{what}: pruned");
        assert_eq!(new.trace.len(), old.trace.len(), "{what}: trace length");
        for (a, b) in new.trace.iter().zip(&old.trace) {
            assert_eq!(
                (a.pass, a.step, a.qnode, &a.pruned),
                (b.pass, b.step, b.qnode, &b.pruned),
                "{what}: trace event"
            );
        }
    }

    /// One kernel check, new vs. reference: the same removal list and the
    /// same resulting candidate sets (containers included).
    fn check_kernels(
        g: GraphView<'_>,
        reach: &(dyn rig_reach::Reachability + Sync),
        rng: &mut StdRng,
    ) {
        for kind in [EdgeKind::Direct, EdgeKind::Reachability] {
            let mut q = PatternQuery::new(vec![0, 0]);
            if rng.gen_bool(0.5) {
                q.add_edge(0, 1, kind);
            } else {
                q.add_edge(1, 0, kind);
            }
            let ctx = SimContext::new(g, &q, reach);
            let sides = vec![random_side(rng, g), random_side(rng, g)];
            let opts = SimOptions::default();
            let mut scratch = PruneScratch::new();
            type Prune = fn(
                &SimContext<'_>,
                &mut [Bitset],
                rig_query::EdgeId,
                &SimOptions,
                &mut PruneScratch,
            ) -> Vec<NodeId>;
            for (name, prune) in
                [("forward", forward_prune_edge as Prune), ("backward", backward_prune_edge)]
            {
                let mut new_fb = sides.clone();
                let new_removed = prune(&ctx, &mut new_fb, 0, &opts, &mut scratch);
                let mut old_fb = sides.clone();
                let old_removed =
                    with_reference(|| prune(&ctx, &mut old_fb, 0, &opts, &mut PruneScratch::new()));
                assert_eq!(new_removed, old_removed, "{name} {kind:?}: removed lists");
                assert!(new_fb == old_fb, "{name} {kind:?}: resulting sets differ");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Kernels vs. reference on base graphs: cyclic random graphs,
        /// empty, full and partial candidate sides, both edge kinds and
        /// both prune directions.
        #[test]
        fn kernels_match_reference_on_base_graphs(seed in 0u64..u64::MAX, n in 1usize..48, deg in 0usize..4) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng, n, n * deg, 2);
            let bfl = BflIndex::new(&g);
            check_kernels((&g).into(), &bfl, &mut rng);
        }

        /// Kernels vs. reference on dirty snapshots, whose candidate sides
        /// include the overlay-added node ids.
        #[test]
        fn kernels_match_reference_on_dirty_snapshots(seed in 0u64..u64::MAX, n in 1usize..40, deg in 0usize..4) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = Arc::new(random_graph(&mut rng, n, n * deg, 2));
            let bfl = BflIndex::new(&base);
            let snap = dirty_snapshot(&mut rng, base, 2);
            let reach = SnapshotReach::new(&snap, &bfl);
            check_kernels((&snap).into(), &reach, &mut rng);
        }
    }

    /// Sides large enough to fill bitmap containers and span two chunks, so
    /// the array/bitmap layout of the pruned sets is compared too.
    #[test]
    fn kernels_match_reference_across_container_kinds() {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_graph(&mut rng, 70_000, 90_000, 1);
            let bfl = BflIndex::new(&g);
            check_kernels((&g).into(), &bfl, &mut rng);
        }
    }

    fn random_pattern(rng: &mut StdRng, labels: u32) -> PatternQuery {
        let n = rng.gen_range(2..6usize);
        let mut q = PatternQuery::new((0..n).map(|_| rng.gen_range(0..labels)).collect());
        let kind = |rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                EdgeKind::Direct
            } else {
                EdgeKind::Reachability
            }
        };
        for i in 1..n as u32 {
            let k = kind(rng);
            q.add_edge(i - 1, i, k);
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let (a, b) = (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
            if a != b {
                let k = kind(rng);
                q.ensure_edge(a, b, k);
            }
        }
        q
    }

    /// Whole select runs, new vs. reference kernels: the same `SimResult`
    /// (`fb`, `passes`, `pruned`, `trace`) for every algorithm, with and
    /// without the 3-pass cap, on base graphs and dirty snapshots, plus the
    /// same prefilter output and seeded fixpoint.
    #[test]
    fn sim_results_match_reference() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = Arc::new(random_graph(&mut rng, 40, 110, 3));
            let bfl = BflIndex::new(&base);
            let snap = dirty_snapshot(&mut rng, Arc::clone(&base), 3);
            let snap_reach = SnapshotReach::new(&snap, &bfl);
            let q = random_pattern(&mut rng, 3);
            let views: [(GraphView<'_>, &(dyn rig_reach::Reachability + Sync)); 2] =
                [((&*base).into(), &bfl), ((&snap).into(), &snap_reach)];
            for (g, reach) in views {
                let ctx = SimContext::new(g, &q, reach);
                let pf = prefilter(&ctx);
                let pf_old = with_reference(|| prefilter(&ctx));
                assert!(pf == pf_old, "seed={seed}: prefilter output differs");
                for algorithm in [SimAlgorithm::Basic, SimAlgorithm::Dag, SimAlgorithm::DagDelta] {
                    for max_passes in [None, Some(3)] {
                        let opts =
                            SimOptions { algorithm, max_passes, trace: true, ..Default::default() };
                        let what = format!("seed={seed} {algorithm:?} cap={max_passes:?}");
                        let new = double_simulation(&ctx, &opts);
                        let old = with_reference(|| double_simulation(&ctx, &opts));
                        assert_same_result(&new, &old, &what);
                        let new = double_simulation_seeded(&ctx, &opts, pf.clone());
                        let old =
                            with_reference(|| double_simulation_seeded(&ctx, &opts, pf.clone()));
                        assert_same_result(&new, &old, &format!("{what} seeded"));
                    }
                }
            }
        }
    }
}
