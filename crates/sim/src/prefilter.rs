//! Node pre-filtering ([11, 63] in the paper; §7.1).
//!
//! The baseline filter the paper applies to JM and TM (and to the GM-F
//! ablation of Fig. 13): a *single, non-iterated* pass of the forward and
//! backward prunes over the match sets. Unlike double simulation it does
//! not run to fixpoint, so it prunes strictly less — that gap is exactly
//! what Fig. 13 measures.

use crate::checks::{backward_prune_edge, forward_prune_edge, PruneScratch};
use crate::{SimContext, SimOptions};
use rig_bitset::Bitset;
use rig_query::EdgeId;

/// One forward + one backward sweep over all query edges, starting from the
/// match sets. Returns the filtered candidate sets.
pub fn prefilter(ctx: &SimContext<'_>) -> Vec<Bitset> {
    let opts = SimOptions::default();
    let mut scratch = PruneScratch::new();
    let mut fb = ctx.match_sets();
    for eid in 0..ctx.query.num_edges() as EdgeId {
        forward_prune_edge(ctx, &mut fb, eid, &opts, &mut scratch);
    }
    for eid in 0..ctx.query.num_edges() as EdgeId {
        backward_prune_edge(ctx, &mut fb, eid, &opts, &mut scratch);
    }
    fb
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{double_simulation, SimOptions};
    use rig_graph::GraphBuilder;
    use rig_query::{EdgeKind, PatternQuery};
    use rig_reach::BflIndex;

    /// Prefilter output sandwiches between ms and FB.
    #[test]
    fn prefilter_between_match_sets_and_fb() {
        // two-level graph where one pass is not enough to reach fixpoint
        let mut b = GraphBuilder::new();
        let a0 = b.add_node(0);
        let a1 = b.add_node(0);
        let b0 = b.add_node(1);
        let b1 = b.add_node(1);
        let c0 = b.add_node(2);
        b.add_edge(a0, b0);
        b.add_edge(a1, b1);
        b.add_edge(b0, c0);
        let g = b.build();
        let mut q = PatternQuery::new(vec![0, 1, 2]);
        q.add_edge(0, 1, EdgeKind::Direct);
        q.add_edge(1, 2, EdgeKind::Direct);
        let reach = BflIndex::new(&g);
        let ctx = SimContext::new(&g, &q, &reach);
        let ms = ctx.match_sets();
        let pf = prefilter(&ctx);
        let fb = double_simulation(&ctx, &SimOptions::exact()).fb;
        for i in 0..q.num_nodes() {
            assert!(pf[i].is_subset(&ms[i]), "node {i}: pf ⊄ ms");
            assert!(fb[i].is_subset(&pf[i]), "node {i}: fb ⊄ pf");
        }
        // b1 has no c child: pruned by prefilter's forward pass
        assert!(!pf[1].contains(b1));
        // a1's only b child (b1) dies, but a single pass misses a1 because
        // the edge (A,B) was processed before (B,C) shrank FB(B) ... the
        // backward pass cannot recover it either. Exact FB does prune a1.
        assert!(!fb[0].contains(a1));
    }
}
