//! The traced replay: each read decomposed into the public calls of every
//! layer, in the order `Session` makes them, so the per-layer times add up
//! to a request. Spans are recorded from this file only; no tracing runs
//! inside the program.

use std::time::{Duration, Instant};

use rig_core::Session;
use rig_graph::MutationOp;
use rig_index::build_rig_from_candidates;
use rig_reach::SnapshotReach;
use rig_sim::{double_simulation_seeded, prefilter, SimContext};

use crate::stats::{mean, median};
use crate::trace::{max_attribution_gap, self_times, Tracer};

/// How one read is budgeted.
#[derive(Debug, Clone, Copy)]
pub enum ReadMode {
    /// Rows up to `limit`, one wall-clock budget for build and enumeration.
    Rows { limit: u64, timeout: Duration },
    /// Unbudgeted exact count (the factorized DP where `Session` routes it).
    ExactCount,
}

/// Largest allowed difference between a traced request's wall time and the
/// summed self times of its spans.
pub const ATTRIBUTION_TOLERANCE_S: f64 = 1e-6;

/// Counts gathered at the same boundaries as the spans, plus the numbers
/// that come from outside the traced replay.
#[derive(Default)]
pub struct Layers {
    reads: u64,
    match_set_total: f64,
    kept_total: f64,
    max_heap_bytes: usize,
    exact_counts: u64,
    dp_routed: u64,
    rows: f64,
    steps: f64,
    commits: u64,
    pub graph_load_s: f64,
    pub bfl_build_s: f64,
    pub cache_hit_ratio: f64,
    pub plans_invalidated_per_commit: f64,
    pub overhead_ms: f64,
    pub failed_frac: f64,
    pub wal_bytes_per_commit: f64,
    pub delta_ops: f64,
    pub compactions: f64,
    pub ttfb_ms: f64,
    pub body_ms: f64,
    pub server_overhead_ms: f64,
    pub rejected: f64,
    pub commit_p50_ms: f64,
    pub commit_p90_ms: f64,
    pub dirty_hybrid_ms: f64,
    pub dirty_hybrid_timeouts: f64,
}

/// Replays one read through the layers. Returns the count, or `None` when
/// the read failed (parse/validation error or budget timeout).
pub fn traced_read(
    session: &Session,
    tracer: &mut Tracer,
    layers: &mut Layers,
    id: u64,
    text: &str,
    mode: ReadMode,
) -> Option<u64> {
    let root = tracer.begin("request", id);
    let count = decomposed_read(session, tracer, layers, id, text, mode);
    tracer.end(root);
    layers.reads += 1;
    count
}

fn decomposed_read(
    session: &Session,
    tracer: &mut Tracer,
    layers: &mut Layers,
    id: u64,
    text: &str,
    mode: ReadMode,
) -> Option<u64> {
    tracer.span("query.parse", id, || rig_query::parse_hpql(text)).ok()?;
    let prepared = tracer.span("core.prepare", id, || session.prepare(text)).ok()?;
    let run_start = Instant::now();
    let deadline = match mode {
        ReadMode::Rows { timeout, .. } => run_start.checked_add(timeout),
        ReadMode::ExactCount => None,
    };
    let snapshot = session.graph();
    let bfl = session.bfl();
    let opts = session.config().rig.with_deadline(deadline);
    let q = prepared.reduced();
    let overlay = SnapshotReach::new(&snapshot, &bfl);
    let ctx = if snapshot.is_dirty() {
        SimContext::new(&*snapshot, q, &overlay)
    } else {
        SimContext::new(snapshot.base(), q, &*bfl)
    };
    layers.match_set_total += q
        .labels()
        .iter()
        .filter(|&&l| (l as usize) < ctx.graph.num_labels())
        .map(|&l| ctx.graph.label_bitset(l).len() as f64)
        .sum::<f64>();
    let pf = tracer.span("sim.prefilter", id, || prefilter(&ctx));
    let sim = tracer.span("sim.dualsim", id, || double_simulation_seeded(&ctx, &opts.sim, pf));
    tracer.count("sim.passes", sim.passes as f64);
    layers.kept_total += sim.fb.iter().map(|b| b.len() as f64).sum::<f64>();
    let rig =
        tracer.span("rig.expand", id, || build_rig_from_candidates(&ctx, &bfl, &opts, sim.fb));
    if rig.stats.timed_out {
        return None;
    }
    tracer.count("rig.edges", rig.stats.edge_count as f64);
    layers.max_heap_bytes = layers.max_heap_bytes.max(rig.heap_bytes());
    let enum_opts = session.config().enumeration;
    let result = match mode {
        ReadMode::ExactCount => {
            layers.exact_counts += 1;
            if rig.is_empty() {
                // `Session` answers an empty RIG without the DP as well
                return Some(0);
            }
            let dp = tracer.span("mjoin.dp", id, || rig_core::factorized::dp_count_result(q, &rig));
            if let Some(r) = dp {
                layers.dp_routed += 1;
                return Some(r.count);
            }
            tracer.span("mjoin.order", id, || rig_mjoin::compute_order(q, &rig, enum_opts.order));
            tracer.span("mjoin.enum", id, || rig_mjoin::count(q, &rig, &enum_opts))
        }
        ReadMode::Rows { limit, timeout } => {
            tracer.span("mjoin.order", id, || rig_mjoin::compute_order(q, &rig, enum_opts.order));
            let mut o = enum_opts.with_limit(limit);
            o.timeout = Some(timeout.saturating_sub(run_start.elapsed()));
            tracer.span("mjoin.enum", id, || rig_mjoin::count(q, &rig, &o))
        }
    };
    layers.steps += result.steps as f64;
    layers.rows += result.count as f64;
    (!result.timed_out).then_some(result.count)
}

/// Replays one commit through `Session::commit`.
pub fn traced_commit(
    session: &Session,
    tracer: &mut Tracer,
    layers: &mut Layers,
    id: u64,
    ops: &[MutationOp],
) -> Result<u64, String> {
    let root = tracer.begin("request", id);
    let summary = tracer.span("core.commit", id, || {
        let mut txn = session.begin();
        for op in ops {
            txn.push(op.clone());
        }
        session.commit(txn)
    });
    tracer.end(root);
    layers.commits += 1;
    Ok(summary.map_err(|e| e.to_string())?.version)
}

impl Layers {
    pub fn setup(&mut self, parse_s: &[f64], bfl_s: &[f64]) {
        self.graph_load_s = median(parse_s).unwrap_or(0.0);
        self.bfl_build_s = median(bfl_s).unwrap_or(0.0);
    }

    /// Mean wall time of the traced requests, in ms.
    pub fn mean_request_ms(tracer: &Tracer) -> f64 {
        let roots: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration() * 1e3)
            .collect();
        mean(&roots)
    }

    /// Every per-layer metric, in `BENCHMARK.json` order, from the traced
    /// replay's spans. Fails when some traced request's self times do not
    /// add up to its wall time.
    pub fn finish(
        &self,
        tracer: &Tracer,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let gap = max_attribution_gap(tracer.spans());
        if gap > ATTRIBUTION_TOLERANCE_S {
            return Err(format!("span self times miss a request's wall time by {gap:.3e}s"));
        }
        let per_read = |name: &str| tracer.self_total(name) * 1e3 / self.reads.max(1) as f64;
        let per_commit = tracer.self_total("core.commit") * 1e3 / self.commits.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let selfs = self_times(tracer.spans());
        let unattributed: f64 = tracer
            .spans()
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.parent.is_none())
            .map(|(_, t)| t * 1e3)
            .sum::<f64>()
            / (self.reads + self.commits).max(1) as f64;
        let reads = self.reads.max(1) as f64;
        Ok(vec![
            ("graph.load_s", self.graph_load_s, "s"),
            ("reach.bfl_build_s", self.bfl_build_s, "s"),
            ("query.parse_ms", per_read("query.parse"), "ms"),
            ("core.prepare_ms", per_read("core.prepare"), "ms"),
            ("core.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            ("core.plans_invalidated_per_commit", self.plans_invalidated_per_commit, "count"),
            (
                "core.dp_route_ratio",
                ratio(self.dp_routed as f64, self.exact_counts as f64),
                "ratio",
            ),
            ("core.commit_ms", per_commit, "ms"),
            ("sim.prefilter_ms", per_read("sim.prefilter"), "ms"),
            ("sim.dualsim_ms", per_read("sim.dualsim"), "ms"),
            ("sim.passes", tracer.counter("sim.passes") / reads, "count"),
            ("sim.kept_ratio", ratio(self.kept_total, self.match_set_total), "ratio"),
            ("rig.expand_ms", per_read("rig.expand"), "ms"),
            ("rig.edges", tracer.counter("rig.edges") / reads, "count"),
            ("rig.heap_mb", self.max_heap_bytes as f64 / 1e6, "MB"),
            ("mjoin.order_ms", per_read("mjoin.order"), "ms"),
            ("mjoin.enum_ms", per_read("mjoin.enum"), "ms"),
            ("mjoin.steps", self.steps / reads, "count"),
            ("mjoin.rows_per_step", ratio(self.rows, self.steps), "ratio"),
            ("mjoin.dp_ms", per_read("mjoin.dp"), "ms"),
            ("storage.wal_bytes_per_commit", self.wal_bytes_per_commit, "bytes"),
            ("graph.delta_ops", self.delta_ops, "count"),
            ("graph.compactions", self.compactions, "count"),
            ("server.ttfb_ms", self.ttfb_ms, "ms"),
            ("server.body_ms", self.body_ms, "ms"),
            ("server.overhead_ms", self.server_overhead_ms, "ms"),
            ("server.rejected", self.rejected, "count"),
            ("commit_p50_ms", self.commit_p50_ms, "ms"),
            ("commit_p90_ms", self.commit_p90_ms, "ms"),
            ("failed_frac", self.failed_frac, "ratio"),
            ("rig.dirty_hybrid_ms", self.dirty_hybrid_ms, "ms"),
            ("rig.dirty_hybrid_timeouts", self.dirty_hybrid_timeouts, "count"),
            ("trace.overhead_ms", self.overhead_ms, "ms"),
            ("trace.unattributed_ms", unattributed, "ms"),
        ])
    }
}
