//! Seeded input generator. It never runs the engine: graphs come from the
//! `rig_datasets` Table 2 generators, queries from the Fig. 7 templates
//! (labels drawn by frequency weighting) or from graph extraction
//! (`random_query`), and the schedule from a seeded RNG. Everything is
//! written as files; the measuring process reads only those.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rig_graph::{DataGraph, NodeId};
use rig_query::{random_query, template, to_hpql, Flavor, GeneratorConfig, PatternQuery};

use crate::workload::Workload;

/// Seed of the query design. Query label tuples are drawn from it rather
/// than from `--seed`, so every seed runs the same query shapes over its own
/// graph instance: seed-to-seed spread then measures the system, not which
/// labels a draw happened to pick (cold-query cost spans three orders of
/// magnitude across label choices).
const DESIGN_SEED: u64 = 0x005E_ED0F_D351;

/// Read requests the cold workloads can issue before running out
/// (far more than fit in one run's time).
const COLD_ROUNDS: usize = 40;

/// Requests in the ep-rw-http schedule (more than fit in one run).
const RW_REQUESTS: usize = 60_000;
/// Distinct C queries in the ep-rw-http read pool.
const RW_POOL: usize = 96;
/// Hybrid queries per instance for the dirty-snapshot baseline of traced runs.
const RW_HYBRID_SAMPLE: usize = 1;
/// One request in this many is a commit.
const RW_COMMIT_EVERY: u64 = 10;
/// Edge inserts and deletes per commit.
const RW_OPS_PER_COMMIT: usize = 4;
/// Zipf exponent of read repeats over the pool.
const RW_ZIPF: f64 = 0.8;

/// Writes the inputs of every instance of `w` for `seed` into
/// `dir/i<k>/`: `graph.txt`, `queries.hpql` (one HPQL query per line),
/// `schedule.tsv` (one request per line: `rows <q>`, `count <q>` or
/// `commit <c>`), and for ep-rw-http `commits.txt` (mutation scripts, one
/// `commit`-terminated segment each) and `hybrid.hpql`.
pub fn generate(w: Workload, seed: u64, dir: &Path) -> std::io::Result<()> {
    for k in 0..w.instances() {
        let sub = dir.join(format!("i{k}"));
        std::fs::create_dir_all(&sub)?;
        generate_instance(w, w.instance_seed(seed, k), &sub)?;
    }
    Ok(())
}

fn generate_instance(w: Workload, seed: u64, dir: &Path) -> std::io::Result<()> {
    let g = w.dataset().generate(w.scale(), seed);
    std::fs::write(dir.join("graph.txt"), rig_graph::to_text(&g))?;
    let (queries, schedule) = match w {
        Workload::EpHybridCold => cold_queries(&g, Flavor::H, false),
        Workload::BsConjCold => cold_queries(&g, Flavor::C, true),
        Workload::EpRwHttp => {
            let (queries, hybrid, schedule, commits) = rw_inputs(&g, seed, RW_REQUESTS);
            std::fs::write(dir.join("hybrid.hpql"), lines(&hybrid))?;
            std::fs::write(dir.join("commits.txt"), commits)?;
            (queries, schedule)
        }
    };
    std::fs::write(dir.join("queries.hpql"), lines(&queries))?;
    std::fs::write(dir.join("schedule.tsv"), lines(&schedule))
}

fn lines(items: &[String]) -> String {
    let mut out = String::new();
    for s in items {
        out.push_str(s);
        out.push('\n');
    }
    out
}

fn hpql(q: &PatternQuery) -> String {
    to_hpql(q, None, |_| None)
}

/// Label sampler weighted by inverted-list size.
struct LabelWeights {
    cum: Vec<u64>,
}

impl LabelWeights {
    fn new(g: &DataGraph) -> LabelWeights {
        let mut acc = 0;
        let cum = (0..g.num_labels() as u32)
            .map(|l| {
                acc += g.nodes_with_label(l).len() as u64;
                acc
            })
            .collect();
        LabelWeights { cum }
    }

    fn draw(&self, rng: &mut StdRng) -> u32 {
        let total = *self.cum.last().expect("graph has labels");
        let x = rng.gen_range(0..total);
        self.cum.partition_point(|&c| c <= x) as u32
    }
}

/// Fig. 7 template instances in template round-robin order, all distinct.
/// With `exact_counts`, every acyclic template (HQ0–HQ5) is followed by an
/// unbudgeted exact count of a further instance: cyclic patterns can fall
/// back to unbounded enumeration, so they get row reads only.
fn cold_queries(g: &DataGraph, flavor: Flavor, exact_counts: bool) -> (Vec<String>, Vec<String>) {
    let weights = LabelWeights::new(g);
    let mut rng = StdRng::seed_from_u64(DESIGN_SEED);
    let mut seen = HashSet::new();
    let mut queries = Vec::new();
    let mut schedule = Vec::new();
    let mut fresh = |id: usize, rng: &mut StdRng| loop {
        let t = template(id);
        let labels: Vec<u32> = (0..t.num_nodes).map(|_| weights.draw(rng)).collect();
        if seen.insert((id, labels.clone())) {
            queries.push(hpql(&t.instantiate(flavor, &labels)));
            return queries.len() - 1;
        }
    };
    for _round in 0..COLD_ROUNDS {
        for id in 0..rig_query::template_count() {
            let q = fresh(id, &mut rng);
            schedule.push(format!("rows {q}"));
            if exact_counts && template(id).class == rig_query::QueryClass::Acyclic {
                let q = fresh(id, &mut rng);
                schedule.push(format!("count {q}"));
            }
        }
    }
    (queries, schedule)
}

/// ep-rw-http inputs: a pool of graph-extracted (non-empty) C queries, a
/// small hybrid sample, and a closed-loop schedule of Zipf-repeated reads
/// interleaved with commits. Every commit inserts edges absent from the base
/// graph and deletes base edges, each pair used at most once, so commits
/// commute and stay valid in whatever order concurrent clients land them.
fn rw_inputs(
    g: &DataGraph,
    seed: u64,
    requests: usize,
) -> (Vec<String>, Vec<String>, Vec<String>, String) {
    let extract = |flavor: Flavor, count: usize, salt: u64| -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut i = 0u64;
        while out.len() < count {
            let cfg = GeneratorConfig::new(3 + (i % 3) as usize, flavor, DESIGN_SEED ^ salt ^ i);
            i += 1;
            if let Some(q) = random_query(g, &cfg) {
                let text = hpql(&q);
                if seen.insert(text.clone()) {
                    out.push(text);
                }
            }
        }
        out
    };
    let queries = extract(Flavor::C, RW_POOL, 0xC);
    let hybrid = extract(Flavor::H, RW_HYBRID_SAMPLE, 0x4);

    let mut rng = StdRng::seed_from_u64(seed);
    let zipf: Vec<f64> = {
        let mut acc = 0.0;
        (1..=RW_POOL)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(RW_ZIPF);
                acc
            })
            .collect()
    };
    let n = g.num_nodes() as NodeId;
    let mut used: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut commits = String::new();
    let mut num_commits = 0;
    let mut schedule = Vec::with_capacity(requests);
    for i in 0..requests as u64 {
        if i % RW_COMMIT_EVERY == RW_COMMIT_EVERY - 1 {
            let mut inserted = 0;
            while inserted < RW_OPS_PER_COMMIT {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v && !g.has_edge(u, v) && used.insert((u, v)) {
                    let _ = writeln!(commits, "a e {u} {v}");
                    inserted += 1;
                }
            }
            let mut deleted = 0;
            while deleted < RW_OPS_PER_COMMIT {
                let u = rng.gen_range(0..n);
                let out = g.out_neighbors(u);
                if out.is_empty() {
                    continue;
                }
                let v = out[rng.gen_range(0..out.len())];
                if used.insert((u, v)) {
                    let _ = writeln!(commits, "d e {u} {v}");
                    deleted += 1;
                }
            }
            commits.push_str("commit\n");
            schedule.push(format!("commit {num_commits}"));
            num_commits += 1;
        } else {
            let x = rng.gen::<f64>() * zipf[RW_POOL - 1];
            schedule.push(format!("rows {}", zipf.partition_point(|&c| c <= x).min(RW_POOL - 1)));
        }
    }
    (queries, hybrid, schedule, commits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_distinct_cold_queries() {
        let g = rig_datasets::spec("ep").unwrap().generate(0.02, 3);
        let (q1, s1) = cold_queries(&g, Flavor::H, false);
        let (q2, s2) = cold_queries(&g, Flavor::H, false);
        assert_eq!((&q1, &s1), (&q2, &s2));
        let distinct: HashSet<&String> = q1.iter().collect();
        assert_eq!(distinct.len(), q1.len(), "cold queries must never repeat");
        assert_eq!(s1.len(), COLD_ROUNDS * 20);
    }

    #[test]
    fn exact_counts_follow_acyclic_templates_only() {
        let g = rig_datasets::spec("bs").unwrap().generate(0.002, 5);
        let (_, schedule) = cold_queries(&g, Flavor::C, true);
        assert_eq!(schedule.iter().filter(|s| s.starts_with("count")).count(), COLD_ROUNDS * 6);
        assert_eq!(&schedule[..3], ["rows 0", "count 1", "rows 2"]);
    }

    #[test]
    fn rw_commits_never_reuse_a_pair() {
        let g = rig_datasets::spec("ep").unwrap().generate(0.02, 9);
        let (pool, _, schedule, commits) = rw_inputs(&g, 9, 2_000);
        assert_eq!(pool.len(), RW_POOL);
        let segments = rig_graph::parse_mutations(&commits).unwrap();
        assert_eq!(segments.len(), schedule.iter().filter(|s| s.starts_with("commit")).count());
        let mut pairs = HashSet::new();
        for op in segments.iter().flatten() {
            match *op {
                rig_graph::MutationOp::AddEdge(u, v) => {
                    assert!(!g.has_edge(u, v));
                    assert!(pairs.insert((u, v)));
                }
                rig_graph::MutationOp::RemoveEdge(u, v) => {
                    assert!(g.has_edge(u, v));
                    assert!(pairs.insert((u, v)));
                }
                _ => panic!("only edge ops"),
            }
        }
    }
}
