//! The read-only workloads (`ep-hybrid-cold`, `bs-conj-cold`): cold reads
//! in-process through `Session`, the library path.

use std::path::Path;
use std::time::Instant;

use rig_core::Session;
use rig_graph::{DataGraph, NodeId};
use rig_mjoin::ResultSink;
use rig_query::{EdgeKind, PatternQuery};

use crate::layers::{self, Layers, ReadMode};
use crate::stats::{median, Outcome, Report, Tally};
use crate::trace::Tracer;
use crate::workload::{Workload, COLD_ROW_LIMIT, COLD_TIMEOUT};
use crate::{peak_rss_mb, Inputs, Step};

const COLD_ROWS: ReadMode = ReadMode::Rows { limit: COLD_ROW_LIMIT, timeout: COLD_TIMEOUT };

/// Graph loads per instance; `setup_s` is the median over all of them.
const SETUP_REPEATS: usize = 3;
/// Occurrence tuples of each row read checked against the graph.
const SAMPLE_TUPLES: usize = 4;
/// Exact counts up to this size are re-counted by forced enumeration.
const ENUM_CHECK_LIMIT: u64 = 1_000_000;

/// Keeps the first few tuples of a stream and counts the rest.
struct SampleSink {
    rows: u64,
    sample: Vec<Vec<NodeId>>,
}

impl ResultSink for SampleSink {
    fn push(&mut self, tuple: &[NodeId]) -> bool {
        self.rows += 1;
        if self.sample.len() < SAMPLE_TUPLES {
            self.sample.push(tuple.to_vec());
        }
        true
    }
}

/// What one untraced read returned.
struct Answer {
    query_index: usize,
    mode: ReadMode,
    latency_ms: f64,
    count: u64,
    /// Rows the sink received (row reads only).
    rows_streamed: Option<u64>,
    timed_out: bool,
    /// The prepared query; `None` when preparing failed.
    query: Option<PatternQuery>,
    sample: Vec<Vec<NodeId>>,
}

/// Opens the session the way a user would: read the graph file, parse it,
/// build the session with its BFL index. Does it `repeats` times and
/// returns the last session with every setup, parse and session-build time.
pub fn open_session(graph_file: &Path, repeats: usize) -> Result<(Session, Setup), String> {
    let mut setup = Setup::default();
    let mut session = None;
    for _ in 0..repeats {
        drop(session.take());
        let t0 = Instant::now();
        let text = std::fs::read_to_string(graph_file).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let g = rig_graph::parse_text(&text).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        drop(text);
        let s = Session::new(g);
        setup.total_s.push(t0.elapsed().as_secs_f64());
        setup.parse_s.push((t2 - t1).as_secs_f64());
        setup.bfl_s.push(t2.elapsed().as_secs_f64());
        session = Some(s);
    }
    Ok((session.ok_or("no setup repeats")?, setup))
}

#[derive(Default)]
pub struct Setup {
    pub total_s: Vec<f64>,
    pub parse_s: Vec<f64>,
    pub bfl_s: Vec<f64>,
}

impl Setup {
    pub fn extend(&mut self, other: Setup) {
        self.total_s.extend(other.total_s);
        self.parse_s.extend(other.parse_s);
        self.bfl_s.extend(other.bfl_s);
    }
}

fn read(session: &Session, query_index: usize, mode: ReadMode, text: &str) -> Answer {
    let start = Instant::now();
    let mut answer = Answer {
        query_index,
        mode,
        latency_ms: 0.0,
        count: 0,
        rows_streamed: None,
        timed_out: false,
        query: None,
        sample: Vec::new(),
    };
    if let Ok(p) = session.prepare(text) {
        if let ReadMode::Rows { limit, timeout } = mode {
            let mut sink = SampleSink { rows: 0, sample: Vec::new() };
            let o = p.run().limit(limit).timeout(timeout).stream(&mut sink);
            answer.count = o.result.count;
            answer.timed_out = o.result.timed_out;
            answer.sample = sink.sample;
            answer.rows_streamed = Some(sink.rows);
        } else {
            let o = p.run().count();
            answer.count = o.result.count;
            answer.timed_out = o.result.timed_out;
        }
        answer.query = Some(p.query().clone());
    }
    answer.latency_ms = start.elapsed().as_secs_f64() * 1e3;
    answer
}

pub fn run(
    w: Workload,
    instances: &[Inputs],
    seconds: f64,
    traced: bool,
) -> Result<Report, String> {
    let half = if traced { seconds / 2.0 } else { seconds };
    let budget = half / instances.len() as f64;
    let mut setup = Setup::default();
    let mut reads = Tally::default();
    let mut loop_s = 0.0;
    let mut problems = Vec::new();
    let mut enum_checked = 0;
    let mut tracer = Tracer::default();
    let mut layers = Layers::default();
    let (mut hits, mut lookups) = (0, 0);
    let (mut untraced_ms, mut traced_ms, mut replayed) = (0.0, 0.0, 0);
    for inputs in instances {
        let (session, s) = open_session(&inputs.graph_file, SETUP_REPEATS)?;
        setup.extend(s);
        let cache_before = session.cache_stats();
        let loop_start = Instant::now();
        let mut answers = Vec::new();
        for &step in &inputs.schedule {
            if loop_start.elapsed().as_secs_f64() >= budget {
                break;
            }
            let (q, mode) = match step {
                Step::Rows(q) => (q, COLD_ROWS),
                Step::Count(q) => (q, ReadMode::ExactCount),
                Step::Commit(_) => return Err("read-only workload schedules a commit".into()),
            };
            let a = read(&session, q, mode, &inputs.queries[q]);
            let ok = a.query.is_some() && !a.timed_out;
            reads.record(a.latency_ms, if ok { Outcome::Ok } else { Outcome::Failed });
            answers.push(a);
        }
        loop_s += loop_start.elapsed().as_secs_f64();
        let cache_after = session.cache_stats();
        hits += cache_after.hits - cache_before.hits;
        lookups += cache_after.hits + cache_after.misses - cache_before.hits - cache_before.misses;
        enum_checked += check(&session, inputs, &answers, &mut problems)?;

        if traced {
            let traced_start = Instant::now();
            for a in &answers {
                let id = replayed as u64;
                replayed += 1;
                let text = &inputs.queries[a.query_index];
                let r = layers::traced_read(&session, &mut tracer, &mut layers, id, text, a.mode);
                if let (Some(count), Some(_)) = (r, &a.query) {
                    if !a.timed_out && count != a.count {
                        problems.push(format!(
                            "read {id}: traced decomposition counted {count}, Session {}",
                            a.count
                        ));
                    }
                }
            }
            traced_ms += traced_start.elapsed().as_secs_f64() * 1e3;
            untraced_ms += answers.iter().map(|a| a.latency_ms).sum::<f64>();
        }
    }
    eprintln!(
        "{}: {} reads on {} graphs in {:.1}s ({} failed), {} exact counts re-enumerated",
        w.name(),
        reads.attempted(),
        instances.len(),
        loop_s,
        reads.failed(),
        enum_checked
    );
    for p in problems.iter().take(10) {
        eprintln!("MISMATCH {p}");
    }

    let metrics = if traced {
        layers.setup(&setup.parse_s, &setup.bfl_s);
        layers.overhead_ms = (traced_ms - untraced_ms) / replayed.max(1) as f64;
        layers.failed_frac = reads.failed_frac();
        layers.cache_hit_ratio = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        crate::write_trace(w, instances[0].seed, "replay", &tracer)?;
        layers.finish(&tracer)?
    } else {
        vec![
            ("setup_s", median(&setup.total_s).unwrap_or(0.0), "s"),
            ("query_p50_ms", reads.p(50.0), "ms"),
            ("query_p90_ms", reads.p(90.0), "ms"),
            ("ops_per_s", reads.succeeded() as f64 / loop_s, "1/s"),
            ("peak_rss_mb", peak_rss_mb(std::process::id()).unwrap_or(0.0), "MB"),
        ]
    };
    Ok(Report {
        correct: problems.is_empty(),
        attempted: reads.attempted(),
        failed: reads.failed(),
        metrics,
    })
}

/// Checks one graph's answers: streamed rows match the reported count,
/// sampled tuples are occurrences, and exact counts up to
/// `ENUM_CHECK_LIMIT` equal a forced enumeration. Returns how many exact
/// counts were re-enumerated.
fn check(
    session: &Session,
    inputs: &Inputs,
    answers: &[Answer],
    problems: &mut Vec<String>,
) -> Result<usize, String> {
    let snapshot = session.graph();
    let g: &DataGraph = snapshot.base();
    let mut enum_checked = 0;
    for (i, a) in answers.iter().enumerate() {
        let Some(q) = &a.query else { continue };
        if a.rows_streamed.is_some_and(|rows| rows != a.count) {
            problems.push(format!(
                "read {i}: streamed {:?} rows, reported {}",
                a.rows_streamed, a.count
            ));
        }
        for t in &a.sample {
            if !is_occurrence(g, q, t) {
                problems.push(format!("read {i}: {t:?} is not an occurrence"));
            }
        }
        if matches!(a.mode, ReadMode::ExactCount) && !a.timed_out {
            let p = session.prepare(&inputs.queries[a.query_index]).map_err(|e| e.to_string())?;
            let o =
                p.run().force_enumerate().limit(ENUM_CHECK_LIMIT + 1).timeout(COLD_TIMEOUT).count();
            if !o.result.limit_hit && !o.result.timed_out {
                enum_checked += 1;
                if o.result.count != a.count {
                    problems.push(format!(
                        "read {i}: exact count {} but enumeration found {}",
                        a.count, o.result.count
                    ));
                }
            }
        }
    }
    Ok(enum_checked)
}

/// Checks one occurrence tuple against the graph directly: labels, direct
/// edges, and reachability edges by a graph search for a non-empty path,
/// independent of the engine's reachability index.
fn is_occurrence(g: &DataGraph, q: &PatternQuery, t: &[NodeId]) -> bool {
    if t.len() != q.num_nodes() {
        return false;
    }
    let labels_ok = (0..q.num_nodes()).all(|i| g.label(t[i]) == q.label(i as u32));
    labels_ok
        && q.edges().iter().all(|e| {
            let (u, v) = (t[e.from as usize], t[e.to as usize]);
            match e.kind {
                EdgeKind::Direct => g.has_edge(u, v),
                EdgeKind::Reachability => reaches(g, u, v),
            }
        })
}

fn reaches(g: &DataGraph, u: NodeId, v: NodeId) -> bool {
    let mut seen = vec![false; g.num_nodes()];
    let mut stack = vec![u];
    while let Some(x) = stack.pop() {
        for &y in g.out_neighbors(x) {
            if y == v {
                return true;
            }
            if !seen[y as usize] {
                seen[y as usize] = true;
                stack.push(y);
            }
        }
    }
    false
}
