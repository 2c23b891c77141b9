//! The read/write workload (`ep-rw-http`): a closed loop of `nproc` client
//! connections against the shipped `rigmatch serve` binary over a durable
//! store, reads beside commits.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rig_core::Session;

use crate::layers::{self, Layers, ReadMode};
use crate::stats::{mean, median, Outcome, Report, Tally};
use crate::trace::Tracer;
use crate::workload::{Workload, DIRTY_HYBRID_TIMEOUT, RW_ROW_LIMIT, RW_TIMEOUT_MS};
use crate::{inproc, peak_rss_mb, write_trace, Inputs, Step};

/// Server start-ups per instance; `setup_s` is the median over all of them.
const SETUP_REPEATS: usize = 3;
/// Rows compared per pool query in the quiesced HTTP-vs-direct check.
const CHECK_ROWS: u64 = 10_000;
/// Pool queries compared in that check: the most-read Zipf ranks.
const CHECK_QUERIES: usize = 24;
/// Leading requests of the issued sequence replayed in-process by a traced
/// run (once untraced, once traced).
const REPLAY_REQUESTS: usize = 300;
/// Client socket timeout; a request outliving it counts as failed.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

const RW_ROWS: ReadMode =
    ReadMode::Rows { limit: RW_ROW_LIMIT, timeout: Duration::from_millis(RW_TIMEOUT_MS) };

/// A running `rigmatch serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(bin: &Path, graph: &Path, data_dir: &Path, workers: usize) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(graph)
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--workers", &workers.to_string(), "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            let _ = BufReader::new(out).read_line(&mut line);
        }
        let mut server = Server { child, addr: String::new() };
        server.addr = line
            .trim()
            .strip_prefix("listening on http://")
            .ok_or(format!("server did not start (printed {line:?})"))?
            .to_string();
        Ok(server)
    }

    fn wait_healthy(&self) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if let Ok(r) = request(&self.addr, "GET", "/healthz", "") {
                if r.status == 200 {
                    return Ok(());
                }
            }
            if start.elapsed() > SOCKET_TIMEOUT {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Graceful stop through `POST /shutdown`.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = request(&self.addr, "POST", "/shutdown", "");
        let start = Instant::now();
        while start.elapsed() < SOCKET_TIMEOUT {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not stop after /shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

struct HttpResponse {
    status: u16,
    body: String,
    ttfb_ms: f64,
    total_ms: f64,
}

/// One request on its own connection (`Connection: close`), timed from
/// connect to first response byte and to the close.
fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<HttpResponse, String> {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(SOCKET_TIMEOUT)).map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(SOCKET_TIMEOUT)).map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())
        .and_then(|()| s.write_all(body.as_bytes()))
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut ttfb_ms = None;
    loop {
        let n = s.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            break;
        }
        ttfb_ms.get_or_insert_with(|| start.elapsed().as_secs_f64() * 1e3);
        buf.extend_from_slice(&chunk[..n]);
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let text = String::from_utf8(buf).map_err(|e| e.to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("malformed response")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    Ok(HttpResponse {
        status,
        body: body.to_string(),
        ttfb_ms: ttfb_ms.unwrap_or(total_ms),
        total_ms,
    })
}

/// Parses an NDJSON row stream: the tuples and the trailing summary's
/// `count` and `timed_out`.
fn parse_rows(body: &str) -> Result<(Vec<Vec<u32>>, u64, bool), String> {
    let mut rows = Vec::new();
    let mut summary = None;
    for line in body.lines() {
        if let Some(inner) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let row: Result<Vec<u32>, _> = inner.split(',').map(str::parse).collect();
            rows.push(row.map_err(|_| format!("bad row {line:?}"))?);
        } else if line.starts_with('{') {
            summary = Some(line);
        }
    }
    let summary = summary.ok_or("stream has no summary")?;
    let count = json_u64(summary, "count").ok_or("summary has no count")?;
    Ok((rows, count, summary.contains("\"timed_out\":true")))
}

fn json_u64(obj: &str, key: &str) -> Option<u64> {
    let rest = &obj[obj.find(&format!("\"{key}\":"))? + key.len() + 3..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

/// Prometheus text → value of `name`.
fn metric(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// One request issued by the closed loop.
struct Issued {
    index: usize,
    start: Instant,
    ttfb_ms: f64,
    total_ms: f64,
    ok: bool,
    /// Store version a successful commit reported.
    version: Option<u64>,
}

fn issue(addr: &str, inputs: &Inputs, index: usize) -> Issued {
    let start = Instant::now();
    let (response, is_commit) = match inputs.schedule[index] {
        Step::Commit(c) => (request(addr, "POST", "/update", &inputs.commits[c]), true),
        Step::Rows(q) | Step::Count(q) => {
            let path = format!("/query?limit={RW_ROW_LIMIT}&timeout_ms={RW_TIMEOUT_MS}");
            (request(addr, "POST", &path, &inputs.queries[q]), false)
        }
    };
    let mut issued = Issued { index, start, ttfb_ms: 0.0, total_ms: 0.0, ok: false, version: None };
    match response {
        Ok(r) => {
            issued.ttfb_ms = r.ttfb_ms;
            issued.total_ms = r.total_ms;
            if r.status == 200 {
                if is_commit {
                    issued.version = json_u64(&r.body, "version");
                    issued.ok = issued.version.is_some();
                } else if let Ok((rows, count, timed_out)) = parse_rows(&r.body) {
                    issued.ok = !timed_out && rows.len() as u64 == count;
                }
            }
        }
        Err(_) => issued.total_ms = start.elapsed().as_secs_f64() * 1e3,
    }
    issued
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// What the closed loops measured, accumulated over the instances.
#[derive(Default)]
struct Measured {
    reads: Tally,
    commits: Tally,
    loop_s: f64,
    setup_s: Vec<f64>,
    peak_mb: f64,
    read_ttfb_ms: Vec<f64>,
    read_body_ms: Vec<f64>,
    read_total_ms: Vec<f64>,
    /// `/metrics` counter deltas over the loop, summed over instances.
    hits: f64,
    misses: f64,
    invalidated: f64,
    compactions: f64,
    rejected: f64,
    queries: f64,
    query_micros: f64,
    /// Final `rigmatch_store_delta_ops` gauge of each instance.
    delta_ops: Vec<f64>,
    wal_bytes: f64,
}

pub fn run(instances: &[Inputs], bin: &Path, seconds: f64, traced: bool) -> Result<Report, String> {
    let half = if traced { seconds / 2.0 } else { seconds };
    let budget = half / instances.len() as f64;
    let mut m = Measured::default();
    let mut problems = Vec::new();
    let mut tracer = Tracer::default();
    let mut client = Tracer::default();
    let mut layers = Layers::default();
    let mut replay_setup = inproc::Setup::default();
    let (mut plain_ms, mut traced_ms, mut replayed) = (0.0, 0.0, 0);
    let mut dirty = Tracer::default();
    let mut dirty_timeouts = 0.0;
    for inputs in instances {
        let issued = measure(inputs, bin, budget, &mut m, &mut problems)?;
        if traced {
            for r in &issued {
                let id = client.spans().len() as u64;
                let ms = |v: f64| Duration::from_secs_f64(v / 1e3);
                let root = client.record("http.request", id, None, r.start, ms(r.total_ms));
                client.record("server.ttfb", id, Some(root), r.start, ms(r.ttfb_ms));
            }
            let steps: Vec<Step> = issued
                .iter()
                .take(REPLAY_REQUESTS / instances.len())
                .map(|r| inputs.schedule[r.index])
                .collect();
            let (session, setup) = inproc::open_session(&inputs.graph_file, SETUP_REPEATS)?;
            replay_setup.extend(setup);
            let (ms, counts) = replay_untraced(inputs, &steps)?;
            plain_ms += ms;
            let t = Instant::now();
            let traced_counts =
                replay_traced(inputs, &session, &steps, replayed, &mut tracer, &mut layers)?;
            traced_ms += t.elapsed().as_secs_f64() * 1e3;
            for (i, (got, want)) in traced_counts.iter().zip(&counts).enumerate() {
                if let (Some(got), Some(want)) = (got, want) {
                    if got != want {
                        problems.push(format!(
                            "replayed read {}: traced decomposition counted {got}, Session {want}",
                            replayed + i
                        ));
                    }
                }
            }
            replayed += steps.len();
            // dirty-snapshot hybrid baseline, on spans of its own so it
            // does not mix into the per-read layer means
            let mode = ReadMode::Rows { limit: RW_ROW_LIMIT, timeout: DIRTY_HYBRID_TIMEOUT };
            for text in &inputs.hybrid {
                let id = dirty.spans().len() as u64;
                let mut scratch = Layers::default();
                if layers::traced_read(&session, &mut dirty, &mut scratch, id, text, mode).is_none()
                {
                    dirty_timeouts += 1.0;
                }
            }
        }
    }
    let succeeded = m.reads.succeeded() + m.commits.succeeded();
    eprintln!(
        "ep-rw-http: {} reads ({} failed), {} commits ({} failed) on {} graphs in {:.1}s",
        m.reads.attempted(),
        m.reads.failed(),
        m.commits.attempted(),
        m.commits.failed(),
        instances.len(),
        m.loop_s
    );
    for p in problems.iter().take(10) {
        eprintln!("MISMATCH {p}");
    }

    let metrics = if traced {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let acked = m.commits.succeeded() as f64;
        layers.setup(&replay_setup.parse_s, &replay_setup.bfl_s);
        layers.overhead_ms = (traced_ms - plain_ms) / replayed.max(1) as f64;
        layers.cache_hit_ratio = ratio(m.hits, m.hits + m.misses);
        layers.plans_invalidated_per_commit = ratio(m.invalidated, acked);
        layers.wal_bytes_per_commit = ratio(m.wal_bytes, acked);
        layers.delta_ops = mean(&m.delta_ops);
        layers.compactions = m.compactions;
        layers.rejected = m.rejected;
        layers.ttfb_ms = mean(&m.read_ttfb_ms);
        layers.body_ms = mean(&m.read_body_ms);
        layers.server_overhead_ms = mean(&m.read_total_ms) - ratio(m.query_micros, m.queries) / 1e3;
        layers.commit_p50_ms = m.commits.p(50.0);
        layers.commit_p90_ms = m.commits.p(90.0);
        let mut all = m.reads.clone();
        all.merge(&m.commits);
        layers.failed_frac = all.failed_frac();
        layers.dirty_hybrid_ms = Layers::mean_request_ms(&dirty);
        layers.dirty_hybrid_timeouts = dirty_timeouts;
        let seed = instances[0].seed;
        write_trace(Workload::EpRwHttp, seed, "http", &client)?;
        write_trace(Workload::EpRwHttp, seed, "replay", &tracer)?;
        layers.finish(&tracer)?
    } else {
        vec![
            ("setup_s", median(&m.setup_s).unwrap_or(0.0), "s"),
            ("query_p50_ms", m.reads.p(50.0), "ms"),
            ("query_p90_ms", m.reads.p(90.0), "ms"),
            ("ops_per_s", succeeded as f64 / m.loop_s, "1/s"),
            ("peak_rss_mb", m.peak_mb, "MB"),
        ]
    };
    Ok(Report {
        correct: problems.is_empty(),
        attempted: m.reads.attempted() + m.commits.attempted(),
        failed: m.reads.failed() + m.commits.failed(),
        metrics,
    })
}

/// Starts the server on one instance (`SETUP_REPEATS` times, keeping the
/// last), runs the closed loop for `budget` seconds, checks the quiesced
/// answers and the recovered store, and folds the numbers into `m`.
/// Returns the issued requests in start order.
fn measure(
    inputs: &Inputs,
    bin: &Path,
    budget: f64,
    m: &mut Measured,
    problems: &mut Vec<String>,
) -> Result<Vec<Issued>, String> {
    let workers = nproc();
    let mut server: Option<Server> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            s.shutdown()?;
        }
        let t0 = Instant::now();
        let s =
            Server::start(bin, &inputs.graph_file, &inputs.dir.join(format!("data{k}")), workers)?;
        s.wait_healthy()?;
        m.setup_s.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.ok_or("no setup repeats")?;
    let data_dir = inputs.dir.join(format!("data{}", SETUP_REPEATS - 1));
    let wal = data_dir.join("wal.log");

    let metrics_before = request(&server.addr, "GET", "/metrics", "")?.body;
    let wal_before = file_len(&wal);
    let cursor = AtomicUsize::new(0);
    let loop_start = Instant::now();
    let mut issued: Vec<Issued> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while loop_start.elapsed().as_secs_f64() < budget {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= inputs.schedule.len() {
                            break;
                        }
                        mine.push(issue(&server.addr, inputs, i));
                    }
                    mine
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().unwrap_or_default()).collect()
    });
    m.loop_s += loop_start.elapsed().as_secs_f64();
    let metrics_after = request(&server.addr, "GET", "/metrics", "")?.body;
    m.wal_bytes += file_len(&wal) - wal_before;
    issued.sort_by_key(|r| r.start);

    let delta = |name: &str| metric(&metrics_after, name) - metric(&metrics_before, name);
    m.hits += delta("rigmatch_plan_cache_hits_total");
    m.misses += delta("rigmatch_plan_cache_misses_total");
    m.invalidated += delta("rigmatch_plan_cache_invalidated_total");
    m.compactions += delta("rigmatch_store_compactions_total");
    m.rejected += delta("rigmatch_rejected_total");
    m.queries += delta("rigmatch_queries_total");
    m.query_micros += delta("rigmatch_query_micros_total");
    m.delta_ops.push(metric(&metrics_after, "rigmatch_store_delta_ops"));
    for r in &issued {
        let outcome = if r.ok { Outcome::Ok } else { Outcome::Failed };
        if let Step::Commit(_) = inputs.schedule[r.index] {
            m.commits.record(r.total_ms, outcome);
        } else {
            m.reads.record(r.total_ms, outcome);
            m.read_ttfb_ms.push(r.ttfb_ms);
            m.read_body_ms.push(r.total_ms - r.ttfb_ms);
            m.read_total_ms.push(r.total_ms);
        }
    }

    // quiesced: a direct session replays every acknowledged commit
    let mut acked: Vec<(u64, usize)> = issued
        .iter()
        .filter_map(|r| match (inputs.schedule[r.index], r.version) {
            (Step::Commit(c), Some(v)) if r.ok => Some((v, c)),
            _ => None,
        })
        .collect();
    acked.sort_unstable();
    let last_acked = acked.last().map_or(0, |&(v, _)| v);
    let (direct, _) = inproc::open_session(&inputs.graph_file, 1)?;
    for &(_, c) in &acked {
        direct.apply(&commit_ops(inputs, c)?).map_err(|e| e.to_string())?;
    }
    if direct.store_stats().version != last_acked {
        problems.push(format!(
            "acknowledged versions are not 1..={last_acked} (direct replay reached {})",
            direct.store_stats().version
        ));
    }
    for (qi, text) in inputs.queries.iter().enumerate().take(CHECK_QUERIES) {
        let r = request(&server.addr, "POST", &format!("/query?limit={CHECK_ROWS}"), text)?;
        let (mut rows, _, _) = parse_rows(&r.body)?;
        let p = direct.prepare(text.as_str()).map_err(|e| e.to_string())?;
        let (mut expected, _) = p.run().collect(CHECK_ROWS as usize);
        rows.sort_unstable();
        expected.sort_unstable();
        if rows != expected {
            problems.push(format!(
                "query {qi}: HTTP returned {} rows, direct Session {}",
                rows.len(),
                expected.len()
            ));
        }
    }
    m.peak_mb = m.peak_mb.max(peak_rss_mb(server.child.id()).unwrap_or(0.0));
    server.shutdown()?;

    // reopening the store recovers exactly the last acknowledged commit
    let reopened = Session::open(&data_dir).map_err(|e| e.to_string())?;
    if reopened.store_stats().version != last_acked {
        problems.push(format!(
            "recovered version {} but version {last_acked} was acknowledged",
            reopened.store_stats().version
        ));
    }
    let materialize = |s: &Session| rig_graph::to_text(&s.graph().materialize());
    if materialize(&reopened) != materialize(&direct) {
        problems.push("recovered graph differs from the acknowledged commits".into());
    }
    Ok(issued)
}

fn commit_ops(inputs: &Inputs, c: usize) -> Result<Vec<rig_graph::MutationOp>, String> {
    Ok(rig_graph::parse_mutations(&inputs.commits[c]).map_err(|e| e.to_string())?.concat())
}

/// Replays `steps` in-process without tracing, reads bypassing the plan
/// cache like the traced decomposition does. Returns the wall time in ms
/// and each step's count (`None` for commits and timed-out reads).
fn replay_untraced(inputs: &Inputs, steps: &[Step]) -> Result<(f64, Vec<Option<u64>>), String> {
    let (session, _) = inproc::open_session(&inputs.graph_file, 1)?;
    let mut counts = Vec::with_capacity(steps.len());
    let start = Instant::now();
    for &step in steps {
        match step {
            Step::Commit(c) => {
                session.apply(&commit_ops(inputs, c)?).map_err(|e| e.to_string())?;
                counts.push(None);
            }
            Step::Rows(q) | Step::Count(q) => {
                let p = session.prepare(inputs.queries[q].as_str()).map_err(|e| e.to_string())?;
                let o = p
                    .run()
                    .no_cache()
                    .limit(RW_ROW_LIMIT)
                    .timeout(Duration::from_millis(RW_TIMEOUT_MS))
                    .count();
                counts.push((!o.result.timed_out).then_some(o.result.count));
            }
        }
    }
    Ok((start.elapsed().as_secs_f64() * 1e3, counts))
}

/// Replays `steps` in-process through the layers' public calls. Returns
/// each step's count like [`replay_untraced`].
fn replay_traced(
    inputs: &Inputs,
    session: &Session,
    steps: &[Step],
    first_id: usize,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Vec<Option<u64>>, String> {
    let mut counts = Vec::with_capacity(steps.len());
    for (i, &step) in steps.iter().enumerate() {
        let id = (first_id + i) as u64;
        counts.push(match step {
            Step::Commit(c) => {
                layers::traced_commit(session, tracer, layers, id, &commit_ops(inputs, c)?)?;
                None
            }
            Step::Rows(q) | Step::Count(q) => {
                layers::traced_read(session, tracer, layers, id, &inputs.queries[q], RW_ROWS)
            }
        });
    }
    Ok(counts)
}
