//! rigmatch benchmark driver.
//!
//! ```text
//! rigbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --server <rigmatch>
//! ```
//!
//! Generates the workload's inputs from the seed (in a child process, so the
//! measuring process never holds the generator's data), measures for
//! `--seconds`, checks every answer, and prints one JSON result line last.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes the traced
//! run and reports the per-layer metrics. Exits non-zero on any wrong
//! answer or lost acknowledged commit.

mod gen;
mod http;
mod inproc;
mod layers;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workload::Workload;

/// Work area inside the checkout; one directory per run.
const WORK_DIR: &str = ".bench_work";

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Row read of query `q`.
    Rows(usize),
    /// Unbudgeted exact count of query `q`.
    Count(usize),
    /// Commit segment `c` of `commits.txt`.
    Commit(usize),
}

/// The generated input files of one graph instance, loaded.
pub struct Inputs {
    pub dir: PathBuf,
    pub graph_file: PathBuf,
    pub queries: Vec<String>,
    pub hybrid: Vec<String>,
    pub schedule: Vec<Step>,
    /// Mutation script of each commit.
    pub commits: Vec<String>,
    /// The run's `--seed`.
    pub seed: u64,
}

impl Inputs {
    fn load(dir: &Path, seed: u64) -> Result<Inputs, String> {
        let read = |name: &str| -> Result<String, String> {
            let path = dir.join(name);
            if !path.exists() {
                return Ok(String::new());
            }
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        };
        let lines = |s: String| -> Vec<String> { s.lines().map(str::to_string).collect() };
        let schedule = read("schedule.tsv")?
            .lines()
            .map(|l| {
                let (kind, n) = l.split_once(' ').ok_or(format!("bad schedule line {l:?}"))?;
                let n: usize = n.parse().map_err(|_| format!("bad schedule line {l:?}"))?;
                match kind {
                    "rows" => Ok(Step::Rows(n)),
                    "count" => Ok(Step::Count(n)),
                    "commit" => Ok(Step::Commit(n)),
                    _ => Err(format!("bad schedule line {l:?}")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut commits = Vec::new();
        let mut current = String::new();
        for line in read("commits.txt")?.lines() {
            if line == "commit" {
                commits.push(std::mem::take(&mut current));
            } else {
                current.push_str(line);
                current.push('\n');
            }
        }
        Ok(Inputs {
            dir: dir.to_path_buf(),
            graph_file: dir.join("graph.txt"),
            queries: lines(read("queries.hpql")?),
            hybrid: lines(read("hybrid.hpql")?),
            schedule,
            commits,
            seed,
        })
    }
}

/// Peak resident set size (VmHWM) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Writes the traced run's spans and counters next to the work area.
pub fn write_trace(
    w: Workload,
    seed: u64,
    part: &str,
    tracer: &trace::Tracer,
) -> Result<(), String> {
    let dir = Path::new(WORK_DIR).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{seed}-{part}.tsv", w.name()));
    std::fs::write(&path, tracer.to_tsv()).map_err(|e| format!("{}: {e}", path.display()))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--server" => server = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        server,
    })
}

fn run(args: &Args) -> Result<stats::Report, String> {
    let dir = Path::new(WORK_DIR).join(format!(
        "{}-seed{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = (|| {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .args(["gen", args.workload.name(), &args.seed.to_string()])
            .arg(&dir)
            .status()
            .map_err(|e| format!("generator: {e}"))?;
        if !status.success() {
            return Err(format!("generator failed: {status}"));
        }
        let instances = (0..args.workload.instances())
            .map(|k| Inputs::load(&dir.join(format!("i{k}")), args.seed))
            .collect::<Result<Vec<_>, String>>()?;
        match args.workload {
            Workload::EpHybridCold | Workload::BsConjCold => {
                inproc::run(args.workload, &instances, args.seconds, args.trace)
            }
            Workload::EpRwHttp => {
                let server = args.server.as_deref().ok_or("ep-rw-http needs --server")?;
                http::run(&instances, server, args.seconds, args.trace)
            }
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gen") {
        // child mode: rigbench gen <workload> <seed> <dir>
        let generated = match argv.as_slice() {
            [_, w, seed, dir] => match (Workload::parse(w), seed.parse()) {
                (Some(w), Ok(seed)) => {
                    gen::generate(w, seed, Path::new(dir)).map_err(|e| e.to_string())
                }
                _ => Err("usage: rigbench gen <workload> <seed> <dir>".into()),
            },
            _ => Err("usage: rigbench gen <workload> <seed> <dir>".into()),
        };
        return match generated {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rigbench gen: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rigbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("rigbench: wrong answers, see MISMATCH lines above");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rigbench: {e}");
            ExitCode::FAILURE
        }
    }
}
