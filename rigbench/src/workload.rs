//! The benchmark's workloads and their fixed parameters (see
//! `BENCHMARK.json` for why each was chosen).

use std::time::Duration;

use rig_datasets::DatasetSpec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7 hybrid templates, cold, in-process, ep at half scale.
    EpHybridCold,
    /// Fig. 7 conjunctive templates plus exact counts, cold, in-process.
    BsConjCold,
    /// Reads beside durable commits through `rigmatch serve`.
    EpRwHttp,
}

/// Row limit of a cold row read (the paper's protocol, scaled down).
pub const COLD_ROW_LIMIT: u64 = 100_000;
/// Timeout of a cold row read.
pub const COLD_TIMEOUT: Duration = Duration::from_secs(10);
/// Row limit of an ep-rw-http read.
pub const RW_ROW_LIMIT: u64 = 100;
/// Timeout of an ep-rw-http read.
pub const RW_TIMEOUT_MS: u64 = 2_000;
/// Timeout of a dirty-snapshot hybrid baseline read (traced runs only).
pub const DIRTY_HYBRID_TIMEOUT: Duration = Duration::from_secs(1);

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ep-hybrid-cold" => Some(Workload::EpHybridCold),
            "bs-conj-cold" => Some(Workload::BsConjCold),
            "ep-rw-http" => Some(Workload::EpRwHttp),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EpHybridCold => "ep-hybrid-cold",
            Workload::BsConjCold => "bs-conj-cold",
            Workload::EpRwHttp => "ep-rw-http",
        }
    }

    pub fn dataset(self) -> &'static DatasetSpec {
        let name = match self {
            Workload::EpHybridCold | Workload::EpRwHttp => "ep",
            Workload::BsConjCold => "bs",
        };
        rig_datasets::spec(name).expect("dataset is in the Table 2 catalog")
    }

    /// Graph instances per run, each generated from its own seed derived
    /// from `--seed`. A run's reads are split evenly over them in time, so
    /// no single instance's hub labels decide the run: seed-to-seed spread
    /// on one graph was 10-20% for the cold percentiles and up to 2x for
    /// ep-rw-http's p90.
    pub fn instances(self) -> usize {
        4
    }

    /// Generator seed of instance `k` of a run with seed `seed`.
    pub fn instance_seed(self, seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(self.instances() as u64).wrapping_add(k as u64)
    }

    pub fn scale(self) -> f64 {
        match self {
            Workload::EpHybridCold => 0.5,
            Workload::EpRwHttp => 1.0,
            Workload::BsConjCold => 0.05,
        }
    }
}
