//! The benchmark's own arithmetic: percentiles, failure accounting and the
//! result line.

use std::fmt::Write as _;

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Complete answer, or one stopped by its row limit.
    Ok,
    /// Timed out, hit another budget, or got a non-2xx status.
    Failed,
}

/// Latency and failure accounting for one kind of request. Failed requests
/// keep their latency: a failure counts as missing any latency limit.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    latencies_ms: Vec<f64>,
    failed: u64,
}

impl Tally {
    pub fn record(&mut self, latency_ms: f64, outcome: Outcome) {
        self.latencies_ms.push(latency_ms);
        if outcome == Outcome::Failed {
            self.failed += 1;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted() - self.failed
    }

    /// Failed divided by attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            0.0
        } else {
            self.failed as f64 / self.attempted() as f64
        }
    }

    pub fn p(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p).unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Tally) {
        self.latencies_ms.extend_from_slice(&other.latencies_ms);
        self.failed += other.failed;
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `+ 0.0` turns the -0.0 of an empty f64 sum into 0
            let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // 101 samples: p90 is the 91st smallest, leaving 10 beyond it
        let ys: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&ys, 90.0), Some(91.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failures_keep_their_latency_and_count_against_attempts() {
        let mut t = Tally::default();
        t.record(1.0, Outcome::Ok);
        t.record(2.0, Outcome::Ok);
        t.record(1000.0, Outcome::Failed);
        t.record(3.0, Outcome::Ok);
        assert_eq!((t.attempted(), t.failed(), t.succeeded()), (4, 1, 3));
        assert_eq!(t.failed_frac(), 0.25);
        assert_eq!(t.p(90.0), 1000.0);
        assert_eq!(Tally::default().failed_frac(), 0.0);
        let mut u = Tally::default();
        u.record(5.0, Outcome::Failed);
        t.merge(&u);
        assert_eq!((t.attempted(), t.failed()), (5, 2));
        assert_eq!(t.failed_frac(), 0.4);
    }

    #[test]
    fn report_line_shape() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.5, "s"), ("x", f64::NAN, "ms")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
