//! Spans and counters recorded around the benchmark's calls into each
//! layer. Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request the span belongs to.
    pub req: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    /// A tracer whose span times count from now.
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Records a span timed elsewhere (e.g. on a client thread); spans that
    /// started before the tracer was created are clamped to its origin.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        duration: Duration,
    ) -> usize {
        let start = start.saturating_duration_since(self.origin).as_secs_f64();
        let end = start + duration.as_secs_f64();
        self.spans.push(Span { name, req, parent, start, end });
        self.spans.len() - 1
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, req, parent, start, end: start });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time (seconds) of every span named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        let selfs = self_times(&self.spans);
        self.spans.iter().zip(&selfs).filter(|(s, _)| s.name == name).map(|(_, t)| t).sum()
    }

    /// Tab-separated dump: index, request, name, parent, start, end, self.
    pub fn to_tsv(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("span\treq\tname\tparent\tstart_s\tend_s\tself_s\n");
        for (i, (s, t)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{:.9}\t{:.9}\t{:.9}",
                s.req, s.name, s.start, s.end, t
            );
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# counter\t{name}\t{v}");
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start, spans[p].end);
            children[p].push((s.start.max(lo), s.end.min(hi)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter().filter(|(a, b)| b > a) {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration() - covered
        })
        .collect()
}

/// Largest gap, over all requests, between a request's root span duration
/// and the summed self times of the spans in its tree.
pub fn max_attribution_gap(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
    for (i, t) in selfs.iter().enumerate() {
        *sums.entry(root_of(i)).or_insert(0.0) += t;
    }
    sums.iter().map(|(&root, sum)| (spans[root].duration() - sum).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span { name, req: 0, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("request", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 2.0, 4.0), // overlaps a: covered 1..4
            span("c", Some(0), 6.0, 7.0),
            span("d", Some(3), 6.5, 6.75),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![10.0 - 3.0 - 1.0, 2.0, 2.0, 0.75, 0.25]);
        // overlapping siblings make the sum exceed the wall time
        assert_eq!(max_attribution_gap(&spans), 1.0);
    }

    #[test]
    fn nested_sequential_spans_attribute_all_wall_time() {
        let spans = vec![
            span("request", None, 0.0, 5.0),
            span("a", Some(0), 0.5, 2.0),
            span("b", Some(0), 2.0, 4.5),
            span("request", None, 5.0, 6.0),
            span("child-outside", Some(3), 5.5, 9.0), // clipped to the parent
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 1.0);
        assert_eq!(t[3], 0.5);
        assert!(max_attribution_gap(&spans[..3]) < 1e-12);
    }

    #[test]
    fn tracer_nests_and_counts() {
        let mut tr = Tracer::default();
        let root = tr.begin("request", 7);
        let v = tr.span("leaf", 7, || 41 + 1);
        tr.count("rows", 2.0);
        tr.count("rows", 3.0);
        tr.end(root);
        assert_eq!(v, 42);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.counter("rows"), 5.0);
        assert!(max_attribution_gap(tr.spans()) < 1e-9);
        assert!(tr.to_tsv().contains("\t7\tleaf\t0\t"));
    }
}
