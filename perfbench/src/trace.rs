//! In-memory spans for the traced run.
//!
//! A span covers one call into one layer's public API. Spans of one
//! request share its `seq`; a span's `parent` names the span of the layer
//! above for the same request. In the layer replay the child calls run
//! after their parent call rather than inside it (the same inputs replayed
//! one boundary lower), so a layer's self time is its span's duration
//! minus the durations of its children — which, for children nested in
//! time, is the part of the interval they cover.

use crate::stats::Samples;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `"server.tcp"`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Request sequence number shared by the request's spans.
    pub seq: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one thread, kept in memory until written out.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a finished call and return its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        seq: u64,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            seq,
        });
        self.spans.len() - 1
    }

    /// Move another tracer's spans in, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as tab-separated text (`name start_ns end_ns
    /// parent seq`, parent `-` for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tseq")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.seq
            )?;
        }
        out.flush()
    }
}

/// The tracing-overhead measurement: verified ops, seconds and latencies
/// of the untraced (index 0) and the traced (index 1) blocks.
#[derive(Debug, Default)]
pub struct Overhead {
    ops: [u64; 2],
    secs: [f64; 2],
    lat_ms: [Samples; 2],
}

impl Overhead {
    /// Add one block: `ok` verified ops in `secs` seconds.
    pub fn add(&mut self, traced: bool, ok: u64, secs: f64, lat_ms: &Samples) {
        let side = usize::from(traced);
        self.ops[side] += ok;
        self.secs[side] += secs;
        self.lat_ms[side].extend(lat_ms);
    }

    /// `(ops/s, p50 ms)` of each side, untraced first.
    pub fn sides(mut self) -> ([f64; 2], [f64; 2]) {
        let rate = |i: usize| self.ops[i] as f64 / self.secs[i];
        let rates = [rate(0), rate(1)];
        let mut p50 = |i: usize| {
            self.lat_ms[i]
                .quantile(0.5)
                .expect("overhead blocks hold enough samples")
                .value
        };
        (rates, [p50(0), p50(1)])
    }
}

/// Self time of every span: its duration minus its children's durations
/// (saturating at zero), indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Self times, in µs, of every span named `name`.
pub fn self_us_of(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}

/// Each layer's share of the root spans' total time: `(name, share)` for
/// every span name, in first-seen order. Shares of one tree sum to 1.
pub fn layer_shares(spans: &[Span], selfs: &[u64]) -> Vec<(&'static str, f64)> {
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, &ns) in spans.iter().zip(selfs) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += ns,
            None => out.push((s.name, ns)),
        }
    }
    out.into_iter()
        .map(|(n, ns)| (n, ns as f64 / root_ns.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, seq: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            seq,
        }
    }

    /// Two requests through three layers, with the lower layers replayed
    /// after their parents (not nested in time), as the layer replay
    /// records them.
    fn synthetic_tree() -> Vec<Span> {
        vec![
            span("server.tcp", 0, 1_000, None, 7),
            span("pool.ticket", 1_100, 1_700, Some(0), 7),
            span("lac.kem", 1_800, 2_300, Some(1), 7),
            span("server.tcp", 3_000, 5_000, None, 8),
            span("pool.ticket", 5_100, 6_600, Some(3), 8),
            span("lac.kem", 6_700, 7_900, Some(4), 8),
        ]
    }

    #[test]
    fn self_time_is_span_minus_next_layer_for_the_same_seq() {
        let spans = synthetic_tree();
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![400, 100, 500, 500, 300, 1_200]);
        assert_eq!(self_us_of(&spans, &selfs, "pool.ticket"), vec![0.1, 0.3]);
    }

    #[test]
    fn nested_children_and_saturation() {
        // A root with two nested children covering 70% of it, and a child
        // longer than its parent (clock skew) saturating at zero.
        let spans = vec![
            span("iss.op", 0, 1_000, None, 1),
            span("rv32.run.ref", 100, 600, Some(0), 1),
            span("rv32.run.opt", 650, 850, Some(0), 1),
            span("outer", 0, 10, None, 2),
            span("inner", 0, 20, Some(3), 2),
        ];
        assert_eq!(self_times(&spans), vec![300, 500, 200, 0, 20]);
    }

    #[test]
    fn shares_of_a_tree_sum_to_one() {
        let spans = synthetic_tree();
        let selfs = self_times(&spans);
        let shares = layer_shares(&spans, &selfs);
        let names: Vec<_> = shares.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["server.tcp", "pool.ticket", "lac.kem"]);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // lac.kem self = 500 + 1200 of 3000 root ns.
        assert!((shares[2].1 - 1_700.0 / 3_000.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.record("a", origin, origin, None, 1);
        a.record("b", origin, origin, Some(root), 1);
        let mut b = Tracer::new(origin);
        let root = b.record("a", origin, origin, None, 2);
        b.record("b", origin, origin, Some(root), 2);
        a.absorb(b);
        let parents: Vec<_> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
    }
}
