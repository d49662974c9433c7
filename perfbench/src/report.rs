//! What a run prints: human-readable notes, then one JSON line.

use crate::stats::Quantile;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, BUSY, wrong outputs.
    pub failed: u64,
    /// Metrics, in insertion order.
    pub metrics: Vec<Metric>,
    /// Lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric. Panics on a non-finite value or a repeated name:
    /// both are bugs in the benchmark.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a percentile metric and note its sample count. A percentile
    /// without enough samples beyond it is a bug in the run's sizing.
    pub fn quantile(&mut self, name: &str, q: Option<Quantile>, unit: &'static str) {
        let value = self.quantile_note(name, q, unit);
        self.metric(name, value, unit);
    }

    /// Note a percentile with its sample count without recording it as a
    /// metric; returns its value.
    pub fn quantile_note(&mut self, name: &str, q: Option<Quantile>, unit: &'static str) -> f64 {
        let q = q.unwrap_or_else(|| panic!("{name}: too few samples beyond the percentile"));
        self.note(format!(
            "{name} = {:.4} {unit} (nearest rank of {} samples, {} beyond)",
            q.value, q.count, q.beyond
        ));
        q.value
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count `attempted` ops of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // `{:?}` is Rust's shortest round-trip form (`1.25`,
                // `1e-7`): every digit, and valid JSON.
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.ops(10, 0);
        r.metric("p50_ms", 1.25, "ms");
        r.metric("tiny", 1e-7, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"tiny\": {\"value\": 1e-7, \"unit\": \"s\"}}}"
        );
        r.ops(1, 1);
        assert!(!r.correct());
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn repeated_names_are_a_bug() {
        let mut r = Report::default();
        r.metric("a", 1.0, "s");
        r.metric("a", 2.0, "s");
    }
}
