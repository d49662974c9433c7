//! Exact statistics over raw per-op samples.
//!
//! No histograms: every latency is kept, sorted once, and a percentile is
//! read off by nearest rank. A percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a tail figure always rests on
//! a handful of real observations rather than on one outlier.

/// Samples that must lie strictly beyond a percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from exact samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the percentile's nearest rank.
    pub value: f64,
    /// Samples the percentile was read from.
    pub count: usize,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `sorted`, which must be in
/// ascending order. `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond the rank.
pub fn quantile(sorted: &[f64], q: f64) -> Option<Quantile> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples not sorted"
    );
    let count = sorted.len();
    // Rank is 1-based: the smallest r with r / count >= q.
    let rank = ((q * count as f64).ceil() as usize).max(1);
    if rank > count {
        return None;
    }
    let beyond = count - rank;
    (beyond >= MIN_BEYOND).then(|| Quantile {
        value: sorted[rank - 1],
        count,
        beyond,
    })
}

/// Median of a small set of figures (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Raw samples of one quantity, in milliseconds or any other unit.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Add every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank quantile under the [`MIN_BEYOND`] rule.
    pub fn quantile(&mut self, q: f64) -> Option<Quantile> {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        quantile(&self.values, q)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_hand_made_samples() {
        let s = ramp(100);
        // Rank ceil(0.5 * 100) = 50 -> value 50, 50 samples beyond.
        let p50 = quantile(&s, 0.5).unwrap();
        assert_eq!((p50.value, p50.count, p50.beyond), (50.0, 100, 50));
        // Rank ceil(0.9 * 100) = 90 -> value 90, exactly 10 beyond.
        let p90 = quantile(&s, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        // p99 of 100 samples has only one sample beyond it: withheld.
        assert_eq!(quantile(&s, 0.99), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(quantile(&ramp(999), 0.99), None);
        let p99 = quantile(&ramp(1000), 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        let p99 = quantile(&ramp(2000), 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (1980.0, 20));
    }

    #[test]
    fn rank_rounds_up_and_ties_are_kept() {
        let mut s = vec![5.0, 1.0, 4.0, 2.0, 2.0, 9.0, 3.0];
        s.sort_by(f64::total_cmp);
        let mut many = Vec::new();
        for v in &s {
            many.extend(std::iter::repeat_n(*v, 10));
        }
        // Seventy samples, q = 0.25: rank ceil(17.5) = 18, inside the
        // first block of 2.0s (ranks 11..=30); 52 samples lie beyond.
        let q = quantile(&many, 0.25).unwrap();
        assert_eq!((q.value, q.beyond), (2.0, 52));
        // q = 0.75: rank ceil(52.5) = 53, inside the 5.0 block (51..=60).
        assert_eq!(quantile(&many, 0.75).unwrap().value, 5.0);
    }

    #[test]
    fn samples_sort_lazily_and_report_counts() {
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0].iter().cycle().take(60) {
            s.push(*v);
        }
        let p50 = s.quantile(0.5).unwrap();
        assert_eq!((p50.value, p50.count), (2.0, 60));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
