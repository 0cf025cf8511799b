//! Order statistics over timing samples: nearest-rank percentiles, the
//! median, the extremes, and the tail rule every printed latency
//! follows — the highest percentile that still has at least
//! [`TAIL_BEYOND`] samples beyond it, printed together with the sample
//! count.

/// Tail levels tried, highest first, in per-mille (p99.9, p99, …, p50).
const TAIL_LEVELS_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// A tail percentile is reported only with at least this many samples
/// strictly beyond its rank.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of the `permille`-th percentile among `n`
/// samples: the smallest rank with at least `permille/1000 · n` samples
/// at or below it. Integer arithmetic, so p99 of 1,000 samples is rank
/// 990 exactly.
fn rank(n: usize, permille: u64) -> usize {
    let n = n as u64;
    (permille * n).div_ceil(1000).clamp(1, n.max(1)) as usize
}

/// The highest tail level (per-mille) with at least [`TAIL_BEYOND`]
/// samples beyond its rank, or `None` when `n` is too small for any.
pub fn tail_level(n: usize) -> Option<u64> {
    TAIL_LEVELS_PERMILLE
        .iter()
        .copied()
        .find(|&level| n.saturating_sub(rank(n, level)) >= TAIL_BEYOND)
}

/// A percentile together with the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Level in per-mille (500 = median, 990 = p99).
    pub permille: u64,
    /// The sample at that rank.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

impl Quantile {
    /// `p50`, `p99`, `p99.9`, …
    pub fn label(&self) -> String {
        if self.permille.is_multiple_of(10) {
            format!("p{}", self.permille / 10)
        } else {
            format!("p{}.{}", self.permille / 10, self.permille % 10)
        }
    }
}

/// Timing samples (any unit; nothing here assumes one).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Moves every sample of `other` into `self`.
    pub fn append(&mut self, other: &mut Samples) {
        self.values.append(&mut other.values);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile at `permille`/1000, `None` when empty.
    pub fn percentile(&self, permille: u64) -> Option<Quantile> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let value = *sorted.get(rank(sorted.len(), permille).checked_sub(1)?)?;
        Some(Quantile {
            permille,
            value,
            n: sorted.len(),
        })
    }

    /// The smallest sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().min_by(f64::total_cmp)
    }

    /// The largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().max_by(f64::total_cmp)
    }

    /// The median, `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.percentile(500).map(|q| q.value)
    }

    /// The highest percentile with at least [`TAIL_BEYOND`] samples
    /// beyond it, `None` when there are too few samples for any.
    pub fn tail(&self) -> Option<Quantile> {
        self.percentile(tail_level(self.len())?)
    }
}

/// Throughput over consecutive groups of `group` completions (instants
/// in seconds, any order): `group / (time the group took)` for each
/// group. Empty with fewer than `group + 1` completions.
pub fn group_rates(done: &[f64], group: usize) -> Samples {
    let group = group.max(1);
    let mut sorted = done.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut rates = Samples::default();
    for w in sorted.windows(group + 1).step_by(group) {
        let span = w[group] - w[0];
        if span > 0.0 {
            rates.push(group as f64 / span);
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        let mut s = Samples::default();
        // Pushed in reverse so the percentile code must sort.
        for v in (1..=n).rev() {
            s.push(v as f64);
        }
        s
    }

    #[test]
    fn group_rates_shrug_off_a_short_stall() {
        // 10 completions per second, with one 5 s stall in the middle.
        let mut done = Vec::new();
        let mut t = 0.0;
        for i in 0..300 {
            t += if i == 150 { 5.0 } else { 0.1 };
            done.push(t);
        }
        let rates = group_rates(&done, 10);
        assert_eq!(rates.len(), 29);
        for rate in [rates.median().unwrap(), rates.max().unwrap()] {
            assert!((rate - 10.0).abs() < 1e-6, "{rate}");
        }
        assert!(rates.min().unwrap() < 2.0);
        assert_eq!(group_rates(&done[..10], 10).len(), 0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(10_000), Some(999));
        assert_eq!(tail_level(1_000), Some(990));
        // One sample short of p99: rank 990 of 999 leaves only 9 beyond.
        assert_eq!(tail_level(999), Some(950));
        assert_eq!(tail_level(200), Some(950));
        assert_eq!(tail_level(20), Some(500));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(0), None);
    }

    #[test]
    fn percentile_is_nearest_rank_with_its_count() {
        let s = ramp(1_000);
        let p99 = s.percentile(990).unwrap();
        assert_eq!((p99.value, p99.n), (990.0, 1_000));
        assert_eq!(s.median(), Some(500.0));
        assert_eq!(s.percentile(1_000).unwrap().value, 1_000.0);
        assert_eq!(ramp(3).median(), Some(2.0));
        assert_eq!(ramp(4).median(), Some(2.0));
        assert_eq!(ramp(4).min(), Some(1.0));
        assert_eq!(ramp(4).max(), Some(4.0));
        assert_eq!(Samples::default().median(), None);
        assert_eq!(Samples::default().min(), None);
        assert_eq!(Samples::default().max(), None);
    }

    #[test]
    fn tail_reports_level_value_and_count_together() {
        let t = ramp(1_000).tail().unwrap();
        assert_eq!((t.permille, t.value, t.n), (990, 990.0, 1_000));
        assert_eq!(t.label(), "p99");
        let t = ramp(50).tail().unwrap();
        assert_eq!((t.label(), t.value, t.n), ("p75".to_owned(), 38.0, 50));
        assert_eq!(ramp(12_000).tail().unwrap().label(), "p99.9");
        assert!(ramp(15).tail().is_none());
    }

    #[test]
    fn append_moves_every_sample() {
        let mut a = ramp(2);
        let mut b = ramp(4);
        a.append(&mut b);
        assert_eq!(a.len(), 6);
        assert_eq!(b.len(), 0);
        assert_eq!(a.median(), Some(2.0));
    }
}
