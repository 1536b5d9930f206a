//! Order statistics and failure accounting for the benchmark's reports.
//!
//! A failed or refused request has no latency of its own; it is recorded
//! as `None` and counts as slower than any limit, so it lands at the top
//! of every percentile instead of silently shrinking the sample.

/// Median of `xs` (mean of the middle two for an even count); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method), so
/// spreads computed here match the ones computed by external tooling.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile with at least ten of `n` samples beyond it,
/// or `None` when even the median has fewer than ten above it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of latency samples, where `None` (a failed or
/// refused request) ranks above every measured value and reads as
/// `+inf`. `NaN` when there are no samples.
pub fn percentile(samples: &[Option<f64>], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Attempted and failed operations (stages, requests, checks) of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were skipped, or were refused.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts every latency sample: `None` is a failure.
    pub fn record_samples(&mut self, samples: &[Option<f64>]) {
        for s in samples {
            self.record(s.is_some());
        }
    }

    /// Share of attempts that succeeded (1 when nothing was attempted).
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<Option<f64>> = (1..=100).map(|i| Some(f64::from(i))).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s[..1], 99.0), 1.0);
    }

    #[test]
    fn refused_request_misses_every_latency_limit() {
        let mut s: Vec<Option<f64>> = (1..=99).map(|i| Some(f64::from(i))).collect();
        s.push(None);
        assert_eq!(percentile(&s, 99.0), 99.0);
        // However loose the limit, the refusal is the one sample over it.
        assert_eq!(percentile(&s, 100.0), f64::INFINITY);
        s.push(None);
        // Two refusals in 101 attempts reach the p99 rank.
        assert_eq!(percentile(&s, 99.0), f64::INFINITY);

        let mut t = Tally::default();
        t.record_samples(&s);
        t.record(true);
        assert_eq!(t.attempted, 102);
        assert_eq!(t.failed, 2);
        assert!((t.ok_share() - 100.0 / 102.0).abs() < 1e-12);
        assert_eq!(Tally::default().ok_share(), 1.0);
    }
}
