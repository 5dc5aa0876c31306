//! Order statistics: nearest-rank percentiles for the samples of one run,
//! and Python-compatible quartiles (`statistics.quantiles(n=4)`, the
//! default exclusive method) for the spread across runs.

/// Percentiles a latency summary may report as its tail, highest last.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `0..=100`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    sorted[rank(p, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// slack absorbs decimal percentiles such as 99.9 that f64 cannot hold
/// exactly, which would otherwise round a whole rank up.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples above its rank, and its value — `None`
/// when even the median lacks that many.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| sorted.len().saturating_sub(rank(p, sorted.len())) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, nearest_rank(sorted, p)))
}

/// The nearest-rank 90th percentile of each full run of `per_window`
/// consecutive samples. Their median is a tail that a burst of host
/// interference confined to a few windows cannot move.
pub fn window_p90s(samples: &[f64], per_window: usize) -> Vec<f64> {
    samples
        .chunks_exact(per_window.max(1))
        .map(|window| nearest_rank(&sorted(window), 90.0))
        .collect()
}

/// Ascending copy of `values`.
///
/// # Panics
///
/// Panics if a value is NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median as Python's `statistics.median` computes it (the mean of the
/// middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` returns them; a single sample is
/// its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    assert!(!s.is_empty(), "quartiles of no samples");
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let n = 4usize;
    let m = s.len() + 1;
    let at = |i: usize| {
        let j = (i * m / n).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (at(1), at(3))
}

/// Median, quartiles and count of a set of per-run values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Python-style median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values.
    pub n: usize,
}

impl Spread {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Spread {
        let (q1, q3) = quartiles(values);
        Spread {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile distance as a share of the median — the statistic
    /// the acceptance rule compares against a metric's bound.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_follows_the_definition() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&s, 10.0), 1.0);
        assert_eq!(nearest_rank(&s, 11.0), 2.0);
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 99.0), 10.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 leaves exactly 10 beyond rank 990; p99.9 leaves one.
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.9, 9990.0)));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), Some((90.0, 90.0)));
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&s), None, "the median of 19 leaves only 9 beyond");
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s), Some((50.0, 10.0)));
    }

    #[test]
    fn window_tails_ignore_a_burst_confined_to_one_window() {
        // Four windows of 100 samples; the third holds a 50 ms stall.
        let mut samples: Vec<f64> = (0..400).map(|i| f64::from(i % 100) / 100.0).collect();
        samples[250..300].iter_mut().for_each(|v| *v = 50.0);
        let tails = window_p90s(&samples, 100);
        assert_eq!(tails, [0.89, 0.89, 50.0, 0.89]);
        assert_eq!(median(&tails), 0.89);
        assert_eq!(
            nearest_rank(&sorted(&samples), 90.0),
            50.0,
            "the plain p90 moves"
        );
        assert!(
            window_p90s(&samples[..99], 100).is_empty(),
            "partial windows are dropped"
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let spread = Spread::of(&[9.0, 10.0, 10.0, 10.0, 11.0]);
        assert_eq!(spread.median, 10.0);
        assert_eq!((spread.q1, spread.q3), (9.5, 10.5));
        assert!((spread.iqr_share() - 0.1).abs() < 1e-12);
        assert_eq!(spread.n, 5);
    }
}
