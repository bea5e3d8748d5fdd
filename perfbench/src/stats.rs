//! Order statistics of timing samples.

/// Median and quartiles of one metric's samples, reported next to every
/// timing so run-to-run noise shows per metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values` (any order). Quartiles use the same "exclusive"
    /// rule as Python's `statistics.quantiles(values, n=4)`.
    ///
    /// # Panics
    /// Panics on an empty sample: every timed metric has at least one.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Summary {
            n,
            q1: exclusive_quantile(&sorted, 1, 4),
            median,
            q3: exclusive_quantile(&sorted, 3, 4),
        }
    }
}

/// The `i`-th of `parts` cut points of sorted data, interpolated at
/// position `i·(n+1)/parts` (1-based), line for line as CPython computes it.
fn exclusive_quantile(sorted: &[f64], i: usize, parts: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = (n + 1) as i64;
    let (i, parts) = (i as i64, parts as i64);
    let j = (i * m / parts).clamp(1, n as i64 - 1);
    let delta = i * m - j * parts;
    let j = j as usize;
    (sorted[j - 1] * (parts - delta) as f64 + sorted[j] * delta as f64) / parts as f64
}

/// The fewest samples for which percentile `p` (in `(0, 1)`) still has at
/// least ten samples beyond it: `⌈10 / (1 − p)⌉`.
pub fn samples_for_tail(p: f64) -> usize {
    (10.0 / (1.0 - p) - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `p` of `values`, or `None` when fewer than ten
/// samples would lie beyond it (the percentile rule: a tail is reported
/// only when it is backed by at least ten samples).
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.len() < samples_for_tail(p) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.9), 100);
        assert_eq!(samples_for_tail(0.5), 20);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = tail_percentile(&values, 0.99).expect("1000 samples back a p99");
        let beyond = values.iter().filter(|&&v| v > p99).count();
        assert_eq!(beyond, 10);
        assert_eq!(tail_percentile(&values[..999], 0.99), None);
        assert_eq!(tail_percentile(&values[..99], 0.9), None);
    }
}
