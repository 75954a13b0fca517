//! Order statistics of pooled samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what decides whether two sets of
//! runs of this benchmark agree: the numbers printed here are the numbers
//! the acceptance rule is computed from.

/// Median, quartiles and tail of one pooled sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it, as
    /// `(percentile, value)`; `None` with fewer than twenty samples, where
    /// that percentile would lie below the median.
    pub tail: Option<(f64, f64)>,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three cut points of `statistics.quantiles(values, n=4)`. One sample
/// is its own quartiles (Python raises there; a probe may have one sample).
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let m = sorted.len();
    assert!(m >= 1, "quartiles of an empty sample set");
    if m == 1 {
        return [sorted[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Tail percentile: with `n` samples the one that has exactly ten above it
/// is the `100 * (n - 10) / n`-th percentile.
fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n >= 20).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// Summarise a non-empty sample set.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let [q1, median, q3] = quartiles(&s);
    Summary {
        n: s.len(),
        q1,
        median,
        q3,
        tail: tail(&s),
    }
}

/// Smallest sample of a non-empty set: for a time, the best of N.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of a non-empty sample set.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Linear-interpolated percentile `pct` (0..=100) of a non-empty set; used
/// for the fixed `p90` rows, where the tail rule above would pick another
/// percentile on every sample count.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let s = sorted(values);
    let pos = (pct / 100.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = summarize(&[7.25]);
        assert_eq!(
            (s.n, s.q1, s.median, s.q3, s.tail),
            (1, 7.25, 7.25, 7.25, None)
        );
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&hundred).tail, Some((90.0, 90.0)));
        let thirty: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        let (pct, value) = summarize(&thirty).tail.expect("30 samples have a tail");
        assert!((pct - 200.0 / 3.0).abs() < 1e-12);
        assert_eq!(value, 20.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&thousand).tail, Some((99.0, 990.0)));
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(summarize(&nineteen).tail, None);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[4.0, 2.5, 3.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert_eq!(percentile(&[2.0], 90.0), 2.0);
    }
}
