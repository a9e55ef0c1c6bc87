//! Order statistics for trial samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the arithmetic the
//! benchmark contract uses to judge run-to-run spread: computing the same
//! numbers here means the A/A mode predicts the driver's verdict.

/// Five-number summary of a sample, plus its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median (0 when the median
    /// is 0, so an all-zero sample reads as perfectly steady).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample; `None` when it is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `(q1, q3)` by the exclusive method on an ascending slice. A single
/// value is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| -> f64 {
        // statistics.quantiles: j = i*(m+1)//n clamped to [1, m-1],
        // delta = i*(m+1) - j*n, interpolate between v[j-1] and v[j].
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Summary of a sample; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let median = median(&v)?;
    let (q1, q3) = quartiles_sorted(&v);
    Some(Summary { n: v.len(), min: v[0], q1, median, q3, max: v[v.len() - 1] })
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 2.0, 2));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.iqr_share(), (12.0 - 1.5) / 4.0);
        assert_eq!(summarize(&[0.0, 0.0]).unwrap().iqr_share(), 0.0);
        let one = summarize(&[7.0]).unwrap();
        assert_eq!((one.q1, one.q3, one.iqr_share()), (7.0, 7.0, 0.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[9], 0.99), 9);
    }
}
