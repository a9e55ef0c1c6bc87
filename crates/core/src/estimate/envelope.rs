//! Non-parametric envelope convergence detector (paper §IV-A).
//!
//! Rotary-AQP "keeps tracking the least and largest aggregation results
//! within a time window (e.g., t epochs) and uses this gap to determine
//! convergence". With `p` the least and `q` the largest aggregate in the
//! window, the accuracy progress is approximated by `p/q`; the gap shrinks as
//! the aggregate converges; the AQP system declares a job attained once the
//! window is full and `p/q` clears the job's accuracy threshold.
//!
//! The detector *can make mistakes* — a temporarily flat aggregate (e.g. a
//! run of batches that barely touch the query's selective predicate) looks
//! converged even though later batches would still move the result. The
//! paper measures exactly these mistakes as **false attainment** (Fig. 7a)
//! and notes they can be mitigated by lengthening the window.

use std::collections::VecDeque;

/// Sliding-window min/max envelope over a stream of aggregation results.
#[derive(Debug, Clone)]
pub struct EnvelopeDetector {
    window: usize,
    values: VecDeque<f64>,
}

impl EnvelopeDetector {
    /// Creates a detector over a window of `window` epochs.
    ///
    /// # Panics
    /// Panics if `window == 0`; that is a static configuration error, not a
    /// runtime condition.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "envelope window must be positive");
        EnvelopeDetector { window, values: VecDeque::with_capacity(window + 1) }
    }

    /// Records the aggregate observed at the end of an epoch.
    /// Non-finite values are ignored (a failed batch produces no evidence).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.values.push_back(value);
        while self.values.len() > self.window {
            self.values.pop_front();
        }
    }

    /// The least aggregate `p` currently in the window.
    pub fn least(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    /// The largest aggregate `q` currently in the window.
    pub fn largest(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Envelope progress `p/q ∈ [0, 1]`, the paper's approximate estimate of
    /// aggregation accuracy. `None` until at least one observation exists;
    /// a window straddling zero or of mixed sign yields 0 (no convergence
    /// evidence).
    pub fn progress(&self) -> Option<f64> {
        let p = self.least()?;
        let q = self.largest()?;
        if q == 0.0 && p == 0.0 {
            // Aggregate is identically zero: fully converged.
            return Some(1.0);
        }
        if p.signum() != q.signum() {
            return Some(0.0);
        }
        // For negative aggregates (-5 .. -4), p/q > 1; use |smaller|/|larger|.
        let (lo, hi) = (p.abs().min(q.abs()), p.abs().max(q.abs()));
        if hi == 0.0 {
            Some(1.0)
        } else {
            Some((lo / hi).clamp(0.0, 1.0))
        }
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observation has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The configured window length in epochs.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The observations currently in the window, oldest first. Captured by
    /// durable snapshots; re-observing these into a fresh detector of the
    /// same window reproduces the state exactly.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter().copied()
    }

    /// Clears all observations (used when a checkpointed job resumes with a
    /// fresh sampling order).
    pub fn reset(&mut self) {
        self.values.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The AQP system's declaration condition at a 99% threshold: a full
    /// window whose envelope progress clears it.
    fn declares_99(d: &EnvelopeDetector) -> bool {
        d.len() >= d.window() && d.progress().is_some_and(|p| p >= 0.99)
    }

    #[test]
    fn empty_detector_reports_nothing() {
        let d = EnvelopeDetector::new(3);
        assert!(d.is_empty());
        assert_eq!(d.progress(), None);
        assert!(!declares_99(&d));
    }

    #[test]
    fn window_slides() {
        let mut d = EnvelopeDetector::new(3);
        for v in [10.0, 20.0, 30.0, 40.0] {
            d.observe(v);
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.least(), Some(20.0));
        assert_eq!(d.largest(), Some(40.0));
        assert_eq!(d.values().collect::<Vec<_>>(), [20.0, 30.0, 40.0]);
    }

    #[test]
    fn progress_is_p_over_q() {
        let mut d = EnvelopeDetector::new(4);
        d.observe(90.0);
        d.observe(100.0);
        assert!((d.progress().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn progress_rises_as_gap_shrinks() {
        let mut d = EnvelopeDetector::new(3);
        d.observe(50.0);
        d.observe(80.0);
        d.observe(100.0);
        assert_eq!(d.progress(), Some(0.5));
        assert!(!declares_99(&d));
        // The aggregate settles near 100.
        for v in [99.5, 99.8, 100.0] {
            d.observe(v);
        }
        assert_eq!(d.progress(), Some(0.995));
        assert!(declares_99(&d));
    }

    #[test]
    fn partial_window_is_not_full() {
        let mut d = EnvelopeDetector::new(5);
        d.observe(100.0);
        d.observe(100.0);
        // Gap is zero but the window is not full yet.
        assert_eq!(d.progress(), Some(1.0));
        assert!(d.len() < d.window());
        assert!(!declares_99(&d));
    }

    #[test]
    fn false_attainment_scenario() {
        // A flat stretch inside a short window looks converged even though
        // the true aggregate later moves: the paper's Fig. 7a mistake.
        let mut short = EnvelopeDetector::new(2);
        short.observe(50.0);
        short.observe(50.1);
        assert!(declares_99(&short), "short window is fooled by a plateau");

        // A longer window sees the earlier variation and is not fooled —
        // "this issue can be mitigated by lengthening the time window".
        let mut long = EnvelopeDetector::new(4);
        long.observe(30.0);
        long.observe(42.0);
        long.observe(50.0);
        long.observe(50.1);
        assert!(!declares_99(&long));
    }

    #[test]
    fn negative_aggregates_are_handled() {
        let mut d = EnvelopeDetector::new(2);
        d.observe(-100.0);
        d.observe(-98.0);
        let p = d.progress().unwrap();
        assert!((p - 0.98).abs() < 1e-12);
    }

    #[test]
    fn mixed_sign_window_is_zero_progress() {
        let mut d = EnvelopeDetector::new(2);
        d.observe(-10.0);
        d.observe(10.0);
        assert_eq!(d.progress(), Some(0.0));
    }

    #[test]
    fn zero_aggregate_is_full_progress() {
        let mut d = EnvelopeDetector::new(2);
        d.observe(0.0);
        d.observe(0.0);
        assert_eq!(d.progress(), Some(1.0));
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut d = EnvelopeDetector::new(3);
        d.observe(f64::NAN);
        d.observe(f64::INFINITY);
        assert!(d.is_empty());
        d.observe(5.0);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = EnvelopeDetector::new(2);
        d.observe(1.0);
        d.observe(1.0);
        assert!(declares_99(&d));
        d.reset();
        assert!(d.is_empty());
        assert_eq!(d.progress(), None);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = EnvelopeDetector::new(0);
    }
}
