//! Job arrival processes.
//!
//! The paper's AQP workload simulates "users submitting approximate queries
//! to the shared cluster" with Poisson arrivals at a mean inter-arrival time
//! of 160 seconds (Table I); the DLT workload submits everything at once.
//! [`PoissonArrivals`] generates the former.

use crate::rng::{sample_exponential, Rng};
use rotary_core::SimTime;

/// A Poisson arrival process over virtual time.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rng: Rng,
    mean_gap: f64,
    next: f64,
}

impl PoissonArrivals {
    /// Creates a process whose inter-arrival gaps are exponential with the
    /// given mean (in virtual seconds). The first arrival is at time 0 + gap.
    pub fn new(seed: u64, mean_gap_secs: f64) -> Self {
        Self::with_rng(Rng::seed_from_u64(seed), mean_gap_secs)
    }

    /// Creates a process drawing from an existing stream — typically a named
    /// fork, e.g. `PoissonArrivals::with_rng(root.fork("arrivals"), 160.0)`.
    pub fn with_rng(rng: Rng, mean_gap_secs: f64) -> Self {
        assert!(mean_gap_secs > 0.0, "mean inter-arrival time must be positive");
        PoissonArrivals { rng, mean_gap: mean_gap_secs, next: 0.0 }
    }

    /// Draws the next arrival instant.
    pub fn next_arrival(&mut self) -> SimTime {
        self.next += sample_exponential(&mut self.rng, self.mean_gap);
        SimTime::from_secs_f64(self.next)
    }

    /// Generates arrival times for `n` jobs, non-decreasing.
    pub fn take(&mut self, n: usize) -> Vec<SimTime> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_monotone() {
        let mut p = PoissonArrivals::new(3, 160.0);
        let times = p.take(100);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times[0] > SimTime::ZERO);
    }

    #[test]
    fn mean_gap_is_approximately_160s() {
        // The paper's Table I configuration: mean arrival gap 160 seconds.
        let mut p = PoissonArrivals::new(5, 160.0);
        let times = p.take(5000);
        let total = times.last().unwrap().as_secs_f64();
        let mean_gap = total / 5000.0;
        assert!((mean_gap - 160.0).abs() < 8.0, "mean gap {mean_gap}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = PoissonArrivals::new(9, 30.0).take(50);
        let b = PoissonArrivals::new(9, 30.0).take(50);
        assert_eq!(a, b);
        let c = PoissonArrivals::new(10, 30.0).take(50);
        assert_ne!(a, c);
    }
}
