//! Attainment progress `φ`, attainment rate `ψ`, and workload objectives
//! (paper §III-D).
//!
//! At each epoch `t`, `φ_i^t` denotes job `j_i`'s progress toward its
//! completion criterion; `A_t = n − |W|` counts jobs that have reached their
//! criteria and `ψ_t = A_t / n` is the workload attainment rate. Rotary
//! maximises a utility constrained by **fairness** (maximise `min φ_i`) or
//! **efficiency** (maximise `ψ` by favouring jobs that can attain soonest).

use crate::job::JobState;

/// A clamped attainment-progress value in `[0, 1]`.
///
/// Estimated progress can mathematically exceed 1 (e.g. the ratio
/// `current epoch / estimated epochs` when the estimate was low) or be
/// negative (regression artifacts); `Progress` normalises every producer to
/// the unit interval so policies can compare values safely.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Progress(f64);

impl Progress {
    /// Builds a progress value, clamping to `[0, 1]` and mapping NaN to 0.
    pub fn new(value: f64) -> Progress {
        if value.is_nan() {
            Progress(0.0)
        } else {
            Progress(value.clamp(0.0, 1.0))
        }
    }

    /// The raw value in `[0, 1]`.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

/// The optimisation objective guiding a policy (paper §III-D "Objective").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Maximise `min φ_i`: keep allocating to the lowest-progress job.
    Fairness,
    /// Maximise `ψ`: keep selecting jobs that can attain soonest.
    Efficiency,
    /// The threshold-T blend of Algorithm 3: fairness until every job has
    /// reached progress `T` (or converged), then efficiency.
    /// `T = 0` degenerates to pure efficiency, `T = 1` to pure fairness.
    Threshold(f64),
}

impl Objective {
    /// The threshold `T ∈ [0, 1]` this objective corresponds to.
    pub fn threshold(self) -> f64 {
        match self {
            Objective::Efficiency => 0.0,
            Objective::Fairness => 1.0,
            Objective::Threshold(t) => t.clamp(0.0, 1.0),
        }
    }
}

/// Attainment rate `ψ = A / n` over a set of jobs. Empty workloads have
/// `ψ = 0` by convention.
///
/// Only genuinely attained jobs count: false attainment (Fig. 7a) is a
/// mistake the paper tallies separately, not a success.
pub fn attainment_rate(jobs: &[JobState]) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    let attained = jobs.iter().filter(|j| j.status == crate::job::JobStatus::Attained).count();
    attained as f64 / jobs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{CompletionCriterion, Deadline, Metric};
    use crate::job::{JobId, JobKind, JobStatus};
    use crate::time::SimTime;

    fn job(id: u64) -> JobState {
        JobState::new(
            JobId(id),
            JobKind::Dlt,
            CompletionCriterion::Accuracy {
                metric: Metric::Accuracy,
                threshold: 0.9,
                deadline: Deadline::Epochs(30),
            },
            SimTime::ZERO,
        )
    }

    #[test]
    fn progress_clamps() {
        assert_eq!(Progress::new(-0.5).value(), 0.0);
        assert_eq!(Progress::new(1.5).value(), 1.0);
        assert_eq!(Progress::new(f64::NAN).value(), 0.0);
        assert_eq!(Progress::new(0.42).value(), 0.42);
        assert_eq!(Progress::new(1.0).value(), 1.0);
        assert_eq!(Progress::new(0.999).value(), 0.999);
        assert_eq!(Progress::new(f64::NEG_INFINITY).value(), 0.0);
    }

    #[test]
    fn progress_displays_as_a_percentage() {
        // Paper's example: 5 of 15 epochs = 33.3%.
        assert_eq!(Progress::new(5.0 / 15.0).to_string(), "33.3%");
        assert_eq!(Progress::new(1.0).to_string(), "100.0%");
    }

    #[test]
    fn objective_thresholds_match_paper() {
        assert_eq!(Objective::Efficiency.threshold(), 0.0);
        assert_eq!(Objective::Fairness.threshold(), 1.0);
        assert_eq!(Objective::Threshold(0.5).threshold(), 0.5);
        assert_eq!(Objective::Threshold(7.0).threshold(), 1.0);
    }

    #[test]
    fn attainment_rate_counts_only_true_attainment() {
        let mut jobs = vec![job(0), job(1), job(2), job(3)];
        jobs[0].finish(JobStatus::Attained, SimTime::from_secs(1));
        jobs[1].finish(JobStatus::FalselyAttained, SimTime::from_secs(2));
        jobs[2].finish(JobStatus::DeadlineMissed, SimTime::from_secs(3));
        assert_eq!(attainment_rate(&jobs), 0.25);
        assert_eq!(attainment_rate(&[]), 0.0);
    }
}
