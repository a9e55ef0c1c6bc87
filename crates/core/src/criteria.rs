//! User-defined completion criteria (paper §III-B).
//!
//! Rotary attaches a *completion criterion* to every progressive iterative
//! analytic job. The paper defines three templates (Fig. 3):
//!
//! * **accuracy-oriented** — `<metric> MIN <threshold> WITHIN <deadline>`:
//!   the job completes once the metric reaches the threshold; it is
//!   terminated (unattained) at the deadline;
//! * **convergence-oriented** — `<metric> DELTA <delta> WITHIN <deadline>`:
//!   the job completes once the metric's epoch-over-epoch improvement falls
//!   below `delta`; terminated at the deadline if it never converges;
//! * **runtime-oriented** — `FOR <runtime>`: run for a fixed number of
//!   epochs or a fixed virtual time and return whatever has been computed.
//!
//! Deadlines and runtimes can be expressed in *epochs* or in *time units*
//! (seconds / minutes / hours of virtual time).
//!
//! Every criterion obeys one value rule, whatever its source — the surface
//! syntax ([`crate::parser`]) or a structural wire payload:
//! [`CompletionCriterion::validate`].

use crate::job::IntermediateState;
use crate::time::SimTime;
use std::fmt;

/// The convergence metric a criterion is defined over.
///
/// The paper's examples use training/aggregation accuracy (`ACC`) but allow
/// "other user-defined metrics, such as F1 score and Perplexity".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Accuracy in `[0, 1]`; higher is better.
    Accuracy,
    /// Training/validation loss; lower is better.
    Loss,
    /// F1 score in `[0, 1]`; higher is better.
    F1,
    /// Language-model perplexity; lower is better.
    Perplexity,
    /// Any other user-defined metric name; assumed higher-is-better.
    Custom(String),
}

impl Metric {
    /// Whether larger metric values mean better results.
    pub fn higher_is_better(&self) -> bool {
        !matches!(self, Metric::Loss | Metric::Perplexity)
    }

    /// The DSL keyword for this metric.
    pub fn keyword(&self) -> &str {
        match self {
            Metric::Accuracy => "ACC",
            Metric::Loss => "LOSS",
            Metric::F1 => "F1",
            Metric::Perplexity => "PERPLEXITY",
            Metric::Custom(name) => name,
        }
    }

    /// Parses a DSL keyword (case-insensitive). Unknown names become
    /// [`Metric::Custom`].
    pub fn from_keyword(word: &str) -> Metric {
        match word.to_ascii_uppercase().as_str() {
            "ACC" | "ACCURACY" => Metric::Accuracy,
            "LOSS" => Metric::Loss,
            "F1" => Metric::F1,
            "PERPLEXITY" | "PPL" => Metric::Perplexity,
            _ => Metric::Custom(word.to_ascii_uppercase()),
        }
    }

    /// The value rule for a threshold or delta over this metric: finite and
    /// non-negative, and at most 1 for the ratio metrics ACC and F1.
    pub fn check_value(&self, value: f64) -> Result<(), &'static str> {
        if !value.is_finite() || value < 0.0 {
            return Err("threshold must be a finite non-negative number");
        }
        if matches!(self, Metric::Accuracy | Metric::F1) && value > 1.0 {
            return Err("accuracy/F1 thresholds must be ≤ 1 (use a percentage like 95%)");
        }
        Ok(())
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A deadline: either a number of epochs or a span of virtual time
/// (paper: "The deadline could be expressed in epochs or time units").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Deadline {
    /// At most this many epochs.
    Epochs(u64),
    /// At most this much virtual time since the job was submitted.
    Time(SimTime),
}

impl Deadline {
    /// True if a job at `epoch` / elapsed `time` has passed this deadline.
    pub fn is_past(&self, epoch: u64, elapsed: SimTime) -> bool {
        match *self {
            Deadline::Epochs(e) => epoch >= e,
            Deadline::Time(t) => elapsed >= t,
        }
    }

    /// The deadline expressed as epochs, if it is epoch-based.
    pub fn epochs(&self) -> Option<u64> {
        match *self {
            Deadline::Epochs(e) => Some(e),
            Deadline::Time(_) => None,
        }
    }

    /// The deadline expressed as time, if it is time-based.
    pub fn time(&self) -> Option<SimTime> {
        match *self {
            Deadline::Time(t) => Some(t),
            Deadline::Epochs(_) => None,
        }
    }

    /// The value rule for a deadline: positive, i.e. at least one epoch or
    /// at least one millisecond.
    pub fn check(&self) -> Result<(), &'static str> {
        match *self {
            Deadline::Epochs(0) => Err("deadline must be positive"),
            Deadline::Time(t) if t.is_zero() => Err("deadline must be positive"),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for Deadline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Deadline::Epochs(e) => write!(f, "{e} EPOCHS"),
            Deadline::Time(t) => {
                let ms = t.as_millis();
                if ms % 3_600_000 == 0 && ms > 0 {
                    write!(f, "{} HOURS", ms / 3_600_000)
                } else if ms % 60_000 == 0 && ms > 0 {
                    write!(f, "{} MINUTES", ms / 60_000)
                } else {
                    write!(f, "{} SECONDS", ms / 1000)
                }
            }
        }
    }
}

/// A user-defined completion criterion (paper Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub enum CompletionCriterion {
    /// `<metric> MIN <threshold> WITHIN <deadline>`.
    Accuracy {
        /// Metric the threshold applies to.
        metric: Metric,
        /// Target value; e.g. `0.95` for `ACC MIN 95%`. For lower-is-better
        /// metrics this is a *maximum* — the job completes once the metric
        /// drops to or below the threshold.
        threshold: f64,
        /// Hard stop: the job is dequeued unattained once past this.
        deadline: Deadline,
    },
    /// `<metric> DELTA <delta> WITHIN <deadline>`.
    Convergence {
        /// Metric whose epoch-over-epoch change is monitored.
        metric: Metric,
        /// The job is complete once `|metric_t − metric_{t−1}| ≤ delta`.
        delta: f64,
        /// Hard stop if convergence never happens.
        deadline: Deadline,
    },
    /// `FOR <runtime>` — run for a fixed budget, no quality target.
    Runtime {
        /// The fixed budget, in epochs or virtual time.
        runtime: Deadline,
    },
}

/// The verdict of checking a criterion against a job's latest state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CriterionCheck {
    /// Keep running: neither attained nor out of budget.
    Continue,
    /// The criterion's goal has been met (counts toward the attainment
    /// rate ψ). For runtime criteria, finishing the budget *is* the goal.
    Attained,
    /// The deadline passed without the goal being met.
    DeadlineMissed,
}

impl CompletionCriterion {
    /// Evaluates the criterion against the two most recent intermediate
    /// states of a job. `prev` is `None` on the first epoch.
    ///
    /// `elapsed` is virtual time since the job was *submitted* (waiting time
    /// counts against the deadline, exactly as in the paper's evaluation
    /// where deferred jobs can miss deadlines while queued).
    pub fn check(
        &self,
        current: &IntermediateState,
        prev: Option<&IntermediateState>,
        elapsed: SimTime,
    ) -> CriterionCheck {
        match self {
            CompletionCriterion::Accuracy { metric, threshold, deadline } => {
                let hit = if metric.higher_is_better() {
                    current.metric_value >= *threshold
                } else {
                    current.metric_value <= *threshold
                };
                if hit {
                    CriterionCheck::Attained
                } else if deadline.is_past(current.epoch, elapsed) {
                    CriterionCheck::DeadlineMissed
                } else {
                    CriterionCheck::Continue
                }
            }
            CompletionCriterion::Convergence { delta, deadline, .. } => {
                let converged = prev
                    .map(|p| (current.metric_value - p.metric_value).abs() <= *delta)
                    .unwrap_or(false);
                if converged {
                    CriterionCheck::Attained
                } else if deadline.is_past(current.epoch, elapsed) {
                    CriterionCheck::DeadlineMissed
                } else {
                    CriterionCheck::Continue
                }
            }
            CompletionCriterion::Runtime { runtime } => {
                if runtime.is_past(current.epoch, elapsed) {
                    CriterionCheck::Attained
                } else {
                    CriterionCheck::Continue
                }
            }
        }
    }

    /// Checks the criterion against the value rule: its threshold or delta
    /// by [`Metric::check_value`], its deadline by [`Deadline::check`].
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            CompletionCriterion::Accuracy { metric, threshold: value, deadline }
            | CompletionCriterion::Convergence { metric, delta: value, deadline } => {
                metric.check_value(*value)?;
                deadline.check()
            }
            CompletionCriterion::Runtime { runtime } => runtime.check(),
        }
    }

    /// The criterion's deadline (for runtime criteria, the budget itself).
    pub fn deadline(&self) -> Deadline {
        match self {
            CompletionCriterion::Accuracy { deadline, .. }
            | CompletionCriterion::Convergence { deadline, .. } => *deadline,
            CompletionCriterion::Runtime { runtime } => *runtime,
        }
    }

    /// The metric this criterion observes, if any.
    pub fn metric(&self) -> Option<&Metric> {
        match self {
            CompletionCriterion::Accuracy { metric, .. }
            | CompletionCriterion::Convergence { metric, .. } => Some(metric),
            CompletionCriterion::Runtime { .. } => None,
        }
    }

    /// Short tag used in workload summaries: `acc` / `conv` / `runtime`.
    pub fn kind_tag(&self) -> &'static str {
        match self {
            CompletionCriterion::Accuracy { .. } => "acc",
            CompletionCriterion::Convergence { .. } => "conv",
            CompletionCriterion::Runtime { .. } => "runtime",
        }
    }
}

impl fmt::Display for CompletionCriterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompletionCriterion::Accuracy { metric, threshold, deadline } => {
                // Thresholds in [0,1] for ratio metrics print as percentages,
                // matching the paper's examples (`ACC MIN 95%`).
                if matches!(metric, Metric::Accuracy | Metric::F1) {
                    write!(f, "{metric} MIN {}% WITHIN {deadline}", threshold * 100.0)
                } else {
                    write!(f, "{metric} MIN {threshold} WITHIN {deadline}")
                }
            }
            CompletionCriterion::Convergence { metric, delta, deadline } => {
                write!(f, "{metric} DELTA {delta} WITHIN {deadline}")
            }
            CompletionCriterion::Runtime { runtime } => write!(f, "FOR {runtime}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(epoch: u64, v: f64) -> IntermediateState {
        IntermediateState {
            epoch,
            at: SimTime::from_secs(epoch * 10),
            metric_value: v,
            progress: 0.0,
        }
    }

    #[test]
    fn accuracy_criterion_attains_at_threshold() {
        let c = CompletionCriterion::Accuracy {
            metric: Metric::Accuracy,
            threshold: 0.9,
            deadline: Deadline::Time(SimTime::from_secs(3600)),
        };
        assert_eq!(c.check(&state(1, 0.5), None, SimTime::from_secs(10)), CriterionCheck::Continue);
        assert_eq!(c.check(&state(2, 0.9), None, SimTime::from_secs(20)), CriterionCheck::Attained);
        assert_eq!(
            c.check(&state(3, 0.95), None, SimTime::from_secs(30)),
            CriterionCheck::Attained
        );
    }

    #[test]
    fn accuracy_criterion_misses_deadline() {
        let c = CompletionCriterion::Accuracy {
            metric: Metric::Accuracy,
            threshold: 0.9,
            deadline: Deadline::Time(SimTime::from_secs(100)),
        };
        assert_eq!(
            c.check(&state(5, 0.7), None, SimTime::from_secs(100)),
            CriterionCheck::DeadlineMissed
        );
    }

    #[test]
    fn loss_threshold_is_a_maximum() {
        let c = CompletionCriterion::Accuracy {
            metric: Metric::Loss,
            threshold: 0.1,
            deadline: Deadline::Epochs(100),
        };
        assert_eq!(c.check(&state(1, 0.5), None, SimTime::ZERO), CriterionCheck::Continue);
        assert_eq!(c.check(&state(2, 0.05), None, SimTime::ZERO), CriterionCheck::Attained);
    }

    #[test]
    fn convergence_needs_two_states() {
        let c = CompletionCriterion::Convergence {
            metric: Metric::Accuracy,
            delta: 0.01,
            deadline: Deadline::Epochs(30),
        };
        // First epoch: no previous state, cannot be converged.
        assert_eq!(c.check(&state(1, 0.5), None, SimTime::ZERO), CriterionCheck::Continue);
        // Big jump: still improving.
        assert_eq!(
            c.check(&state(2, 0.8), Some(&state(1, 0.5)), SimTime::ZERO),
            CriterionCheck::Continue
        );
        // Tiny delta: converged.
        assert_eq!(
            c.check(&state(3, 0.805), Some(&state(2, 0.8)), SimTime::ZERO),
            CriterionCheck::Attained
        );
    }

    #[test]
    fn convergence_deadline_in_epochs() {
        let c = CompletionCriterion::Convergence {
            metric: Metric::Accuracy,
            delta: 0.0001,
            deadline: Deadline::Epochs(5),
        };
        assert_eq!(
            c.check(&state(5, 0.9), Some(&state(4, 0.5)), SimTime::ZERO),
            CriterionCheck::DeadlineMissed
        );
    }

    #[test]
    fn runtime_criterion_attains_on_budget_exhaustion() {
        let c = CompletionCriterion::Runtime { runtime: Deadline::Epochs(15) };
        assert_eq!(c.check(&state(14, 0.1), None, SimTime::ZERO), CriterionCheck::Continue);
        assert_eq!(c.check(&state(15, 0.1), None, SimTime::ZERO), CriterionCheck::Attained);

        let c = CompletionCriterion::Runtime { runtime: Deadline::Time(SimTime::from_hours(2)) };
        assert_eq!(c.check(&state(3, 0.1), None, SimTime::from_hours(1)), CriterionCheck::Continue);
        assert_eq!(c.check(&state(9, 0.1), None, SimTime::from_hours(2)), CriterionCheck::Attained);
    }

    #[test]
    fn display_matches_paper_examples() {
        let c = CompletionCriterion::Accuracy {
            metric: Metric::Accuracy,
            threshold: 0.95,
            deadline: Deadline::Time(SimTime::from_secs(3600)),
        };
        assert_eq!(c.to_string(), "ACC MIN 95% WITHIN 1 HOURS");

        let c = CompletionCriterion::Convergence {
            metric: Metric::Accuracy,
            delta: 0.001,
            deadline: Deadline::Epochs(30),
        };
        assert_eq!(c.to_string(), "ACC DELTA 0.001 WITHIN 30 EPOCHS");

        let c = CompletionCriterion::Runtime { runtime: Deadline::Time(SimTime::from_hours(2)) };
        assert_eq!(c.to_string(), "FOR 2 HOURS");
    }

    #[test]
    fn metric_keywords_round_trip() {
        for m in [Metric::Accuracy, Metric::Loss, Metric::F1, Metric::Perplexity] {
            assert_eq!(Metric::from_keyword(m.keyword()), m);
        }
        assert_eq!(Metric::from_keyword("bleu"), Metric::Custom("BLEU".into()));
    }

    #[test]
    fn deadline_predicates() {
        let d = Deadline::Epochs(10);
        assert!(!d.is_past(9, SimTime::MAX));
        assert!(d.is_past(10, SimTime::ZERO));
        assert_eq!(d.epochs(), Some(10));
        assert_eq!(d.time(), None);

        let d = Deadline::Time(SimTime::from_secs(60));
        assert!(!d.is_past(u64::MAX, SimTime::from_secs(59)));
        assert!(d.is_past(0, SimTime::from_secs(60)));
        assert_eq!(d.time(), Some(SimTime::from_secs(60)));
    }
}
