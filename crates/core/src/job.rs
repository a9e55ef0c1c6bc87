//! The job model: identities, lifecycle states, and per-epoch intermediate
//! state time series (paper §III-A and §III-D).

use crate::criteria::CompletionCriterion;
use crate::error::RotaryError;
use crate::json::{u64_json, Json};
use crate::time::SimTime;
use std::fmt;

fn time_json(t: SimTime) -> Json {
    u64_json(t.as_millis())
}

fn time_from_json(json: &Json) -> Option<SimTime> {
    json.as_u64_str().map(SimTime::from_millis)
}

/// Unique identifier for a job within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Which application family a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Approximate query processing (online aggregation).
    Aqp,
    /// Deep learning training.
    Dlt,
}

/// One element of the per-epoch intermediate state time-series
/// `{ins_(i,0), ins_(i,1), …}` each job emits (paper §III-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntermediateState {
    /// Epoch counter at which this state was observed (1-based after the
    /// first completed epoch).
    pub epoch: u64,
    /// Virtual time at which the epoch completed.
    pub at: SimTime,
    /// The convergence-metric value (accuracy, loss, …) observed.
    pub metric_value: f64,
    /// Attainment progress `φ ∈ [0, 1]` toward the completion criterion.
    pub progress: f64,
}

/// Lifecycle of a job under resource arbitration.
///
/// ```text
/// Pending ─arrival→ Active ─grant→ Running ─epoch end→ Active
///                     │                │  └─preempt→ Checkpointed ─grant→ Running
///                     │                └─crash→ Recovering ─backoff→ Checkpointed
///                     └──────────criterion met / deadline──────────┐
///                                                                  ▼
///                    Attained | FalselyAttained | DeadlineMissed | Failed
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Submitted but not yet arrived (future arrival time).
    Pending,
    /// In the active queue, waiting for resources.
    Active,
    /// Currently holding a resource and executing an epoch.
    Running,
    /// Preempted with state persisted; resuming pays a restore cost.
    Checkpointed,
    /// An epoch crashed; the job sits out its retry backoff before
    /// re-entering arbitration from its last checkpoint.
    Recovering,
    /// Completion criterion genuinely met.
    Attained,
    /// The system *declared* the job complete (e.g. the envelope function
    /// decided it converged) but ground truth disagrees — Fig. 7a.
    FalselyAttained,
    /// Deadline passed without attainment.
    DeadlineMissed,
    /// The job exhausted its epoch retries and was given up on.
    Failed,
}

impl JobStatus {
    /// Terminal statuses never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Attained
                | JobStatus::FalselyAttained
                | JobStatus::DeadlineMissed
                | JobStatus::Failed
        )
    }

    /// Statuses in which the job is eligible for resource arbitration.
    pub fn is_arbitrable(self) -> bool {
        matches!(self, JobStatus::Active | JobStatus::Checkpointed)
    }
}

impl JobKind {
    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Aqp => "aqp",
            JobKind::Dlt => "dlt",
        }
    }

    /// Inverse of [`JobKind::name`].
    pub fn from_name(name: &str) -> Option<JobKind> {
        match name {
            "aqp" => Some(JobKind::Aqp),
            "dlt" => Some(JobKind::Dlt),
            _ => None,
        }
    }
}

impl JobStatus {
    /// Stable serialization name.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Pending => "pending",
            JobStatus::Active => "active",
            JobStatus::Running => "running",
            JobStatus::Checkpointed => "checkpointed",
            JobStatus::Recovering => "recovering",
            JobStatus::Attained => "attained",
            JobStatus::FalselyAttained => "falsely-attained",
            JobStatus::DeadlineMissed => "deadline-missed",
            JobStatus::Failed => "failed",
        }
    }

    /// Inverse of [`JobStatus::name`].
    pub fn from_name(name: &str) -> Option<JobStatus> {
        match name {
            "pending" => Some(JobStatus::Pending),
            "active" => Some(JobStatus::Active),
            "running" => Some(JobStatus::Running),
            "checkpointed" => Some(JobStatus::Checkpointed),
            "recovering" => Some(JobStatus::Recovering),
            "attained" => Some(JobStatus::Attained),
            "falsely-attained" => Some(JobStatus::FalselyAttained),
            "deadline-missed" => Some(JobStatus::DeadlineMissed),
            "failed" => Some(JobStatus::Failed),
            _ => None,
        }
    }
}

impl IntermediateState {
    /// Serialises one series element for durable snapshots.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("epoch", u64_json(self.epoch)),
            ("at", time_json(self.at)),
            ("metric_value", Json::Num(self.metric_value)),
            ("progress", Json::Num(self.progress)),
        ])
    }

    /// Decodes an element written by [`IntermediateState::to_json`].
    pub fn from_json(json: &Json) -> Option<IntermediateState> {
        Some(IntermediateState {
            epoch: json.get("epoch")?.as_u64_str()?,
            at: time_from_json(json.get("at")?)?,
            metric_value: json.get("metric_value")?.as_f64()?,
            progress: json.get("progress")?.as_f64()?,
        })
    }
}

/// Book-keeping state the framework tracks per job: the criterion, the
/// lifecycle status, and the intermediate-state history.
#[derive(Debug, Clone)]
pub struct JobState {
    /// Identity within the workload.
    pub id: JobId,
    /// Application family.
    pub kind: JobKind,
    /// The user-defined completion criterion `c_i`.
    pub criterion: CompletionCriterion,
    /// Virtual arrival time (jobs arrive by a Poisson process in the paper's
    /// AQP workload; 0 for all-at-once submission).
    pub arrival: SimTime,
    /// Current lifecycle status.
    pub status: JobStatus,
    /// Completed running epochs.
    pub epochs_run: u64,
    /// Total virtual time spent actually executing (excludes queueing).
    pub service_time: SimTime,
    /// Estimated virtual time the same work would have taken running
    /// isolated with a full resource grant — the baseline of the paper's
    /// waiting-time metric (Fig. 7b). `None` until the system records it.
    pub isolated_service: Option<SimTime>,
    /// Number of times the job was checkpointed (preempted after an epoch).
    pub checkpoints: u64,
    /// Epochs whose work was lost to injected crashes (each rolled the job
    /// back to its last completed epoch).
    pub epochs_lost: u64,
    /// Retry attempts scheduled after crashed epochs.
    pub retries: u64,
    /// The most recent injected failure, if any; cleared by the next
    /// successfully completed epoch. A job in [`JobStatus::Failed`] keeps
    /// its terminal [`RotaryError::RetriesExhausted`] here.
    pub failure: Option<RotaryError>,
    /// The emitted intermediate-state time series.
    pub history: Vec<IntermediateState>,
    /// Time at which the job reached a terminal status, if it has.
    pub finished_at: Option<SimTime>,
}

impl JobState {
    /// Creates a fresh pending job.
    pub fn new(id: JobId, kind: JobKind, criterion: CompletionCriterion, arrival: SimTime) -> Self {
        JobState {
            id,
            kind,
            criterion,
            arrival,
            status: JobStatus::Pending,
            epochs_run: 0,
            service_time: SimTime::ZERO,
            isolated_service: None,
            checkpoints: 0,
            epochs_lost: 0,
            retries: 0,
            failure: None,
            history: Vec::new(),
            finished_at: None,
        }
    }

    /// Latest intermediate state, if any epoch has completed.
    pub fn latest(&self) -> Option<&IntermediateState> {
        self.history.last()
    }

    /// Current attainment progress `φ` (0 before the first epoch).
    pub fn progress(&self) -> f64 {
        self.latest().map(|s| s.progress).unwrap_or(0.0)
    }

    /// Records the result of a finished epoch.
    pub fn record_epoch(&mut self, state: IntermediateState, service: SimTime) {
        debug_assert!(
            self.history.last().map(|p| p.epoch < state.epoch).unwrap_or(true),
            "epochs must be recorded in order"
        );
        self.epochs_run = state.epoch;
        self.service_time += service;
        self.failure = None;
        self.history.push(state);
    }

    /// Records a crashed epoch: the work is lost (nothing is appended to the
    /// series), the typed failure is kept for inspection, and the recovery
    /// counters advance.
    pub fn record_lost_epoch(&mut self, failure: RotaryError) {
        self.epochs_lost += 1;
        self.failure = Some(failure);
    }

    /// Transitions to a terminal status at the given time.
    pub fn finish(&mut self, status: JobStatus, at: SimTime) {
        debug_assert!(status.is_terminal());
        debug_assert!(!self.status.is_terminal(), "job finished twice");
        self.status = status;
        self.finished_at = Some(at);
    }

    /// Elapsed virtual time since submission, for deadline checks.
    pub fn elapsed(&self, now: SimTime) -> SimTime {
        now.saturating_sub(self.arrival)
    }

    /// Adds to the isolated-service estimate (what this epoch would have
    /// cost with a full grant and no contention).
    pub fn add_isolated_service(&mut self, time: SimTime) {
        self.isolated_service = Some(self.isolated_service.unwrap_or(SimTime::ZERO) + time);
    }

    /// Serialises everything except the criterion, which lives in the
    /// workload specification the restoring system already holds. Virtual
    /// times go through decimal strings so they stay exact at full width.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", u64_json(self.id.0)),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("arrival", time_json(self.arrival)),
            ("status", Json::Str(self.status.name().to_string())),
            ("epochs_run", u64_json(self.epochs_run)),
            ("service_time", time_json(self.service_time)),
            ("isolated_service", self.isolated_service.map_or(Json::Null, time_json)),
            ("checkpoints", u64_json(self.checkpoints)),
            ("epochs_lost", u64_json(self.epochs_lost)),
            ("retries", u64_json(self.retries)),
            ("failure", self.failure.as_ref().map_or(Json::Null, RotaryError::to_json)),
            ("history", Json::Arr(self.history.iter().map(IntermediateState::to_json).collect())),
            ("finished_at", self.finished_at.map_or(Json::Null, time_json)),
        ])
    }

    /// Decodes a state written by [`JobState::to_json`], re-attaching the
    /// criterion from the workload specification. Returns `None` on any
    /// structural mismatch.
    pub fn from_json(json: &Json, criterion: CompletionCriterion) -> Option<JobState> {
        let opt_time = |key: &str| -> Option<Option<SimTime>> {
            match json.get(key)? {
                Json::Null => Some(None),
                other => time_from_json(other).map(Some),
            }
        };
        let failure = match json.get("failure")? {
            Json::Null => None,
            other => Some(RotaryError::from_json(other)?),
        };
        let history = json
            .get("history")?
            .as_arr()?
            .iter()
            .map(IntermediateState::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(JobState {
            id: JobId(json.get("id")?.as_u64_str()?),
            kind: JobKind::from_name(json.get("kind")?.as_str()?)?,
            criterion,
            arrival: time_from_json(json.get("arrival")?)?,
            status: JobStatus::from_name(json.get("status")?.as_str()?)?,
            epochs_run: json.get("epochs_run")?.as_u64_str()?,
            service_time: time_from_json(json.get("service_time")?)?,
            isolated_service: opt_time("isolated_service")?,
            checkpoints: json.get("checkpoints")?.as_u64_str()?,
            epochs_lost: json.get("epochs_lost")?.as_u64_str()?,
            retries: json.get("retries")?.as_u64_str()?,
            failure,
            history,
            finished_at: opt_time("finished_at")?,
        })
    }

    /// Waiting time as the paper defines it (Fig. 7b): "the difference
    /// between its running time under Rotary or other baselines and the
    /// time of running it independently and isolated". Falls back to the
    /// contended service time when no isolated estimate was recorded.
    pub fn waiting_time(&self, now: SimTime) -> SimTime {
        let end = self.finished_at.unwrap_or(now);
        let isolated = self.isolated_service.unwrap_or(self.service_time);
        end.saturating_sub(self.arrival).saturating_sub(isolated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{Deadline, Metric};

    fn mk_job() -> JobState {
        JobState::new(
            JobId(1),
            JobKind::Aqp,
            CompletionCriterion::Accuracy {
                metric: Metric::Accuracy,
                threshold: 0.9,
                deadline: Deadline::Time(SimTime::from_secs(600)),
            },
            SimTime::from_secs(5),
        )
    }

    #[test]
    fn fresh_job_is_pending_with_zero_progress() {
        let j = mk_job();
        assert_eq!(j.status, JobStatus::Pending);
        assert_eq!(j.progress(), 0.0);
        assert!(j.latest().is_none());
        assert!(j.history.is_empty());
    }

    #[test]
    fn epoch_recording_updates_series() {
        let mut j = mk_job();
        j.record_epoch(
            IntermediateState {
                epoch: 1,
                at: SimTime::from_secs(65),
                metric_value: 0.5,
                progress: 0.55,
            },
            SimTime::from_secs(60),
        );
        j.record_epoch(
            IntermediateState {
                epoch: 2,
                at: SimTime::from_secs(130),
                metric_value: 0.7,
                progress: 0.77,
            },
            SimTime::from_secs(60),
        );
        assert_eq!(j.epochs_run, 2);
        assert_eq!(j.service_time, SimTime::from_secs(120));
        assert_eq!(j.latest().unwrap().metric_value, 0.7);
        assert_eq!(j.history[0].metric_value, 0.5);
        assert!((j.progress() - 0.77).abs() < 1e-12);
    }

    #[test]
    fn waiting_time_subtracts_service() {
        let mut j = mk_job(); // arrives at t=5s
        j.record_epoch(
            IntermediateState {
                epoch: 1,
                at: SimTime::from_secs(100),
                metric_value: 0.9,
                progress: 1.0,
            },
            SimTime::from_secs(40),
        );
        j.finish(JobStatus::Attained, SimTime::from_secs(100));
        // makespan = 95 s, service = 40 s → waiting = 55 s
        assert_eq!(j.waiting_time(SimTime::from_secs(999)), SimTime::from_secs(55));
    }

    #[test]
    fn status_predicates() {
        assert!(JobStatus::Attained.is_terminal());
        assert!(JobStatus::FalselyAttained.is_terminal());
        assert!(JobStatus::DeadlineMissed.is_terminal());
        assert!(JobStatus::Failed.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
        assert!(!JobStatus::Recovering.is_terminal());
        assert!(JobStatus::Active.is_arbitrable());
        assert!(JobStatus::Checkpointed.is_arbitrable());
        assert!(!JobStatus::Running.is_arbitrable());
        assert!(!JobStatus::Pending.is_arbitrable());
        assert!(!JobStatus::Recovering.is_arbitrable(), "backoff holds the job out of the queue");
        assert!(!JobStatus::Failed.is_arbitrable());
    }

    #[test]
    fn lost_epochs_keep_the_series_and_clear_on_success() {
        let mut j = mk_job();
        j.record_lost_epoch(RotaryError::EpochFailed { job: 1, epoch: 1, attempts: 1 });
        j.retries += 1;
        assert_eq!(j.epochs_lost, 1);
        assert_eq!(j.epochs_run, 0, "lost work never enters the series");
        assert!(j.failure.is_some());
        j.record_epoch(
            IntermediateState {
                epoch: 1,
                at: SimTime::from_secs(65),
                metric_value: 0.5,
                progress: 0.55,
            },
            SimTime::from_secs(60),
        );
        assert!(j.failure.is_none(), "a completed epoch clears the failure");
        assert_eq!(j.epochs_lost, 1, "the loss counter is permanent");
    }

    #[test]
    fn elapsed_is_relative_to_arrival() {
        let j = mk_job();
        assert_eq!(j.elapsed(SimTime::from_secs(65)), SimTime::from_secs(60));
        assert_eq!(j.elapsed(SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn job_id_displays_like_paper_figures() {
        assert_eq!(JobId(4).to_string(), "job4");
    }

    #[test]
    fn status_names_round_trip() {
        for status in [
            JobStatus::Pending,
            JobStatus::Active,
            JobStatus::Running,
            JobStatus::Checkpointed,
            JobStatus::Recovering,
            JobStatus::Attained,
            JobStatus::FalselyAttained,
            JobStatus::DeadlineMissed,
            JobStatus::Failed,
        ] {
            assert_eq!(JobStatus::from_name(status.name()), Some(status));
        }
        assert_eq!(JobStatus::from_name("unknown"), None);
        assert_eq!(JobKind::from_name(JobKind::Aqp.name()), Some(JobKind::Aqp));
        assert_eq!(JobKind::from_name(JobKind::Dlt.name()), Some(JobKind::Dlt));
        assert_eq!(JobKind::from_name("mlp"), None);
    }

    #[test]
    fn job_state_json_round_trips_exactly() {
        let mut j = mk_job();
        j.status = JobStatus::Recovering;
        j.record_lost_epoch(RotaryError::EpochFailed { job: 1, epoch: 1, attempts: 1 });
        j.retries += 1;
        j.record_epoch(
            IntermediateState {
                epoch: 1,
                at: SimTime::from_millis(65_123),
                metric_value: 0.512345678901234,
                progress: 0.1 + 0.2,
            },
            SimTime::from_millis(60_001),
        );
        j.record_lost_epoch(RotaryError::EpochFailed { job: 1, epoch: 2, attempts: 1 });
        j.checkpoints = 3;
        j.add_isolated_service(SimTime::from_millis(41_999));
        let criterion = j.criterion.clone();

        let text = j.to_json().to_pretty();
        let parsed = crate::json::parse(&text).unwrap();
        let restored = JobState::from_json(&parsed, criterion).unwrap();

        assert_eq!(restored.id, j.id);
        assert_eq!(restored.kind, j.kind);
        assert_eq!(restored.arrival, j.arrival);
        assert_eq!(restored.status, j.status);
        assert_eq!(restored.epochs_run, j.epochs_run);
        assert_eq!(restored.service_time, j.service_time);
        assert_eq!(restored.isolated_service, j.isolated_service);
        assert_eq!(restored.checkpoints, j.checkpoints);
        assert_eq!(restored.epochs_lost, j.epochs_lost);
        assert_eq!(restored.retries, j.retries);
        assert_eq!(restored.failure, j.failure);
        assert_eq!(restored.history, j.history);
        assert_eq!(restored.finished_at, j.finished_at);
        // A second serialization is byte-identical — the snapshot oracle.
        assert_eq!(restored.to_json().to_pretty(), text);
    }

    #[test]
    fn job_state_json_rejects_malformed_shapes() {
        let criterion = mk_job().criterion;
        assert!(JobState::from_json(&Json::Null, criterion.clone()).is_none());
        let mut j = mk_job();
        j.finish(JobStatus::Attained, SimTime::from_secs(9));
        let good = j.to_json();
        // Damaging any field kills the decode rather than panicking.
        if let Json::Obj(pairs) = &good {
            for i in 0..pairs.len() {
                let mut damaged = pairs.clone();
                damaged[i].1 = Json::Str("not-a-valid-value".into());
                assert!(
                    JobState::from_json(&Json::Obj(damaged), criterion.clone()).is_none(),
                    "field {} should fail closed",
                    pairs[i].0
                );
            }
        } else {
            unreachable!("to_json returns an object");
        }
    }
}
