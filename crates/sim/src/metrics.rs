//! Evaluation metrics (paper §V).
//!
//! The paper reports, per policy: the number of **attained** jobs (Fig. 6,
//! 8, 9), **false attainment** (Fig. 7a), **average waiting time** (Fig. 7b
//! — makespan under arbitration minus isolated runtime), the distribution of
//! **attainment progress over time** (Fig. 10's violin plots), and the
//! **job-placement timeline** (Fig. 11). [`WorkloadMetrics`] collects the
//! raw traces during a run; [`WorkloadSummary`] condenses the terminal
//! states.

use rotary_core::error::{Result, RotaryError};
use rotary_core::job::{JobId, JobState, JobStatus};
use rotary_core::json::{self, CompactPrefix, Json};
use rotary_core::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Per-job recovery counters under fault injection. Every field is zero in
/// a fault-free run, and a job with all-zero counters is never recorded —
/// so the fault layer leaves no trace in metrics unless it actually fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryCounters {
    /// Epoch crashes injected against this job.
    pub crashes: u64,
    /// Straggler epochs (slowed, but completed) this job suffered.
    pub stragglers: u64,
    /// Checkpoint writes that failed and were retried.
    pub checkpoint_failures: u64,
    /// Checkpoint restores that failed and were retried.
    pub restore_failures: u64,
    /// Retry attempts scheduled after crashed epochs.
    pub retries: u64,
    /// Completed-epoch work lost to rollbacks.
    pub epochs_lost: u64,
}

impl RecoveryCounters {
    /// True when no fault ever touched the job.
    pub fn is_zero(&self) -> bool {
        *self == RecoveryCounters::default()
    }

    fn to_json_value(self, job: JobId) -> Json {
        Json::obj(vec![
            ("job", Json::Num(job.0 as f64)),
            ("crashes", Json::Num(self.crashes as f64)),
            ("stragglers", Json::Num(self.stragglers as f64)),
            ("checkpoint_failures", Json::Num(self.checkpoint_failures as f64)),
            ("restore_failures", Json::Num(self.restore_failures as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("epochs_lost", Json::Num(self.epochs_lost as f64)),
        ])
    }

    fn from_json_value(v: &Json) -> std::result::Result<(JobId, RecoveryCounters), String> {
        let num = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field '{name}'"))
        };
        Ok((
            JobId(num("job")?),
            RecoveryCounters {
                crashes: num("crashes")?,
                stragglers: num("stragglers")?,
                checkpoint_failures: num("checkpoint_failures")?,
                restore_failures: num("restore_failures")?,
                retries: num("retries")?,
                epochs_lost: num("epochs_lost")?,
            },
        ))
    }
}

/// One contiguous occupancy of a resource by a job (a rectangle in Fig. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSpan {
    /// The job occupying the resource.
    pub job: JobId,
    /// Resource label, e.g. `"gpu0"` or `"cpu"`.
    pub resource: String,
    /// Span start (grant time).
    pub start: SimTime,
    /// Span end (epoch completion / release time).
    pub end: SimTime,
    /// Whether the job met its completion criteria at the end of this span
    /// (the hatched rectangles in Fig. 11).
    pub attained_at_end: bool,
}

impl PlacementSpan {
    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("job", Json::Num(self.job.0 as f64)),
            ("resource", Json::Str(self.resource.clone())),
            ("start_ms", Json::Num(self.start.as_millis() as f64)),
            ("end_ms", Json::Num(self.end.as_millis() as f64)),
            ("attained_at_end", Json::Bool(self.attained_at_end)),
        ])
    }

    fn from_json_value(v: &Json) -> std::result::Result<PlacementSpan, String> {
        let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field '{name}'"));
        Ok(PlacementSpan {
            job: JobId(field("job")?.as_u64().ok_or("'job' not an integer")?),
            resource: field("resource")?.as_str().ok_or("'resource' not a string")?.to_string(),
            start: SimTime::from_millis(
                field("start_ms")?.as_u64().ok_or("'start_ms' not an integer")?,
            ),
            end: SimTime::from_millis(field("end_ms")?.as_u64().ok_or("'end_ms' not an integer")?),
            attained_at_end: field("attained_at_end")?
                .as_bool()
                .ok_or("'attained_at_end' not a bool")?,
        })
    }
}

/// A point-in-time snapshot of every job's attainment progress — the raw
/// series behind the Fig. 10 violins.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Snapshot instant.
    pub at: SimTime,
    /// `(job, φ)` pairs for every job in the workload (terminal jobs report
    /// φ = 1 if attained, else their last progress).
    pub progress: Vec<(JobId, f64)>,
}

impl ProgressSnapshot {
    fn to_json_value(&self) -> Json {
        row_json(self.at, "progress", &self.progress)
    }
}

/// One progress row's JSON: its instant and, under `key`, its `(job, φ)`
/// pairs as `[job, φ]` arrays — the layout of both row shapes.
fn row_json(at: SimTime, key: &str, pairs: &[(JobId, f64)]) -> Json {
    let pair = |&(job, p): &(JobId, f64)| Json::Arr(vec![Json::Num(job.0 as f64), Json::Num(p)]);
    Json::obj(vec![
        ("at_ms", Json::Num(at.as_millis() as f64)),
        (key, Json::Arr(pairs.iter().map(pair).collect())),
    ])
}

/// Reads the `(job, φ)` pairs [`row_json`] wrote under `key`.
fn pairs_from_json(v: &Json, key: &str) -> std::result::Result<Vec<(JobId, f64)>, String> {
    v.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))?
        .as_arr()
        .ok_or_else(|| format!("'{key}' is not an array"))?
        .iter()
        .map(|p| {
            let pair = p.as_arr().filter(|a| a.len() == 2).ok_or("progress entry is not a pair")?;
            match (pair[0].as_u64(), pair[1].as_f64()) {
                (Some(job), Some(phi)) => Ok((JobId(job), phi)),
                _ => Err("progress entry is not numeric".to_string()),
            }
        })
        .collect()
}

/// Internal storage for one progress row: either a fully materialized
/// snapshot or the set of `(job, φ)` pairs that changed since the previous
/// row, ascending by job. A workload of `n` jobs stepping through `e`
/// events stores O(n + e·k) pairs (k = jobs changed per event, usually 0
/// or 1) instead of O(n·e) — the difference between megabytes and tens of
/// gigabytes at 100k jobs. Rows materialize back to [`ProgressSnapshot`]s
/// on read, byte-identical to the dense recording, and are written to
/// snapshots in the shape they are stored in.
#[derive(Debug, Clone, PartialEq)]
enum ProgressRow {
    Full(ProgressSnapshot),
    Delta { at: SimTime, changed: Vec<(JobId, f64)> },
}

impl ProgressRow {
    /// Advances `state` — each job's φ after the previous row — past this
    /// row.
    fn advance(&self, state: &mut BTreeMap<JobId, f64>) {
        match self {
            ProgressRow::Full(snap) => *state = snap.progress.iter().copied().collect(),
            ProgressRow::Delta { changed, .. } => state.extend(changed.iter().copied()),
        }
    }

    /// The row as a full snapshot, given `state` (see
    /// [`ProgressRow::advance`]), which it advances past this row.
    fn materialize(&self, state: &mut BTreeMap<JobId, f64>) -> ProgressSnapshot {
        self.advance(state);
        match self {
            ProgressRow::Full(snap) => snap.clone(),
            ProgressRow::Delta { at, .. } => ProgressSnapshot {
                at: *at,
                progress: state.iter().map(|(&j, &p)| (j, p)).collect(),
            },
        }
    }

    /// The row as stored: a full row as `{"at_ms","progress"}`, a delta
    /// row as `{"at_ms","changed"}`.
    fn to_json_value(&self) -> Json {
        match self {
            ProgressRow::Full(snap) => snap.to_json_value(),
            ProgressRow::Delta { at, changed } => row_json(*at, "changed", changed),
        }
    }

    /// Reads either shape [`ProgressRow::to_json_value`] writes; the dense
    /// export's rows (and every row of a snapshot written before rows were
    /// stored as deltas) are full rows.
    fn from_json_value(v: &Json) -> std::result::Result<ProgressRow, String> {
        let at_ms = v.get("at_ms").ok_or("missing field 'at_ms'")?;
        let at = SimTime::from_millis(at_ms.as_u64().ok_or("'at_ms' not an integer")?);
        Ok(match v.get("changed") {
            Some(_) => ProgressRow::Delta { at, changed: pairs_from_json(v, "changed")? },
            None => ProgressRow::Full(ProgressSnapshot {
                at,
                progress: pairs_from_json(v, "progress")?,
            }),
        })
    }
}

/// What [`WorkloadMetrics::to_compact`] already encoded of the two
/// append-only lists.
#[derive(Debug, Default)]
struct Emitted {
    spans: CompactPrefix,
    rows: CompactPrefix,
}

/// Trace collector for one simulated run.
#[derive(Debug, Default)]
pub struct WorkloadMetrics {
    spans: Vec<PlacementSpan>,
    rows: Vec<ProgressRow>,
    /// Each job's φ as of the latest row, compared bit-for-bit when
    /// delta-encoding.
    last: BTreeMap<JobId, f64>,
    recovery: BTreeMap<JobId, RecoveryCounters>,
    /// Derived, never part of the trace: filled by the first
    /// [`WorkloadMetrics::to_compact`], so a run that never snapshots pays
    /// nothing; a clone starts empty.
    emitted: RefCell<Emitted>,
}

impl Clone for WorkloadMetrics {
    fn clone(&self) -> Self {
        WorkloadMetrics {
            spans: self.spans.clone(),
            rows: self.rows.clone(),
            last: self.last.clone(),
            recovery: self.recovery.clone(),
            emitted: RefCell::default(),
        }
    }
}

impl WorkloadMetrics {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed placement span.
    pub fn record_span(&mut self, span: PlacementSpan) {
        debug_assert!(span.start <= span.end, "span ends before it starts");
        self.spans.push(span);
    }

    /// Records a progress snapshot of the whole workload. `progress` must
    /// list every job (ascending id) — the row is stored fully materialized.
    fn record_snapshot(&mut self, at: SimTime, progress: Vec<(JobId, f64)>) {
        let row = ProgressRow::Full(ProgressSnapshot { at, progress });
        row.advance(&mut self.last);
        self.rows.push(row);
    }

    /// Records a progress row from `candidates` — a superset of the jobs
    /// whose φ may have changed since the previous row, in any order and
    /// possibly repeated. Unchanged candidates (bit-identical φ) are
    /// dropped, so the row stores only real movement, ascending by job
    /// whatever the candidates' order; a first row (empty trace) must
    /// therefore pass the full workload. Materializes identically to a full
    /// row listing every job.
    pub fn record_snapshot_sparse(&mut self, at: SimTime, candidates: &[(JobId, f64)]) {
        if self.rows.is_empty() {
            let full: BTreeMap<JobId, f64> = candidates.iter().copied().collect();
            self.record_snapshot(at, full.into_iter().collect());
            return;
        }
        let mut changed = Vec::new();
        for &(job, p) in candidates {
            if self.last.get(&job).map(|prev| prev.to_bits()) != Some(p.to_bits()) {
                self.last.insert(job, p);
                changed.push((job, p));
            }
        }
        changed.sort_by_key(|&(job, _)| job);
        self.rows.push(ProgressRow::Delta { at, changed });
    }

    /// The job's φ as of the latest row (`None` before its first) — what
    /// a sparse row compares against. Debug builds only: the arbitration
    /// shell asserts that no unmarked job moved.
    #[cfg(debug_assertions)]
    pub fn last_progress(&self, job: JobId) -> Option<f64> {
        self.last.get(&job).copied()
    }

    /// All placement spans, in recording order.
    pub fn spans(&self) -> &[PlacementSpan] {
        &self.spans
    }

    /// All progress snapshots, in recording order, materialized from the
    /// delta-encoded rows (each row reports every job, ascending id).
    pub fn snapshots(&self) -> Vec<ProgressSnapshot> {
        let mut state = BTreeMap::new();
        self.rows.iter().map(|row| row.materialize(&mut state)).collect()
    }

    /// Number of progress rows recorded (cheaper than materializing
    /// [`snapshots`](Self::snapshots) just to count them).
    pub fn snapshot_count(&self) -> usize {
        self.rows.len()
    }

    /// Mutable recovery counters for a job, created on first touch. Only
    /// call this when a fault actually fires — an untouched job must stay
    /// absent from the map so fault-free traces serialise unchanged.
    pub fn recovery_of(&mut self, job: JobId) -> &mut RecoveryCounters {
        self.recovery.entry(job).or_default()
    }

    /// Per-job recovery counters (empty in a fault-free run).
    pub fn recovery(&self) -> &BTreeMap<JobId, RecoveryCounters> {
        &self.recovery
    }

    /// The spans of one job (its row in Fig. 11).
    pub fn spans_of(&self, job: JobId) -> Vec<&PlacementSpan> {
        self.spans.iter().filter(|s| s.job == job).collect()
    }

    /// Total busy time per resource label — a utilisation view.
    pub fn busy_time(&self, resource: &str) -> SimTime {
        self.spans.iter().filter(|s| s.resource == resource).map(|s| s.end - s.start).sum()
    }

    /// All distinct resource labels seen in the trace, sorted.
    pub fn resources(&self) -> Vec<String> {
        let mut names: Vec<String> = self.spans.iter().map(|s| s.resource.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Serialises the full trace to pretty JSON (for external plotting of
    /// the Fig. 10 violins or the Fig. 11 Gantt charts).
    pub fn to_json(&self) -> Result<String> {
        Ok(self.to_json_value().to_pretty())
    }

    /// The full trace as a JSON tree; [`WorkloadMetrics::from_json`] reads
    /// any rendering of it.
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("spans", Json::Arr(self.spans.iter().map(PlacementSpan::to_json_value).collect())),
            (
                "snapshots",
                Json::Arr(self.snapshots().iter().map(ProgressSnapshot::to_json_value).collect()),
            ),
        ];
        fields.extend(self.recovery_json().map(|recovery| ("recovery", recovery)));
        Json::obj(fields)
    }

    /// The trace as the compact JSON a durable snapshot stores: the
    /// layout of [`WorkloadMetrics::to_json_value`], except that each
    /// progress row is written in the shape it is stored in — a delta row
    /// as `{"at_ms","changed":[[job,φ],…]}`, listing only the jobs that
    /// moved — so the text grows with what happened, not with rows × jobs.
    /// [`WorkloadMetrics::from_json`] reads it back to the same rows. Each
    /// span and row is encoded once: a later call encodes only what was
    /// recorded since (durable snapshots write the trace every
    /// generation). The recovery counters, the one part that changes in
    /// place, are encoded on every call.
    pub fn to_compact(&self) -> String {
        let mut emitted = self.emitted.borrow_mut();
        let Emitted { spans, rows } = &mut *emitted;
        spans.catch_up(&self.spans, PlacementSpan::to_json_value);
        rows.catch_up(&self.rows, ProgressRow::to_json_value);
        let mut out = String::with_capacity(spans.bytes() + rows.bytes() + 64);
        out.push_str("{\"spans\":");
        spans.write_array(&mut out);
        out.push_str(",\"snapshots\":");
        rows.write_array(&mut out);
        if let Some(recovery) = self.recovery_json() {
            out.push_str(",\"recovery\":");
            out.push_str(&recovery.to_compact());
        }
        out.push('}');
        out
    }

    /// The recovery counters, present only when some fault fired: a
    /// fault-free trace stays byte-identical to traces written before the
    /// fault layer existed.
    fn recovery_json(&self) -> Option<Json> {
        (!self.recovery.is_empty()).then(|| {
            Json::Arr(self.recovery.iter().map(|(&job, c)| c.to_json_value(job)).collect())
        })
    }

    /// Restores a trace from either rendering: the dense export of
    /// [`WorkloadMetrics::to_json`] (every row full) or the snapshot text
    /// of [`WorkloadMetrics::to_compact`] (full and delta rows, restored
    /// as they were stored).
    pub fn from_json(text: &str) -> Result<WorkloadMetrics> {
        let doc = json::parse(text).map_err(RotaryError::Persistence)?;
        let arr = |name: &str| {
            doc.get(name)
                .and_then(Json::as_arr)
                .ok_or_else(|| RotaryError::Persistence(format!("missing '{name}' array")))
        };
        let spans = arr("spans")?
            .iter()
            .map(PlacementSpan::from_json_value)
            .collect::<std::result::Result<Vec<_>, String>>()
            .map_err(RotaryError::Persistence)?;
        let rows: Vec<ProgressRow> = arr("snapshots")?
            .iter()
            .map(ProgressRow::from_json_value)
            .collect::<std::result::Result<Vec<_>, String>>()
            .map_err(RotaryError::Persistence)?;
        // Absent in fault-free traces (and in traces predating the fault
        // layer) — tolerate the missing key.
        let recovery = match doc.get("recovery").and_then(Json::as_arr) {
            Some(entries) => entries
                .iter()
                .map(RecoveryCounters::from_json_value)
                .collect::<std::result::Result<BTreeMap<_, _>, String>>()
                .map_err(RotaryError::Persistence)?,
            None => BTreeMap::new(),
        };
        let mut last = BTreeMap::new();
        for row in &rows {
            row.advance(&mut last);
        }
        Ok(WorkloadMetrics { spans, rows, last, recovery, emitted: RefCell::default() })
    }
}

/// Five-number summary of a progress distribution (one violin of Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
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
    /// Arithmetic mean.
    pub mean: f64,
}

impl Distribution {
    /// Computes the summary of a sample; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Distribution> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let q = |p: f64| -> f64 {
            // Linear interpolation between closest ranks.
            let idx = p * (sorted.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let frac = idx - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        Some(Distribution {
            min,
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max,
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }
}

/// Condensed terminal-state statistics for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Jobs that genuinely met their completion criteria.
    pub attained: usize,
    /// Jobs the system *declared* complete in error (Fig. 7a).
    pub falsely_attained: usize,
    /// Jobs whose deadline passed unmet.
    pub deadline_missed: usize,
    /// Jobs that exhausted their epoch retries and were given up on (zero
    /// unless faults are injected).
    pub failed: usize,
    /// Jobs still unfinished when the run ended.
    pub unfinished: usize,
    /// Attainment rate ψ = attained / n.
    pub attainment_rate: f64,
    /// Mean waiting time over all jobs (makespan − isolated service time).
    pub avg_waiting_time: SimTime,
    /// Mean number of checkpoints per job (interruption overhead).
    pub avg_checkpoints: f64,
    /// Total completed-epoch work lost to crash rollbacks, across all jobs.
    pub epochs_lost: u64,
    /// Total retry attempts scheduled after crashed epochs.
    pub retries: u64,
}

impl WorkloadSummary {
    /// Summarises a finished (or timed-out) workload at virtual time `now`.
    pub fn from_jobs(jobs: &[JobState], now: SimTime) -> WorkloadSummary {
        let n = jobs.len().max(1);
        let count = |s: JobStatus| jobs.iter().filter(|j| j.status == s).count();
        let attained = count(JobStatus::Attained);
        let total_wait: SimTime = jobs.iter().map(|j| j.waiting_time(now)).sum();
        let total_ckpt: u64 = jobs.iter().map(|j| j.checkpoints).sum();
        WorkloadSummary {
            attained,
            falsely_attained: count(JobStatus::FalselyAttained),
            deadline_missed: count(JobStatus::DeadlineMissed),
            failed: count(JobStatus::Failed),
            unfinished: jobs.iter().filter(|j| !j.status.is_terminal()).count(),
            attainment_rate: attained as f64 / n as f64,
            avg_waiting_time: total_wait / n as u64,
            avg_checkpoints: total_ckpt as f64 / n as f64,
            epochs_lost: jobs.iter().map(|j| j.epochs_lost).sum(),
            retries: jobs.iter().map(|j| j.retries).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_core::criteria::{CompletionCriterion, Deadline, Metric};
    use rotary_core::job::{IntermediateState, JobKind};

    fn job(id: u64, arrival_s: u64) -> JobState {
        JobState::new(
            JobId(id),
            JobKind::Aqp,
            CompletionCriterion::Accuracy {
                metric: Metric::Accuracy,
                threshold: 0.9,
                deadline: Deadline::Time(SimTime::from_secs(600)),
            },
            SimTime::from_secs(arrival_s),
        )
    }

    #[test]
    fn spans_group_by_job_and_resource() {
        let mut m = WorkloadMetrics::new();
        m.record_span(PlacementSpan {
            job: JobId(1),
            resource: "gpu0".into(),
            start: SimTime::ZERO,
            end: SimTime::from_secs(10),
            attained_at_end: false,
        });
        m.record_span(PlacementSpan {
            job: JobId(1),
            resource: "gpu1".into(),
            start: SimTime::from_secs(20),
            end: SimTime::from_secs(35),
            attained_at_end: true,
        });
        m.record_span(PlacementSpan {
            job: JobId(2),
            resource: "gpu0".into(),
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(18),
            attained_at_end: false,
        });
        assert_eq!(m.spans_of(JobId(1)).len(), 2);
        assert_eq!(m.busy_time("gpu0"), SimTime::from_secs(18));
        assert_eq!(m.busy_time("gpu1"), SimTime::from_secs(15));
        assert_eq!(m.busy_time("gpu9"), SimTime::ZERO);
    }

    #[test]
    fn distribution_five_numbers() {
        let d = Distribution::of(&[0.0, 0.25, 0.5, 0.75, 1.0]).unwrap();
        assert_eq!(d.min, 0.0);
        assert_eq!(d.q1, 0.25);
        assert_eq!(d.median, 0.5);
        assert_eq!(d.q3, 0.75);
        assert_eq!(d.max, 1.0);
        assert_eq!(d.mean, 0.5);
        assert!(Distribution::of(&[]).is_none());
        let single = Distribution::of(&[0.4]).unwrap();
        assert_eq!(single.min, 0.4);
        assert_eq!(single.max, 0.4);
        assert_eq!(single.median, 0.4);
    }

    #[test]
    fn summary_counts_statuses() {
        let mut jobs = vec![job(1, 0), job(2, 0), job(3, 0), job(4, 0)];
        jobs[0].record_epoch(
            IntermediateState {
                epoch: 1,
                at: SimTime::from_secs(50),
                metric_value: 0.95,
                progress: 1.0,
            },
            SimTime::from_secs(30),
        );
        jobs[0].finish(JobStatus::Attained, SimTime::from_secs(50));
        jobs[1].finish(JobStatus::FalselyAttained, SimTime::from_secs(60));
        jobs[2].finish(JobStatus::DeadlineMissed, SimTime::from_secs(600));
        // jobs[3] unfinished.
        let s = WorkloadSummary::from_jobs(&jobs, SimTime::from_secs(700));
        assert_eq!(s.attained, 1);
        assert_eq!(s.falsely_attained, 1);
        assert_eq!(s.deadline_missed, 1);
        assert_eq!(s.failed, 0);
        assert_eq!(s.unfinished, 1);
        assert_eq!(s.attainment_rate, 0.25);
        assert_eq!(s.epochs_lost, 0);
        assert_eq!(s.retries, 0);
        // Job 1 waited 50−30 = 20 s; others have zero service time, so their
        // whole makespan is waiting: 60 + 600 + 700 → avg (20+60+600+700)/4.
        assert_eq!(s.avg_waiting_time, SimTime::from_secs(345));
    }

    #[test]
    fn resources_lists_span_labels() {
        let mut m = WorkloadMetrics::new();
        m.record_span(PlacementSpan {
            job: JobId(1),
            resource: "gpu0".into(),
            start: SimTime::ZERO,
            end: SimTime::from_secs(50),
            attained_at_end: false,
        });
        m.record_span(PlacementSpan {
            job: JobId(2),
            resource: "gpu1".into(),
            start: SimTime::from_secs(20),
            end: SimTime::from_secs(100),
            attained_at_end: true,
        });
        assert_eq!(m.resources(), vec!["gpu0".to_string(), "gpu1".to_string()]);
    }

    #[test]
    fn trace_json_round_trip() {
        let mut m = WorkloadMetrics::new();
        m.record_span(PlacementSpan {
            job: JobId(1),
            resource: "cpu".into(),
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(2),
            attained_at_end: true,
        });
        m.record_snapshot(SimTime::from_secs(2), vec![(JobId(1), 0.5)]);
        let json = m.to_json().unwrap();
        let restored = WorkloadMetrics::from_json(&json).unwrap();
        assert_eq!(restored.spans(), m.spans());
        assert_eq!(restored.snapshots(), m.snapshots());
        assert!(WorkloadMetrics::from_json("{bad").is_err());
    }

    #[test]
    fn summary_counts_failed_jobs_and_lost_epochs() {
        use rotary_core::error::RotaryError;
        let mut jobs = vec![job(1, 0), job(2, 0)];
        jobs[0].record_lost_epoch(RotaryError::EpochFailed { job: 1, epoch: 1, attempts: 1 });
        jobs[0].record_lost_epoch(RotaryError::EpochFailed { job: 1, epoch: 1, attempts: 2 });
        jobs[0].retries += 2;
        jobs[0].finish(JobStatus::Failed, SimTime::from_secs(300));
        let s = WorkloadSummary::from_jobs(&jobs, SimTime::from_secs(400));
        assert_eq!(s.failed, 1);
        assert_eq!(s.epochs_lost, 2);
        assert_eq!(s.retries, 2);
        assert_eq!(s.unfinished, 1);
    }

    #[test]
    fn recovery_counters_serialise_only_when_touched() {
        let mut m = WorkloadMetrics::new();
        m.record_snapshot(SimTime::from_secs(2), vec![(JobId(1), 0.5)]);
        // Fault-free trace: no "recovery" key at all.
        let clean = m.to_json().unwrap();
        assert!(!clean.contains("recovery"), "{clean}");
        assert!(WorkloadMetrics::from_json(&clean).unwrap().recovery().is_empty());

        m.recovery_of(JobId(3)).crashes = 2;
        m.recovery_of(JobId(3)).epochs_lost = 2;
        m.recovery_of(JobId(5)).stragglers = 1;
        let json = m.to_json().unwrap();
        let restored = WorkloadMetrics::from_json(&json).unwrap();
        assert_eq!(restored.recovery(), m.recovery());
        assert_eq!(restored.recovery()[&JobId(3)].crashes, 2);
        assert_eq!(restored.recovery()[&JobId(3)].epochs_lost, 2);
        assert!(restored.recovery()[&JobId(5)].crashes == 0);
        assert!(!restored.recovery()[&JobId(5)].is_zero());
    }

    #[test]
    fn sparse_rows_materialize_like_dense_recording() {
        // Dense: every row lists every job.
        let mut dense = WorkloadMetrics::new();
        dense.record_snapshot(SimTime::from_secs(1), vec![(JobId(0), 0.1), (JobId(1), 0.2)]);
        dense.record_snapshot(SimTime::from_secs(2), vec![(JobId(0), 0.1), (JobId(1), 0.5)]);
        dense.record_snapshot(SimTime::from_secs(3), vec![(JobId(0), 0.1), (JobId(1), 0.5)]);
        dense.record_snapshot(SimTime::from_secs(4), vec![(JobId(0), 0.7), (JobId(1), 0.5)]);

        // Sparse: first row full, later rows pass only candidate supersets.
        let mut sparse = WorkloadMetrics::new();
        sparse.record_snapshot_sparse(SimTime::from_secs(1), &[(JobId(0), 0.1), (JobId(1), 0.2)]);
        sparse.record_snapshot_sparse(SimTime::from_secs(2), &[(JobId(1), 0.5)]);
        sparse.record_snapshot_sparse(SimTime::from_secs(3), &[]);
        // Unchanged candidates are deduplicated away automatically.
        sparse.record_snapshot_sparse(SimTime::from_secs(4), &[(JobId(0), 0.7), (JobId(1), 0.5)]);

        assert_eq!(sparse.snapshots(), dense.snapshots());
        assert_eq!(sparse.snapshot_count(), 4);
        assert_eq!(sparse.to_json().unwrap(), dense.to_json().unwrap());
        let round = WorkloadMetrics::from_json(&sparse.to_json().unwrap()).unwrap();
        assert_eq!(round.snapshots(), dense.snapshots());
    }

    #[test]
    fn snapshot_text_writes_rows_as_stored() {
        let mut m = WorkloadMetrics::new();
        m.record_snapshot_sparse(SimTime::from_secs(1), &[(JobId(1), 0.2), (JobId(0), 0.1)]);
        m.record_snapshot_sparse(SimTime::from_secs(2), &[(JobId(1), 0.5), (JobId(0), 0.25)]);
        m.record_snapshot_sparse(SimTime::from_secs(3), &[(JobId(1), 0.5)]);
        let text = m.to_compact();
        assert_eq!(
            text,
            "{\"spans\":[],\"snapshots\":[{\"at_ms\":1000,\"progress\":[[0,0.1],[1,0.2]]},\
             {\"at_ms\":2000,\"changed\":[[0,0.25],[1,0.5]]},{\"at_ms\":3000,\"changed\":[]}]}"
        );
        let reloaded = WorkloadMetrics::from_json(&text).unwrap();
        assert_eq!(reloaded.rows, m.rows);
        assert_eq!(reloaded.last, m.last);
        // The dense export still lists every job in every row.
        assert!(m
            .to_json_value()
            .to_compact()
            .contains("{\"at_ms\":3000,\"progress\":[[0,0.25],[1,0.5]]}"));
    }

    #[test]
    fn snapshots_accumulate() {
        let mut m = WorkloadMetrics::new();
        m.record_snapshot(SimTime::from_secs(60), vec![(JobId(1), 0.2), (JobId(2), 0.5)]);
        m.record_snapshot(SimTime::from_secs(120), vec![(JobId(1), 0.6), (JobId(2), 0.9)]);
        assert_eq!(m.snapshots().len(), 2);
        let last = &m.snapshots()[1];
        let values: Vec<f64> = last.progress.iter().map(|&(_, p)| p).collect();
        let d = Distribution::of(&values).unwrap();
        assert_eq!(d.min, 0.6);
        assert_eq!(d.max, 0.9);
    }
}
