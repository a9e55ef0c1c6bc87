//! Rotary-DLT: threshold-based GPU arbitration for deep learning training
//! (paper §IV-B, Algorithms 3–4) and the §V-B baselines.
//!
//! All jobs are submitted at time zero. Whenever a GPU frees up, the system
//! re-ranks the queue: under Rotary's threshold policy the queue
//! prioritises the *lowest*-progress job until every job has reached
//! progress `T` (or is considered converged), then flips to the
//! *highest*-estimated-progress job (Algorithm 3); `T = 0` is pure
//! efficiency, `T = 1` pure fairness, `T = 0.5` the adaptive variant of
//! Fig. 10a. Progress `φ` follows Algorithm 4, with TEE supplying the
//! estimated epochs-to-target for accuracy- and convergence-oriented
//! criteria. TME gates placement (`m̂ ≤ M_d`); TTR records epoch times.
//! The baselines (SRF, BCF, LAF) prioritise one criterion family and
//! round-robin the rest, exactly as §V-B2 describes.

use std::collections::BTreeSet;

use rotary_core::arb::{DecisionCache, OrdF64, PriorityIndex};
use rotary_core::criteria::{CompletionCriterion, CriterionCheck};
use rotary_core::estimate::JointCurveEstimator;
use rotary_core::history::HistoryRepository;
use rotary_core::job::{IntermediateState, JobId, JobKind, JobState, JobStatus};
use rotary_core::progress::Objective;
use rotary_core::resources::GpuPoolSpec;
use rotary_core::SimTime;
use rotary_faults::arbiter::{self as arb, Arbiter, Event, Job, JobBase, Loop, Marks};
use rotary_faults::{EpochFault, FaultPlan};
use rotary_sim::{
    CheckpointModel, EventQueue, GpuPool, PlacementSpan, WorkloadMetrics, WorkloadSummary,
};
use rotary_store::{DurableConfig, DurableOutcome};

use crate::estimators::{
    build_tee, estimate_epochs_to_accuracy, job_record, Component, OverheadMeter, Tme, Ttr,
};
use crate::simulator::{TrainingSim, CUDA_WARMUP};
use crate::workload::DltJobSpec;

mod snapshot;

/// The arbitration policy for a DLT run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DltPolicy {
    /// Rotary-DLT with the given objective (threshold `T`).
    Rotary(Objective),
    /// Shortest Runtime First: runtime-criteria jobs by smallest budget,
    /// everything else round-robin.
    Srf,
    /// Biggest Convergence First: convergence-criteria jobs by largest
    /// delta, everything else round-robin.
    Bcf,
    /// Lowest Accuracy First: accuracy-criteria jobs by lowest target,
    /// everything else round-robin.
    Laf,
}

impl DltPolicy {
    /// Display name matching the paper's figures.
    pub fn name(self) -> String {
        match self {
            DltPolicy::Rotary(obj) => {
                format!("Rotary-DLT(T={:.0}%)", obj.threshold() * 100.0)
            }
            DltPolicy::Srf => "SRF".to_string(),
            DltPolicy::Bcf => "BCF".to_string(),
            DltPolicy::Laf => "LAF".to_string(),
        }
    }

    /// The Fig. 10 line-up: three Rotary variants plus the baselines.
    pub fn all() -> Vec<DltPolicy> {
        vec![
            DltPolicy::Srf,
            DltPolicy::Bcf,
            DltPolicy::Laf,
            DltPolicy::Rotary(Objective::Threshold(0.5)),
            DltPolicy::Rotary(Objective::Fairness),
            DltPolicy::Rotary(Objective::Efficiency),
        ]
    }
}

/// Tunables; defaults reproduce the paper's testbed (4 × RTX 2080, 8 GB).
#[derive(Debug, Clone)]
pub struct DltSystemConfig {
    /// The GPU pool.
    pub pool: GpuPoolSpec,
    /// Checkpoint/restore cost model (model state to disk).
    pub checkpoint: CheckpointModel,
    /// Top-k similar historical jobs for TEE/TME.
    pub top_k: usize,
    /// Seed for evaluation noise.
    pub seed: u64,
    /// Fault-injection plan consulted by the control plane. Defaults to
    /// `ROTARY_FAULT_SEED` (the chaos profile at that seed; inert when
    /// unset). An inert plan injects nothing and leaves the run
    /// byte-identical to a build without the fault layer.
    pub faults: FaultPlan,
    /// Host threads for start-up work — the uncontended training runs of
    /// [`DltSystem::prepopulate_history`] — not the simulated GPUs; a run
    /// itself is serial. Defaults to `ROTARY_THREADS` (1 when unset);
    /// results are bit-identical across values.
    pub threads: usize,
    /// Monotonic probe for Table III overhead accounting. `None` (the
    /// default) keeps the arbitration loop free of wall-clock reads; the
    /// Table III harness installs `rotary_bench::timing::monotonic_probe`.
    pub overhead_probe: Option<crate::estimators::ProbeClock>,
    /// Forces the retired dense (full re-sort per event) control plane for
    /// the Rotary policy instead of the incrementally maintained priority
    /// index. The two paths are proven byte-equivalent by the property
    /// suite; this switch keeps whole-run equivalence testable.
    pub dense_control_plane: bool,
}

impl Default for DltSystemConfig {
    fn default() -> Self {
        DltSystemConfig {
            pool: GpuPoolSpec::paper_dlt_testbed(),
            checkpoint: CheckpointModel::ssd(),
            top_k: 5,
            seed: 0,
            faults: FaultPlan::from_env(),
            threads: rotary_par::configured_threads(),
            overhead_probe: None,
            dense_control_plane: false,
        }
    }
}

/// Outcome of one DLT workload run.
#[derive(Debug)]
pub struct DltRunResult {
    /// Policy name.
    pub policy: String,
    /// Final job states, parallel to the submitted specs.
    pub jobs: Vec<(DltJobSpec, JobState)>,
    /// Condensed statistics.
    pub summary: WorkloadSummary,
    /// Placement spans and live-progress snapshots.
    pub metrics: WorkloadMetrics,
    /// Virtual time when the last job finished.
    pub makespan: SimTime,
    /// TTR/TEE/TME overhead during the run (Table III). Real wall-clock
    /// time when the config installed an `overhead_probe`; zero otherwise.
    pub overheads: OverheadMeter,
}

impl DltRunResult {
    /// The §V-B2 attainment-progress metrics, evaluated retrospectively at
    /// virtual time `t` for every job — the raw values behind one Fig. 10
    /// violin.
    ///
    /// * accuracy-oriented: `current accuracy / target accuracy`;
    /// * convergence-oriented: `epochs at t / convergence-line` (the epoch
    ///   where the job converged), or `/ max epochs` if it never converged;
    /// * runtime-oriented: `epochs at t / budget`.
    pub fn attainment_progress_at(&self, t: SimTime) -> Vec<f64> {
        self.jobs
            .iter()
            .map(|(spec, state)| {
                let epochs_at = state.history.iter().take_while(|s| s.at <= t).count() as u64;
                let acc_at = state
                    .history
                    .iter()
                    .take_while(|s| s.at <= t)
                    .last()
                    .map(|s| s.metric_value)
                    .unwrap_or(0.0);
                match &spec.criterion {
                    CompletionCriterion::Accuracy { threshold, .. } => {
                        (acc_at / threshold).clamp(0.0, 1.0)
                    }
                    CompletionCriterion::Convergence { delta, deadline, .. } => {
                        let max_e = deadline.epochs().unwrap_or(30);
                        // Retrospective convergence-line: the first epoch
                        // whose observed improvement fell within delta.
                        let line = state
                            .history
                            .windows(2)
                            .position(|w| (w[1].metric_value - w[0].metric_value).abs() <= *delta)
                            .map(|i| (i + 2) as u64)
                            .unwrap_or(max_e)
                            .max(1);
                        (epochs_at as f64 / line as f64).clamp(0.0, 1.0)
                    }
                    CompletionCriterion::Runtime { runtime } => match runtime {
                        rotary_core::criteria::Deadline::Epochs(budget) => {
                            (epochs_at as f64 / (*budget).max(1) as f64).clamp(0.0, 1.0)
                        }
                        rotary_core::criteria::Deadline::Time(budget) => {
                            let end =
                                state.finished_at.map(|f| f.min(t)).unwrap_or(t).as_secs_f64();
                            (end / budget.as_secs_f64().max(1e-9)).clamp(0.0, 1.0)
                        }
                    },
                }
            })
            .collect()
    }

    /// Number of genuinely attained jobs by time `t`.
    pub fn attained_by(&self, t: SimTime) -> usize {
        self.jobs
            .iter()
            .filter(|(_, s)| {
                s.status == JobStatus::Attained && s.finished_at.map(|f| f <= t).unwrap_or(false)
            })
            .count()
    }
}

/// One job's run state: the shared bookkeeping plus the training
/// simulation, its epoch estimator, and where it last ran.
pub struct RunJob {
    base: JobBase,
    spec: DltJobSpec,
    sim: TrainingSim,
    tee: JointCurveEstimator,
    memory_estimate_mb: u64,
    true_memory_mb: u64,
    converged_flag: bool,
    last_device: Option<usize>,
}

impl Job for RunJob {
    fn base(&self) -> &JobBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut JobBase {
        &mut self.base
    }
}

/// The DLT-specific half of a run, next to the shared [`Loop`].
pub struct DltRunExt {
    pool: GpuPool,
    meter: OverheadMeter,
    ttr: Ttr,
    /// Incremental control-plane state; derived, rebuilt lazily after a
    /// durable restore, never snapshotted.
    arb: DltArbCaches,
}

/// The non-job inputs a DLT arbitration pass reads. Matching the state the
/// previous pass left behind (with no job dirtied since) proves re-running
/// the pass would place nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct DltFingerprint {
    free_devices: Vec<usize>,
    spike: u64,
}

/// Incrementally maintained control-plane caches for the Rotary-DLT
/// threshold policy: the trial FIFO, standing fairness- and
/// efficiency-phase orders (both maintained at once — the phase flip just
/// selects which to read), a counter-based phase predicate, and decision
/// memoization. Baselines (SRF/BCF/LAF) mutate rank-time state (the
/// round-robin cursor) and keep the dense path.
#[derive(Debug, Default)]
struct DltArbCaches {
    /// Arbitrable never-run jobs, served FIFO (ascending id) first so
    /// estimates get real-time grounding.
    trial: BTreeSet<u32>,
    /// Fairness-phase order over arbitrable warm jobs:
    /// (progress, arrival) ascending.
    fair: PriorityIndex<(OrdF64, SimTime)>,
    /// Efficiency-phase order over arbitrable warm jobs whose φ̂ is
    /// clock-free: (−φ̂, arrival) ascending.
    eff: PriorityIndex<(OrdF64, SimTime)>,
    /// Arbitrable warm jobs whose φ̂ depends on the clock (time-budget
    /// runtime criteria); re-keyed fresh and merged into the efficiency
    /// order at each pass.
    eff_dynamic: BTreeSet<u32>,
    /// Per-job phase predicate (progress ≥ T, considered converged, or
    /// terminal) as last folded into `n_satisfied`.
    satisfied: Vec<bool>,
    /// Jobs currently satisfying the predicate; the efficiency phase holds
    /// iff this equals the job count (Algorithm 3's phase switch).
    n_satisfied: usize,
    /// Decision memoization over the non-job inputs.
    memo: DecisionCache<DltFingerprint>,
}

/// The Rotary-DLT system.
pub struct DltSystem {
    config: DltSystemConfig,
    history: HistoryRepository,
    tme: Tme,
}

impl DltSystem {
    /// Creates a system with an empty history repository.
    pub fn new(config: DltSystemConfig) -> DltSystem {
        let tme = Tme { top_k: config.top_k, ..Tme::default() };
        DltSystem { config, history: HistoryRepository::new(), tme }
    }

    /// Read access to the repository.
    pub fn history(&self) -> &HistoryRepository {
        &self.history
    }

    /// Mutable access (the Fig. 11 experiment strips NLP records).
    pub fn history_mut(&mut self) -> &mut HistoryRepository {
        &mut self.history
    }

    /// Runs every workload job once, uncontended, to populate the
    /// repository — the completed historical jobs the estimators rely on.
    /// Returns the number of records inserted.
    pub fn prepopulate_history(&mut self, specs: &[DltJobSpec], seed: u64) -> usize {
        // The uncontended historical runs are independent (each owns its
        // seeded TrainingSim), so they execute concurrently on the host's
        // threads; insertion stays serial, in fixed spec order, so the
        // repository's contents are independent of thread scheduling.
        let host = rotary_par::ThreadPool::new(self.config.threads);
        let curves: Vec<(Vec<(f64, f64)>, u64)> = host.map(specs, |i, spec| {
            let mut sim = TrainingSim::new(spec.config, seed ^ ((i as u64 + 1) * 0x9e3));
            let epochs = spec.max_epochs().clamp(5, 40);
            let mut curve = Vec::with_capacity(epochs as usize);
            for e in 1..=epochs {
                curve.push((e as f64, sim.train_epoch()));
            }
            (curve, epochs)
        });
        for (spec, (curve, epochs)) in specs.iter().zip(curves) {
            self.history.insert(job_record(&spec.config, curve, epochs));
        }
        specs.len()
    }

    /// Algorithm 4: attainment progress of a job.
    ///
    /// `observed_acc` carries the job's latest evaluation when computing
    /// *current* progress; pass `None` to compute the *estimated* progress
    /// after one more epoch (φ̂), which falls back to TEE's accuracy-epoch
    /// curve.
    fn progress_at(
        job: &RunJob,
        epochs: u64,
        observed_acc: Option<f64>,
        now: SimTime,
        meter: &mut OverheadMeter,
    ) -> f64 {
        match &job.spec.criterion {
            CompletionCriterion::Runtime { runtime } => match runtime {
                // "the ratio of current runtime (e.g., number of epochs) to
                // the runtime threshold" — in whichever unit the user chose.
                rotary_core::criteria::Deadline::Epochs(budget) => {
                    (epochs as f64 / (*budget).max(1) as f64).clamp(0.0, 1.0)
                }
                rotary_core::criteria::Deadline::Time(budget) => {
                    (now.as_secs_f64() / budget.as_secs_f64().max(1e-9)).clamp(0.0, 1.0)
                }
            },
            CompletionCriterion::Accuracy { threshold, deadline, .. } => {
                match observed_acc {
                    // §V-B2: accuracy-oriented attainment progress is
                    // `current accuracy / completion criteria`.
                    Some(a) => (a / threshold).clamp(0.0, 1.0),
                    // For the next-epoch estimate, measure the epoch
                    // fraction of TEE's epochs-to-threshold answer. The
                    // predicted-accuracy ratio saturates at 1.0 as soon
                    // as the fitted curve crosses the threshold, so every
                    // fast-converging job ties and the estimate drops out
                    // of the efficiency ranking; the epoch fraction stays
                    // ordered by estimated remaining work, which is what
                    // mis-estimation must be able to distort (Fig. 11).
                    None => {
                        let e_max = deadline.epochs().unwrap_or(30).max(1);
                        let e_hat = meter.measure(Component::Tee, || {
                            estimate_epochs_to_accuracy(&job.tee, *threshold)
                                .unwrap_or(e_max)
                                .clamp(1, e_max)
                        });
                        // ê at or below the lookahead epoch means "attains
                        // by then" — full estimated progress.
                        (epochs as f64 / e_hat.max(epochs) as f64).clamp(0.0, 1.0)
                    }
                }
            }
            CompletionCriterion::Convergence { delta, deadline, .. } => {
                let e_max = deadline.epochs().unwrap_or(30).max(1);
                // Expected convergence epoch from the fitted curve: with
                // acc = a + b·ln(1+e), the per-epoch gain is ≈ b/(1+e), so
                // the gain falls to `delta` at ê = b/delta − 1.
                let e_hat = meter.measure(Component::Tee, || match job.tee.fit() {
                    Ok(curve) => {
                        let b = curve.slope().max(0.0);
                        let raw = (b / delta.max(1e-9) - 1.0).ceil() as i64;
                        raw.clamp(1, e_max as i64) as u64
                    }
                    Err(_) => e_max,
                });
                // The job demonstrably has NOT converged yet (its criterion
                // has not fired), so an estimate at or below the completed
                // epochs is stale — clamp it one epoch ahead, keeping the
                // job visibly unfinished to the fairness objective.
                let e_hat = e_hat.max(epochs + 1);
                (epochs as f64 / e_hat as f64).clamp(0.0, 1.0)
            }
        }
    }

    /// Runs a workload under a policy.
    pub fn run(&mut self, specs: &[DltJobSpec], policy: DltPolicy) -> DltRunResult {
        match arb::run(self, specs, policy) {
            Ok(result) => result,
            Err(never) => match never {},
        }
    }

    /// [`DltSystem::run`] with durable snapshotting — see
    /// [`arb::run_durable`].
    pub fn run_durable(
        &mut self,
        specs: &[DltJobSpec],
        policy: DltPolicy,
        durable: &DurableConfig,
    ) -> rotary_core::error::Result<DurableOutcome<DltRunResult>> {
        arb::run_durable(self, specs, policy, durable)
    }

    /// Resumes a killed [`DltSystem::run_durable`] run from the newest
    /// valid snapshot — see [`arb::resume_durable`].
    pub fn resume_durable(
        &mut self,
        specs: &[DltJobSpec],
        policy: DltPolicy,
        durable: &DurableConfig,
    ) -> rotary_core::error::Result<DurableOutcome<DltRunResult>> {
        arb::resume_durable(self, specs, policy, durable)
    }

    /// Archives a finished job's observed curve: "all the completed jobs'
    /// information are stored".
    fn archive(&mut self, job: &RunJob) {
        let curve: Vec<(f64, f64)> =
            job.base.core.history.iter().map(|s| (s.epoch as f64, s.metric_value)).collect();
        self.history.insert(job_record(&job.spec.config, curve, job.base.core.epochs_run));
    }

    /// Ranks arbitrable job indices per the policy.
    #[allow(clippy::too_many_arguments)]
    fn rank(
        &self,
        jobs: &mut [RunJob],
        indices: Vec<usize>,
        now: SimTime,
        policy: DltPolicy,
        meter: &mut OverheadMeter,
        rr_cursor: &mut usize,
    ) -> Vec<usize> {
        match policy {
            DltPolicy::Rotary(objective) => {
                // Algorithm 3 on explicit total-order keys: the phase is
                // decided over the WHOLE workload (efficiency once every job
                // reaches T progress or is considered converged), then
                // arbitrable jobs sort under that phase — lowest current
                // progress first in the fairness phase, highest estimated
                // next-epoch progress first in the efficiency phase, FIFO
                // (arrival, then id) breaking ties.
                let threshold = objective.threshold();
                let efficiency = jobs.iter().all(|j| Self::phase_satisfied(j, threshold));

                // Trial phase: never-run jobs go first (FIFO) so estimates
                // get real-time grounding.
                let (trial, rest): (Vec<usize>, Vec<usize>) =
                    indices.into_iter().partition(|&i| jobs[i].base.core.epochs_run == 0);
                let mut keyed: Vec<((OrdF64, SimTime), usize)> = rest
                    .into_iter()
                    .map(|i| {
                        let key = if efficiency {
                            let phi_hat = Self::progress_at(
                                &jobs[i],
                                jobs[i].base.core.epochs_run + 1,
                                None,
                                now,
                                meter,
                            );
                            // Negated: highest estimated progress first.
                            OrdF64::new(-phi_hat)
                        } else {
                            OrdF64::new(jobs[i].base.core.progress())
                        };
                        ((key, jobs[i].base.core.arrival), i)
                    })
                    .collect();
                keyed.sort_unstable();
                trial.into_iter().chain(keyed.into_iter().map(|(_, i)| i)).collect()
            }
            DltPolicy::Srf | DltPolicy::Bcf | DltPolicy::Laf => {
                // Priority group by criterion family, round-robin the rest.
                let group_key = |spec: &DltJobSpec| -> Option<f64> {
                    match (&spec.criterion, policy) {
                        (CompletionCriterion::Runtime { runtime }, DltPolicy::Srf) => {
                            // Shortest *runtime* first: commensurate epoch
                            // and time budgets via the job's own epoch cost.
                            Some(match runtime {
                                rotary_core::criteria::Deadline::Epochs(e) => {
                                    *e as f64 * spec.config.epoch_time(1.0).as_secs_f64()
                                }
                                rotary_core::criteria::Deadline::Time(t) => t.as_secs_f64(),
                            })
                        }
                        (CompletionCriterion::Convergence { delta, .. }, DltPolicy::Bcf) => {
                            Some(-*delta)
                        }
                        (CompletionCriterion::Accuracy { threshold, .. }, DltPolicy::Laf) => {
                            Some(*threshold)
                        }
                        _ => None,
                    }
                };
                let mut priority: Vec<(usize, f64)> = Vec::new();
                let mut rest: Vec<usize> = Vec::new();
                for &i in &indices {
                    match group_key(&jobs[i].spec) {
                        Some(k) => priority.push((i, k)),
                        None => rest.push(i),
                    }
                }
                priority.sort_by_key(|&(i, k)| (OrdF64::new(k), i));
                rest.sort_unstable();
                if !rest.is_empty() {
                    let n = rest.len();
                    rest.rotate_left(*rr_cursor % n);
                    *rr_cursor = (*rr_cursor + 1) % n;
                }
                priority.into_iter().map(|(i, _)| i).chain(rest).collect()
            }
        }
    }

    /// Algorithm 3's per-job phase predicate: the job no longer holds the
    /// workload in the fairness phase.
    fn phase_satisfied(j: &RunJob, threshold: f64) -> bool {
        j.base.core.progress() >= threshold || j.converged_flag || j.base.core.status.is_terminal()
    }

    /// Whether the job's estimated next-epoch progress φ̂ depends on the
    /// clock (time-budget runtime criteria) rather than on job state alone.
    /// Such keys cannot stand in an index between events; they are re-keyed
    /// fresh at every efficiency-phase pass.
    fn phi_hat_is_dynamic(j: &RunJob) -> bool {
        matches!(
            &j.spec.criterion,
            CompletionCriterion::Runtime { runtime: rotary_core::criteria::Deadline::Time(_) }
        )
    }

    /// First-touch build of the control-plane caches: decides whether the
    /// indexed path is active and, if so, keys every job.
    fn build_dlt_caches(
        &self,
        ext: &mut DltRunExt,
        marks: &mut Marks,
        jobs: &[RunJob],
        policy: DltPolicy,
        now: SimTime,
    ) {
        marks.built = true;
        let objective = match policy {
            DltPolicy::Rotary(objective) if !self.config.dense_control_plane => objective,
            _ => {
                marks.enabled = false;
                return;
            }
        };
        marks.enabled = true;
        let DltRunExt { arb, meter, .. } = ext;
        arb.trial.clear();
        arb.fair.clear();
        arb.eff.clear();
        arb.eff_dynamic.clear();
        arb.satisfied = vec![false; jobs.len()];
        arb.n_satisfied = 0;
        marks.dirty.clear();
        arb.memo.invalidate();
        let threshold = objective.threshold();
        for i in 0..jobs.len() {
            Self::dlt_refresh_job(arb, jobs, i, threshold, now, meter);
        }
        // A build absorbs marks that were dropped while the caches were
        // down (the event preceding a lazy rebuild after a durable restore
        // fires before `enabled` is known): every job is a metrics
        // candidate for the next row; the recorder's bit-compare drops the
        // unchanged ones.
        marks.touched = (0..jobs.len() as u32).collect();
    }

    /// Re-derives one job's control-plane entries from its current state:
    /// the phase-predicate counter, trial membership, and the standing
    /// fairness/efficiency keys. Idempotent; O(log n).
    fn dlt_refresh_job(
        arb: &mut DltArbCaches,
        jobs: &[RunJob],
        i: usize,
        threshold: f64,
        now: SimTime,
        meter: &mut OverheadMeter,
    ) {
        let id = i as u32;
        let j = &jobs[i];
        let sat = Self::phase_satisfied(j, threshold);
        if sat != arb.satisfied[i] {
            arb.satisfied[i] = sat;
            if sat {
                arb.n_satisfied += 1;
            } else {
                arb.n_satisfied -= 1;
            }
        }
        if !j.base.core.status.is_arbitrable() {
            arb.trial.remove(&id);
            arb.fair.remove(id);
            arb.eff.remove(id);
            arb.eff_dynamic.remove(&id);
            return;
        }
        if j.base.core.epochs_run == 0 {
            // Trial phase: FIFO by id, no keys needed.
            arb.trial.insert(id);
            arb.fair.remove(id);
            arb.eff.remove(id);
            arb.eff_dynamic.remove(&id);
            return;
        }
        arb.trial.remove(&id);
        arb.fair.upsert(id, (OrdF64::new(j.base.core.progress()), j.base.core.arrival));
        if Self::phi_hat_is_dynamic(j) {
            arb.eff.remove(id);
            arb.eff_dynamic.insert(id);
        } else {
            let phi_hat = Self::progress_at(j, j.base.core.epochs_run + 1, None, now, meter);
            // Negated: highest estimated progress first.
            arb.eff.upsert(id, (OrdF64::new(-phi_hat), j.base.core.arrival));
            arb.eff_dynamic.remove(&id);
        }
    }

    /// Merges two ascending `((key, arrival), id)` streams into one
    /// ascending id stream — the standing efficiency order and the
    /// freshly-keyed clock-dependent jobs.
    fn merge_orders<'a>(
        a: impl Iterator<Item = ((OrdF64, SimTime), u32)> + 'a,
        b: impl Iterator<Item = ((OrdF64, SimTime), u32)> + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        let mut a = a.peekable();
        let mut b = b.peekable();
        std::iter::from_fn(move || {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => x <= y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            let (_, id) = if take_a { a.next()? } else { b.next()? };
            Some(id as usize)
        })
    }

    /// Walks the priority order, placing every job that fits a free device
    /// (Algorithm 3's m̂ ≤ M_d test, last-device affinity first). Returns
    /// the placed job indices and the jobs whose launch OOM-failed (their
    /// memory estimate was corrected in place). Breaks out as soon as the
    /// pool has no free device: every remaining iteration would no-op, and
    /// placement is the only way free devices shrink.
    #[allow(clippy::too_many_arguments)]
    fn place_jobs(
        &self,
        jobs: &mut [RunJob],
        order: impl Iterator<Item = usize>,
        now: SimTime,
        pool: &mut GpuPool,
        events: &mut EventQueue<Event>,
        metrics: &mut WorkloadMetrics,
        spike: u64,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut placed: Vec<usize> = Vec::new();
        let mut oom: Vec<usize> = Vec::new();
        for i in order {
            if !pool.has_free() {
                break;
            }
            let estimate = jobs[i].memory_estimate_mb.saturating_add(spike);
            // Prefer the device the job last ran on (its state may still be
            // resident); otherwise first fit (Algorithm 3's m̂ ≤ M_d test).
            let device = match jobs[i].last_device {
                Some(d)
                    if pool.device_of(jobs[i].base.core.id).is_none()
                        && pool.is_free(d)
                        && self.config.pool.devices[d].memory_mb >= estimate =>
                {
                    Some(d)
                }
                _ => pool.first_fit(estimate),
            };
            let Some(device) = device else { continue };

            let job = &mut jobs[i];
            // OOM: the estimate under-shot the device and the true footprint
            // does not fit. The launch fails fast — the device is free again
            // within this pass — the system learns the real footprint, and
            // the job returns to the queue.
            if self.config.pool.devices[device].memory_mb < job.true_memory_mb {
                job.memory_estimate_mb = job.true_memory_mb;
                job.base.core.checkpoints += 1;
                oom.push(i);
                continue;
            }
            pool.place(job.base.core.id, device);
            placed.push(i);

            let speed = self.config.pool.devices[device].speed;
            let mut duration = job.spec.config.epoch_time(speed);
            if job.base.core.epochs_run == 0 {
                duration += CUDA_WARMUP;
            }
            let same_device = job.last_device == Some(device);
            if job.base.core.epochs_run > 0 && (!job.base.in_memory || !same_device) {
                let mut restore = self.config.checkpoint.restore_cost(job.true_memory_mb);
                job.base.restores += 1;
                if self.config.faults.restore(job.base.core.id.0, job.base.restores).is_err() {
                    // A corrupt read is retried from the replica; the job
                    // pays the restore path twice.
                    restore += self.config.checkpoint.restore_cost(job.true_memory_mb);
                    metrics.recovery_of(job.base.core.id).restore_failures += 1;
                }
                duration += restore;
            }
            job.base.in_memory = true;
            job.last_device = Some(device);
            job.base.epoch_start = now;
            job.base.core.status = JobStatus::Running;
            match self.config.faults.epoch_fault(
                job.base.core.id.0,
                job.base.core.epochs_run + 1,
                job.base.fault_attempts,
            ) {
                EpochFault::Crash { wasted_fraction } => {
                    // The epoch dies partway through: the device burns the
                    // wasted span, the training work never lands.
                    job.base.in_memory = false;
                    events.schedule(now + duration.scale(wasted_fraction), Event::EpochFailed(i));
                }
                EpochFault::Straggler { slowdown } => {
                    metrics.recovery_of(job.base.core.id).stragglers += 1;
                    events.schedule(now + duration.scale(slowdown), Event::EpochDone(i));
                }
                EpochFault::None => {
                    events.schedule(now + duration, Event::EpochDone(i));
                }
            }
        }
        (placed, oom)
    }

    /// A job that just finished an epoch but was not re-placed is
    /// checkpointed to disk.
    fn pause_if_idle(&self, job: &mut RunJob, metrics: &mut WorkloadMetrics) {
        if job.base.core.status == JobStatus::Active && job.base.in_memory {
            job.base.in_memory = false;
            job.base.core.checkpoints += 1;
            job.base.ckpt_writes += 1;
            if self
                .config
                .faults
                .checkpoint_write(job.base.core.id.0, job.base.ckpt_writes)
                .is_err()
            {
                // The write is retried against the replica off the
                // critical path; only the failure is recorded.
                metrics.recovery_of(job.base.core.id).checkpoint_failures += 1;
            }
            job.base.core.status = JobStatus::Checkpointed;
        }
    }

    /// If transient pressure (and nothing else) is what kept a queued job
    /// off an otherwise-fitting device, make sure the system re-arbitrates
    /// when the pressure slot ends — the event queue may otherwise drain.
    fn schedule_wake_if_blocked(
        &self,
        jobs: &[RunJob],
        now: SimTime,
        pool: &GpuPool,
        events: &mut EventQueue<Event>,
        spike: u64,
    ) {
        if spike > 0 {
            let blocked = jobs.iter().any(|j| {
                j.base.core.status.is_arbitrable() && pool.first_fit(j.memory_estimate_mb).is_some()
            });
            if blocked {
                let slot_ms = self.config.faults.config().mem_spike_slot.as_millis().max(1);
                let boundary = SimTime::from_millis((now.as_millis() / slot_ms + 1) * slot_ms);
                events.schedule(boundary, Event::Wake);
            }
        }
    }

    /// The indexed control plane: re-keys only dirtied jobs, reads the
    /// standing order for the current phase, and memoizes the decision when
    /// nothing changed.
    fn arbitrate_indexed(
        &self,
        lp: &mut Loop<RunJob>,
        ext: &mut DltRunExt,
        policy: DltPolicy,
        now: SimTime,
        ckpt_candidate: Option<usize>,
        spike: u64,
    ) {
        let DltPolicy::Rotary(objective) = policy else { return };
        let Loop { jobs, events, metrics, marks, .. } = lp;
        let DltRunExt { pool, meter, arb, .. } = ext;
        let threshold = objective.threshold();
        let dirty = std::mem::take(&mut marks.dirty);
        for &id in &dirty {
            Self::dlt_refresh_job(arb, jobs, id as usize, threshold, now, meter);
        }
        // `fair` and `eff ∪ eff_dynamic` hold exactly the warm arbitrable
        // jobs, `trial` the cold ones — together, the dense path's
        // arbitrable filter.
        if arb.trial.is_empty() && arb.fair.is_empty() {
            return;
        }
        // Decision memo. Only consulted at zero pressure: a hit while a
        // spike is active would skip re-scheduling the wake at the next
        // pressure-slot boundary and the queue could drain with jobs still
        // blocked. At spike == 0 the previous identical pass proved every
        // queued job unplaceable, and the wake tail is a no-op anyway.
        if dirty.is_empty() && spike == 0 {
            let fingerprint = DltFingerprint { free_devices: pool.free_devices(), spike };
            if arb.memo.hit(&fingerprint) {
                return;
            }
        }
        let efficiency = arb.n_satisfied == jobs.len();
        let (placed, oom) = if efficiency {
            // Clock-dependent φ̂ keys cannot stand in the index; key them
            // fresh and merge with the standing order.
            let mut dyn_keyed: Vec<((OrdF64, SimTime), u32)> = arb
                .eff_dynamic
                .iter()
                .map(|&id| {
                    let j = &jobs[id as usize];
                    let phi_hat =
                        Self::progress_at(j, j.base.core.epochs_run + 1, None, now, meter);
                    ((OrdF64::new(-phi_hat), j.base.core.arrival), id)
                })
                .collect();
            dyn_keyed.sort_unstable();
            let order = arb
                .trial
                .iter()
                .map(|&id| id as usize)
                .chain(Self::merge_orders(arb.eff.iter(), dyn_keyed.into_iter()));
            self.place_jobs(jobs, order, now, pool, events, metrics, spike)
        } else {
            let order = arb
                .trial
                .iter()
                .map(|&id| id as usize)
                .chain(arb.fair.iter().map(|(_, id)| id as usize));
            self.place_jobs(jobs, order, now, pool, events, metrics, spike)
        };
        // Placed jobs left the arbitrable set (Running) and OOM launches
        // corrected their memory estimate: both must be re-examined before
        // the next pass can trust the standing state.
        for &i in placed.iter().chain(oom.iter()) {
            marks.mark(i);
        }
        if let Some(i) = ckpt_candidate {
            self.pause_if_idle(&mut jobs[i], metrics);
        }
        arb.memo.store(DltFingerprint { free_devices: pool.free_devices(), spike });
        self.schedule_wake_if_blocked(jobs, now, pool, events, spike);
    }
}

impl Arbiter for DltSystem {
    type Spec = DltJobSpec;
    type Policy = DltPolicy;
    type Job = RunJob;
    type Ext = DltRunExt;
    type Outcome = DltRunResult;
    type BindError = std::convert::Infallible;

    fn faults(&self) -> &FaultPlan {
        &self.config.faults
    }

    fn open(&mut self, _policy: DltPolicy) -> DltRunExt {
        let meter = match self.config.overhead_probe {
            Some(probe) => OverheadMeter::with_clock(probe),
            None => OverheadMeter::default(),
        };
        DltRunExt {
            pool: GpuPool::new(self.config.pool.clone()),
            meter,
            ttr: Ttr::new(),
            arb: DltArbCaches::default(),
        }
    }

    /// Binds one spec at global job index `i`, arriving at `arrival`. The
    /// index seeds the training simulation, so a job admitted mid-run
    /// through the streaming seam binds identically to the same spec at
    /// the same position in a batch run. A job no device could ever host
    /// finishes `DeadlineMissed` on the spot: "these resources can only
    /// process one job at a time and are not sub-dividable", so it can
    /// never be placed and must not wait forever.
    fn bind(
        &mut self,
        ext: &mut DltRunExt,
        i: usize,
        spec: &DltJobSpec,
        _policy: DltPolicy,
        arrival: SimTime,
    ) -> Result<RunJob, Self::BindError> {
        let tee = ext.meter.measure(Component::Tee, || {
            build_tee(&spec.config, &mut self.history, self.config.top_k)
        });
        let memory_estimate_mb = ext.meter.measure(Component::Tme, || {
            self.tme
                .estimate_mb(&spec.config, &mut self.history)
                .unwrap_or_else(|| self.tme.cold_start_mb(&spec.config))
        });
        let mut core =
            JobState::new(JobId(i as u64), JobKind::Dlt, spec.criterion.clone(), arrival);
        core.status = JobStatus::Active;
        let mut job = RunJob {
            base: JobBase::new(core),
            sim: TrainingSim::new(spec.config, self.config.seed ^ ((i as u64 + 1) * 0x51)),
            tee,
            memory_estimate_mb,
            true_memory_mb: spec.config.memory_mb(),
            converged_flag: false,
            last_device: None,
            spec: spec.clone(),
        };
        let largest_device =
            self.config.pool.devices.iter().map(|d| d.memory_mb).max().unwrap_or(0);
        if job.true_memory_mb.max(job.memory_estimate_mb) > largest_device {
            job.base.core.finish(JobStatus::DeadlineMissed, arrival);
        }
        Ok(job)
    }

    /// All jobs are submitted at time zero: the run opens with the t = 0
    /// arbitration.
    fn begin(&mut self, lp: &mut Loop<RunJob>, ext: &mut DltRunExt, policy: DltPolicy) {
        self.arbitrate(lp, ext, policy, SimTime::ZERO, None);
    }

    /// Unlike a batch job, the newcomer arrives `Active` at `now`; a
    /// [`Event::Wake`] makes the next step re-arbitrate with it in the
    /// trial queue. A job no device could host was finished
    /// `DeadlineMissed` on the spot and surfaces at the next drain.
    fn admit(&mut self, lp: &mut Loop<RunJob>, ext: &mut DltRunExt, i: usize, now: SimTime) {
        if lp.marks.built && lp.marks.enabled {
            // The first cache build sized `satisfied` to the job count it
            // saw; grow it before marking so the re-key can fold the
            // newcomer into the phase predicate.
            ext.arb.satisfied.push(false);
            lp.marks.mark(i);
        }
        lp.events.schedule(now, Event::Wake);
    }

    fn complete_epoch(
        &mut self,
        lp: &mut Loop<RunJob>,
        ext: &mut DltRunExt,
        i: usize,
        now: SimTime,
    ) {
        let Loop { jobs, metrics, terminals, .. } = lp;
        let job = &mut jobs[i];
        let device = match ext.pool.vacate(job.base.core.id) {
            Ok(device) => device,
            // Only a damaged-but-well-formed snapshot gets here (its events
            // name a job its pool record does not hold): the job fails with
            // the pool's typed error, as in the shared crash path.
            Err(e) => {
                job.base.core.failure = Some(e);
                terminals.finish(i, job, JobStatus::Failed, now);
                return self.retire(ext, job);
            }
        };
        let DltRunExt { meter, ttr, .. } = ext;
        let service = now - job.base.epoch_start;
        job.base.fault_attempts = 0;
        // The isolated baseline: GPUs are not shared, so an epoch costs the
        // same alone; only queueing differs.
        job.base.core.add_isolated_service(service);

        // Train + evaluate.
        let accuracy = job.sim.train_epoch();
        let epoch = job.base.core.epochs_run + 1;

        // TTR: record the epoch time net of the warm-up-affected first step.
        let net = if epoch == 1 { service.saturating_sub(CUDA_WARMUP) } else { service };
        meter.measure(Component::Ttr, || ttr.record(job.base.core.id, device, net));

        // TEE real-time observation.
        meter.measure(Component::Tee, || job.tee.observe(epoch as f64, accuracy));

        // Plateau detection feeds the "considered converged" flag of
        // Algorithm 3's phase switch.
        if let Some(prev) = job.base.core.latest() {
            if (accuracy - prev.metric_value).abs() < 0.002 && epoch >= 3 {
                job.converged_flag = true;
            }
        }

        let progress = Self::progress_at(job, epoch, Some(accuracy), now, meter);
        let state = IntermediateState { epoch, at: now, metric_value: accuracy, progress };
        let check = job.spec.criterion.check(&state, job.base.core.latest(), now);
        job.base.core.record_epoch(state, service);

        let status = match check {
            CriterionCheck::Attained => Some(JobStatus::Attained),
            CriterionCheck::DeadlineMissed => Some(JobStatus::DeadlineMissed),
            CriterionCheck::Continue => None,
        };
        metrics.record_span(PlacementSpan {
            job: job.base.core.id,
            resource: format!("gpu{device}"),
            start: job.base.epoch_start,
            end: now,
            attained_at_end: matches!(status, Some(JobStatus::Attained)),
        });
        match status {
            Some(s) => {
                terminals.finish(i, job, s, now);
                self.archive(job);
            }
            None => job.base.core.status = JobStatus::Active,
        }
    }

    fn arbitrate(
        &mut self,
        lp: &mut Loop<RunJob>,
        ext: &mut DltRunExt,
        policy: DltPolicy,
        now: SimTime,
        ckpt_candidate: Option<usize>,
    ) {
        // Transient co-located pressure shrinks what a device can host this
        // slot; zero under an inert plan.
        let spike = self.config.faults.memory_pressure_mb(now);
        if !lp.marks.built {
            self.build_dlt_caches(ext, &mut lp.marks, &lp.jobs, policy, now);
        }
        if lp.marks.enabled {
            return self.arbitrate_indexed(lp, ext, policy, now, ckpt_candidate, spike);
        }
        let Loop { jobs, events, metrics, rr_cursor, .. } = lp;
        let DltRunExt { pool, meter, .. } = ext;

        // Dense control plane: full re-rank per event (the baselines'
        // round-robin cursor requires it; the Rotary policy keeps it
        // reachable as the oracle behind `dense_control_plane`).
        let arbitrable: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.base.core.status.is_arbitrable())
            .map(|(i, _)| i)
            .collect();
        if arbitrable.is_empty() {
            return;
        }
        let ranked = self.rank(jobs, arbitrable, now, policy, meter, rr_cursor);
        let _ = self.place_jobs(jobs, ranked.into_iter(), now, pool, events, metrics, spike);

        // Jobs that just finished an epoch but were not re-placed are
        // checkpointed to disk.
        for job in jobs.iter_mut() {
            self.pause_if_idle(job, metrics);
        }
        self.schedule_wake_if_blocked(jobs, now, pool, events, spike);
    }

    /// The per-job value reported in progress snapshots.
    fn progress_of(j: &RunJob) -> f64 {
        if j.base.core.status == JobStatus::Attained {
            1.0
        } else {
            j.base.core.progress()
        }
    }

    /// DLT deadlines are epoch or time budgets checked at epoch end; a
    /// queued job is never expired by the clock.
    fn deadline_of(_job: &RunJob) -> Option<SimTime> {
        None
    }

    fn release(&mut self, ext: &mut DltRunExt, job: &mut RunJob) -> rotary_core::Result<String> {
        let device = ext.pool.vacate(job.base.core.id)?;
        Ok(format!("gpu{device}"))
    }

    fn retire(&mut self, _ext: &mut DltRunExt, job: &mut RunJob) {
        if job.base.core.epochs_run > 0 {
            // Partial curves are still valid history for estimators.
            self.archive(job);
        }
    }

    fn outcome(
        policy: DltPolicy,
        jobs: Vec<(DltJobSpec, JobState)>,
        summary: WorkloadSummary,
        metrics: WorkloadMetrics,
        makespan: SimTime,
        ext: DltRunExt,
    ) -> DltRunResult {
        DltRunResult {
            policy: policy.name(),
            jobs,
            summary,
            metrics,
            makespan,
            overheads: ext.meter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{fig11_microbenchmark, DltWorkloadBuilder};
    use rotary_core::json::{self, Json};

    fn quick() -> DltSystemConfig {
        DltSystemConfig { seed: 5, ..Default::default() }
    }

    #[test]
    fn all_jobs_terminate() {
        let specs = DltWorkloadBuilder::paper().jobs(12).seed(3).build();
        for policy in DltPolicy::all() {
            let mut sys = DltSystem::new(quick());
            let r = sys.run(&specs, policy);
            for (spec, state) in &r.jobs {
                assert!(
                    state.status.is_terminal(),
                    "{} left {} in {:?}",
                    r.policy,
                    spec.config.arch,
                    state.status
                );
                assert!(state.epochs_run <= spec.max_epochs());
            }
            assert!(r.makespan > SimTime::ZERO);
        }
    }

    #[test]
    fn tme_follows_the_configured_top_k() {
        let specs = DltWorkloadBuilder::paper().jobs(24).seed(4).build();
        let policy = DltPolicy::Rotary(Objective::Efficiency);
        // The memory estimate each job binds with, next to what a TME with
        // that `top_k` answers when asked directly.
        let estimates = |top_k: usize| -> (Vec<u64>, Vec<u64>) {
            let mut sys = DltSystem::new(DltSystemConfig { top_k, ..quick() });
            sys.prepopulate_history(&specs, 1);
            let mut ext = sys.open(policy);
            let tme = Tme { top_k, ..Tme::default() };
            let bound = specs.iter().enumerate().map(|(i, spec)| {
                match sys.bind(&mut ext, i, spec, policy, SimTime::ZERO) {
                    Ok(job) => job.memory_estimate_mb,
                    Err(never) => match never {},
                }
            });
            let bound: Vec<u64> = bound.collect();
            let direct = specs.iter().map(|spec| {
                tme.estimate_mb(&spec.config, &mut sys.history)
                    .unwrap_or_else(|| tme.cold_start_mb(&spec.config))
            });
            (bound, direct.collect())
        };
        let (two, two_direct) = estimates(2);
        let (five, five_direct) = estimates(5);
        assert_eq!(two, two_direct);
        assert_eq!(five, five_direct);
        assert_ne!(two, five, "top_k must reach the memory estimator");
    }

    #[test]
    fn an_epoch_completion_for_a_job_on_no_device_fails_that_job_without_panicking() {
        // Reachable from a damaged-but-well-formed snapshot: its events name
        // a job its pool record does not hold. Six jobs on four GPUs leave
        // job 5 queued; forge an epoch completion for it.
        let specs = DltWorkloadBuilder::paper().jobs(6).seed(3).build();
        let policy = DltPolicy::Rotary(Objective::Efficiency);
        let mut sys = DltSystem::new(quick());
        let live = match arb::Run::start(&mut sys, &specs, policy) {
            Ok(run) => run,
            Err(never) => match never {},
        };
        let mut records = live.snapshot(&sys, 1).expect("snapshot");
        let events = records.iter_mut().find(|(name, _)| name == "events").expect("events record");
        let text = String::from_utf8(events.1.clone()).expect("utf-8");
        let mut doc = json::parse(&text).expect("events parse");
        if let Json::Obj(pairs) = &mut doc {
            if let Some((_, Json::Arr(entries))) = pairs.iter_mut().find(|(k, _)| k == "entries") {
                let forged_entry =
                    [("at", "1"), ("seq", "999"), ("kind", "epoch-done"), ("job", "5")]
                        .map(|(k, v)| (k, Json::Str(v.to_string())));
                entries.insert(0, Json::obj(forged_entry.to_vec()));
            }
        }
        let forged = doc.to_compact();
        assert_ne!(forged, text);
        events.1 = forged.into_bytes();

        let mut sys = DltSystem::new(quick());
        let resumed = arb::Run::restore(&mut sys, specs, policy, &records).expect("restore");
        let result = resumed.finish(&mut sys);
        let (_, forged_job) = &result.jobs[5];
        assert_eq!(forged_job.status, JobStatus::Failed);
        assert!(matches!(forged_job.failure, Some(rotary_core::RotaryError::UnknownJob(5))));
        assert!(result.jobs.iter().all(|(_, state)| state.status.is_terminal()));
    }

    #[test]
    fn runtime_jobs_always_attain_exactly_their_budget() {
        let specs = DltWorkloadBuilder::paper().jobs(24).seed(9).build();
        let mut sys = DltSystem::new(quick());
        let r = sys.run(&specs, DltPolicy::Rotary(Objective::Efficiency));
        for (spec, state) in &r.jobs {
            if let CompletionCriterion::Runtime { runtime } = &spec.criterion {
                assert_eq!(state.status, JobStatus::Attained);
                assert_eq!(state.epochs_run, runtime.epochs().unwrap());
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let specs = DltWorkloadBuilder::paper().jobs(10).seed(4).build();
        let mut s1 = DltSystem::new(quick());
        let r1 = s1.run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5)));
        let mut s2 = DltSystem::new(quick());
        let r2 = s2.run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5)));
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.summary, r2.summary);
    }

    #[test]
    fn fairness_pushes_minimum_progress_faster_than_efficiency() {
        let specs = DltWorkloadBuilder::paper().jobs(16).seed(11).build();
        let mut fair_sys = DltSystem::new(quick());
        fair_sys.prepopulate_history(&specs, 77);
        let fair = fair_sys.run(&specs, DltPolicy::Rotary(Objective::Fairness));
        let mut eff_sys = DltSystem::new(quick());
        eff_sys.prepopulate_history(&specs, 77);
        let eff = eff_sys.run(&specs, DltPolicy::Rotary(Objective::Efficiency));

        // At the quarter-makespan mark, fairness should have a higher
        // minimum attainment progress; efficiency should have completed at
        // least as many jobs by the same (absolute) time.
        let t = SimTime::from_millis(fair.makespan.as_millis() / 4);
        let min_fair = fair.attainment_progress_at(t).into_iter().fold(f64::INFINITY, f64::min);
        let min_eff = eff.attainment_progress_at(t).into_iter().fold(f64::INFINITY, f64::min);
        assert!(min_fair >= min_eff, "fairness min progress {min_fair} < efficiency {min_eff}");
        assert!(eff.attained_by(t) >= fair.attained_by(t));
    }

    #[test]
    fn gpu_count_speeds_up_the_workload() {
        let specs = DltWorkloadBuilder::paper().jobs(12).seed(6).build();
        let mut small = DltSystem::new(DltSystemConfig {
            pool: GpuPoolSpec::homogeneous(2, 8 * 1024),
            ..quick()
        });
        let r2 = small.run(&specs, DltPolicy::Rotary(Objective::Efficiency));
        let mut big = DltSystem::new(DltSystemConfig {
            pool: GpuPoolSpec::homogeneous(8, 8 * 1024),
            ..quick()
        });
        let r8 = big.run(&specs, DltPolicy::Rotary(Objective::Efficiency));
        assert!(r8.makespan < r2.makespan, "8 GPUs {} !< 2 GPUs {}", r8.makespan, r2.makespan);
    }

    /// Deterministic probe: ticks one microsecond per read, so the meter
    /// charges exactly one tick per measured call.
    fn test_probe() -> std::time::Duration {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICKS: AtomicU64 = AtomicU64::new(0);
        std::time::Duration::from_micros(TICKS.fetch_add(1, Ordering::Relaxed))
    }

    #[test]
    fn overheads_are_measured_when_probed_and_small() {
        let specs = DltWorkloadBuilder::paper().jobs(10).seed(2).build();
        let mut sys =
            DltSystem::new(DltSystemConfig { overhead_probe: Some(test_probe), ..quick() });
        sys.prepopulate_history(&specs, 5);
        let r = sys.run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5)));
        // The estimators ran under the meter (one probe tick per call); a
        // 10-job workload makes only a bounded number of estimator calls —
        // the Table III "imperceptible overhead" claim in tick units.
        let total = r.overheads.tee + r.overheads.tme + r.overheads.ttr;
        assert!(total > std::time::Duration::ZERO);
        assert!(total < std::time::Duration::from_secs(1), "overhead {total:?}");
    }

    #[test]
    fn default_config_runs_without_wall_clock_overhead_probe() {
        let specs = DltWorkloadBuilder::paper().jobs(3).seed(2).build();
        let mut sys = DltSystem::new(quick());
        let r = sys.run(&specs, DltPolicy::Srf);
        let total = r.overheads.tee + r.overheads.tme + r.overheads.ttr;
        assert_eq!(total, std::time::Duration::ZERO, "inert meter must charge nothing");
    }

    #[test]
    fn history_accumulates_completed_jobs() {
        let specs = DltWorkloadBuilder::paper().jobs(6).seed(8).build();
        let mut sys = DltSystem::new(quick());
        assert!(sys.history().is_empty());
        sys.run(&specs, DltPolicy::Srf);
        assert_eq!(sys.history().len(), 6);
    }

    #[test]
    fn fig11_jobs_complete_under_both_estimation_regimes() {
        // The paper contends eight jobs; two devices keep the queue deep
        // enough that rank position translates into placement delay.
        let contended =
            || DltSystemConfig { pool: GpuPoolSpec::homogeneous(2, 8 * 1024), ..quick() };
        let specs = fig11_microbenchmark();
        // Reliable estimation: history contains everything.
        let mut good = DltSystem::new(contended());
        good.prepopulate_history(&specs, 31);
        let with = good.run(&specs, DltPolicy::Rotary(Objective::Efficiency));
        // Erroneous estimation: NLP history stripped.
        let mut bad = DltSystem::new(contended());
        bad.prepopulate_history(&specs, 31);
        bad.history_mut().remove_where(|r| r.label.contains("LSTM") || r.label.contains("BERT"));
        let without = bad.run(&specs, DltPolicy::Rotary(Objective::Efficiency));
        for r in [&with, &without] {
            assert!(r.jobs.iter().all(|(_, s)| s.status.is_terminal()));
        }
        // The NLP jobs (indices 4, 5, 6) finish no later under reliable
        // estimation.
        let finish = |r: &DltRunResult, i: usize| r.jobs[i].1.finished_at.unwrap();
        let avg_with: u64 = (4..=6).map(|i| finish(&with, i).as_millis()).sum::<u64>() / 3;
        let avg_without: u64 = (4..=6).map(|i| finish(&without, i).as_millis()).sum::<u64>() / 3;
        assert!(
            avg_with <= avg_without,
            "reliable estimation should finish NLP jobs earlier: {avg_with} vs {avg_without}"
        );
    }

    #[test]
    fn unplaceable_jobs_are_rejected_not_stranded() {
        use crate::models::{Architecture, Optimizer};
        use crate::simulator::TrainingConfig;
        use rotary_core::criteria::{CompletionCriterion as C, Deadline};
        // A batch far beyond the Table II spaces: activations alone exceed
        // every 8 GB device.
        let monster = DltJobSpec {
            config: TrainingConfig {
                arch: Architecture::Vgg16,
                batch_size: 4096,
                optimizer: Optimizer::Adam,
                learning_rate: 0.001,
                pretrained: false,
            },
            criterion: C::Runtime { runtime: Deadline::Epochs(5) },
        };
        let normal = DltWorkloadBuilder::paper().jobs(3).seed(1).build();
        let mut specs = vec![monster];
        specs.extend(normal);
        let mut sys = DltSystem::new(quick());
        let r = sys.run(&specs, DltPolicy::Rotary(Objective::Efficiency));
        assert_eq!(r.jobs[0].1.status, JobStatus::DeadlineMissed, "monster rejected");
        assert_eq!(r.jobs[0].1.epochs_run, 0);
        // The rest of the workload is unaffected.
        assert!(r.jobs[1..].iter().all(|(_, s)| s.status.is_terminal()));
        assert_eq!(r.summary.unfinished, 0);
    }

    #[test]
    fn dense_and_indexed_control_planes_match() {
        let specs = DltWorkloadBuilder::paper().jobs(10).seed(21).build();
        for objective in [Objective::Threshold(0.5), Objective::Fairness, Objective::Efficiency] {
            let policy = DltPolicy::Rotary(objective);
            let mut dense_sys =
                DltSystem::new(DltSystemConfig { dense_control_plane: true, ..quick() });
            dense_sys.prepopulate_history(&specs, 77);
            let dense = dense_sys.run(&specs, policy);
            let mut indexed_sys = DltSystem::new(quick());
            indexed_sys.prepopulate_history(&specs, 77);
            let indexed = indexed_sys.run(&specs, policy);
            assert_eq!(dense.makespan, indexed.makespan, "{}", policy.name());
            assert_eq!(dense.summary, indexed.summary, "{}", policy.name());
            assert_eq!(
                dense.metrics.to_json().expect("metrics json"),
                indexed.metrics.to_json().expect("metrics json"),
                "{} traces must be byte-identical",
                policy.name()
            );
        }
    }

    #[test]
    fn placements_are_recorded_per_gpu() {
        let specs = DltWorkloadBuilder::paper().jobs(8).seed(14).build();
        let mut sys = DltSystem::new(quick());
        let r = sys.run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5)));
        assert!(!r.metrics.spans().is_empty());
        let gpus_used: std::collections::BTreeSet<&str> =
            r.metrics.spans().iter().map(|s| s.resource.as_str()).collect();
        assert!(gpus_used.len() >= 2, "multiple GPUs in use: {gpus_used:?}");
    }
}
