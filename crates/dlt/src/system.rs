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

use rotary_core::arb::{OrdF64, Standing, StandingOrder};
use rotary_core::criteria::{CompletionCriterion, CriterionCheck};
use rotary_core::estimate::JointCurveEstimator;
use rotary_core::history::HistoryRepository;
use rotary_core::job::{IntermediateState, JobId, JobKind, JobState, JobStatus};
use rotary_core::progress::Objective;
use rotary_core::resources::GpuPoolSpec;
use rotary_core::SimTime;
use rotary_faults::arbiter::{self as arb, Arbiter, Event, Job, JobBase, Loop};
use rotary_faults::{EpochFault, FaultPlan};
use rotary_sim::{CheckpointModel, EventQueue, GpuPool, WorkloadMetrics, WorkloadSummary};
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
    /// Fault-injection plan consulted by the control plane (default: the
    /// inert plan, which injects nothing and leaves the run byte-identical
    /// to a build without the fault layer).
    pub faults: FaultPlan,
    /// Host threads for start-up work — the uncontended training runs of
    /// [`DltSystem::prepopulate_history`] — not the simulated GPUs; a run
    /// itself is serial. Default 1; results are bit-identical across
    /// values.
    pub threads: usize,
    /// Monotonic probe for Table III overhead accounting. `None` (the
    /// default) keeps the arbitration loop free of wall-clock reads; the
    /// Table III harness installs `rotary_bench::timing::monotonic_probe`.
    pub overhead_probe: Option<crate::estimators::ProbeClock>,
}

impl Default for DltSystemConfig {
    fn default() -> Self {
        DltSystemConfig {
            pool: GpuPoolSpec::paper_dlt_testbed(),
            checkpoint: CheckpointModel::ssd(),
            top_k: 5,
            seed: 0,
            faults: FaultPlan::none(),
            threads: 1,
            overhead_probe: None,
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
    /// * runtime-oriented: `epochs at t / budget`, or time since
    ///   submission at t / budget.
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
                            let end = state.finished_at.map(|f| f.min(t)).unwrap_or(t);
                            let ran = (end - state.arrival).as_secs_f64();
                            (ran / budget.as_secs_f64().max(1e-9)).clamp(0.0, 1.0)
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
    /// Incremental control-plane state, never snapshotted: a started or
    /// restored run marks every job, so its first pass keys them all from
    /// job state.
    arb: DltArbCaches,
}

/// A Rotary-DLT phase order's key: never-run jobs first, all keyed alike so
/// they stand in id (FIFO) order; then warm jobs by (phase score, arrival).
type PhaseKey = (bool, OrdF64, SimTime);

/// Incrementally maintained control-plane state for the Rotary-DLT
/// threshold policy: the fairness- and efficiency-phase orders (both
/// maintained at once — the phase flip just selects which to read) and a
/// counter-based phase predicate. Each pass re-keys the jobs the shared
/// change tracking marked dirty; a job index seen for the first time grows
/// the predicate. Baselines (SRF/BCF/LAF) mutate rank-time state (the
/// round-robin cursor) and re-rank every pass, leaving this empty.
#[derive(Debug, Default)]
struct DltArbCaches {
    /// Fairness-phase order over arbitrable jobs: warm ones by current
    /// progress, lowest first.
    fairness: StandingOrder<PhaseKey>,
    /// Efficiency-phase order over arbitrable jobs: warm ones by estimated
    /// next-epoch progress φ̂, highest first.
    efficiency: StandingOrder<PhaseKey>,
    /// Per-job phase predicate (progress ≥ T, considered converged, or
    /// terminal) as last folded into `n_satisfied`.
    satisfied: Vec<bool>,
    /// Jobs currently satisfying the predicate; the efficiency phase holds
    /// iff this equals the job count (Algorithm 3's phase switch).
    n_satisfied: usize,
}

/// The Rotary-DLT system.
pub struct DltSystem {
    config: DltSystemConfig,
    history: HistoryRepository,
}

impl DltSystem {
    /// Creates a system with an empty history repository.
    pub fn new(config: DltSystemConfig) -> DltSystem {
        DltSystem { config, history: HistoryRepository::new() }
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
                    let ran = (now - job.base.core.arrival).as_secs_f64();
                    (ran / budget.as_secs_f64().max(1e-9)).clamp(0.0, 1.0)
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

    /// The baselines' ranking of arbitrable job indices: the policy's
    /// criterion family by its key, then everything else round-robin.
    fn rank(
        jobs: &[RunJob],
        indices: Vec<usize>,
        policy: DltPolicy,
        rr_cursor: &mut usize,
    ) -> Vec<usize> {
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
                (CompletionCriterion::Convergence { delta, .. }, DltPolicy::Bcf) => Some(-*delta),
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

    /// Algorithm 3's per-job phase predicate: the job no longer holds the
    /// workload in the fairness phase.
    fn phase_satisfied(j: &RunJob, threshold: f64) -> bool {
        j.base.core.progress() >= threshold || j.converged_flag || j.base.core.status.is_terminal()
    }

    /// A Rotary-DLT phase order's standing key for `j`: arbitrable jobs
    /// only; never-run jobs first, in id (FIFO) order, so estimates get
    /// real-time grounding; then warm jobs by lowest current progress in the
    /// fairness phase, or by highest estimated next-epoch progress φ̂ in the
    /// efficiency phase, arrival breaking ties. A φ̂ that moves with the
    /// clock (a time-budget runtime criterion) asks to be re-keyed at the
    /// next later pass.
    fn phase_key(
        j: &RunJob,
        efficiency: bool,
        now: SimTime,
        meter: &mut OverheadMeter,
    ) -> Standing<PhaseKey> {
        let core = &j.base.core;
        if !core.status.is_arbitrable() {
            return None;
        }
        if core.epochs_run == 0 {
            return Some(((false, OrdF64::new(0.0), SimTime::ZERO), None));
        }
        if !efficiency {
            return Some(((true, OrdF64::new(core.progress()), core.arrival), None));
        }
        let phi_hat = Self::progress_at(j, core.epochs_run + 1, None, now, meter);
        let clock_dependent = matches!(
            &j.spec.criterion,
            CompletionCriterion::Runtime { runtime: rotary_core::criteria::Deadline::Time(_) }
        );
        // Negated: highest estimated progress first.
        Some(((true, OrdF64::new(-phi_hat), core.arrival), clock_dependent.then_some(now)))
    }

    /// Folds job `i`'s phase predicate into the counter. Idempotent; the
    /// first fold of a job index grows the predicate.
    fn fold_phase(arb: &mut DltArbCaches, jobs: &[RunJob], i: usize, threshold: f64) {
        if arb.satisfied.len() <= i {
            arb.satisfied.resize(i + 1, false);
        }
        let sat = Self::phase_satisfied(&jobs[i], threshold);
        if sat != arb.satisfied[i] {
            arb.satisfied[i] = sat;
            if sat {
                arb.n_satisfied += 1;
            } else {
                arb.n_satisfied -= 1;
            }
        }
    }

    /// The indexed plane's reference: the phase re-derived from every job
    /// is the one the counter selects, and the standing order of that phase
    /// equals the dense sort of every job by the same key. Pure — its own
    /// inert meter, so a debug build cannot drift from release.
    #[cfg(debug_assertions)]
    fn check_order(arb: &DltArbCaches, jobs: &[RunJob], now: SimTime, threshold: f64) {
        let meter = &mut OverheadMeter::default();
        let efficiency = jobs.iter().all(|j| Self::phase_satisfied(j, threshold));
        assert_eq!(
            efficiency,
            arb.n_satisfied == jobs.len(),
            "the phase counter diverged from the phase predicate at {now:?}"
        );
        let standing = if efficiency { &arb.efficiency } else { &arb.fairness };
        let dense = StandingOrder::dense(0..jobs.len() as u32, |id| {
            Self::phase_key(&jobs[id as usize], efficiency, now, meter)
        });
        assert_eq!(
            standing.iter().collect::<Vec<u32>>(),
            dense,
            "the standing order diverged from the dense rank at {now:?}"
        );
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
                duration += self.config.checkpoint.restore_cost(job.true_memory_mb);
                if job.base.restore_attempt(&self.config.faults, metrics) {
                    // A corrupt read is retried from the replica; the job
                    // pays the restore path twice.
                    duration += self.config.checkpoint.restore_cost(job.true_memory_mb);
                }
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
            Tme::estimate_mb(&spec.config, &mut self.history, self.config.top_k)
                .unwrap_or_else(|| Tme::cold_start_mb(&spec.config))
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
    fn admit(&mut self, lp: &mut Loop<RunJob>, _ext: &mut DltRunExt, _i: usize, now: SimTime) {
        lp.events.schedule(now, Event::Wake);
    }

    fn complete_epoch(
        &mut self,
        ext: &mut DltRunExt,
        job: &mut RunJob,
        now: SimTime,
    ) -> rotary_core::Result<(String, IntermediateState, Option<JobStatus>)> {
        let DltRunExt { pool, meter, ttr, .. } = ext;
        let device = pool.vacate(job.base.core.id)?;
        let service = now - job.base.epoch_start;
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
        // Time budgets run from submission. The loop records `state` only
        // after this returns, so `latest()` is still the previous epoch.
        let elapsed = now - job.base.core.arrival;
        let verdict = match job.spec.criterion.check(&state, job.base.core.latest(), elapsed) {
            CriterionCheck::Attained => Some(JobStatus::Attained),
            CriterionCheck::DeadlineMissed => Some(JobStatus::DeadlineMissed),
            CriterionCheck::Continue => None,
        };
        Ok((format!("gpu{device}"), state, verdict))
    }

    /// One pass for every policy; only the order differs. Rotary-DLT reads
    /// its standing order for the current phase after refreshing both
    /// (debug builds hold it to the dense sort by the same key); the
    /// baselines, whose round-robin cursor moves per pass, re-rank every
    /// arbitrable job.
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
        let Loop { jobs, events, metrics, rr_cursor, marks, .. } = lp;
        let DltRunExt { pool, meter, arb, .. } = ext;
        let dirty = std::mem::take(&mut marks.dirty);
        let (placed, oom) = if let DltPolicy::Rotary(objective) = policy {
            let threshold = objective.threshold();
            for &id in &dirty {
                Self::fold_phase(arb, jobs, id as usize, threshold);
            }
            arb.fairness
                .refresh(&dirty, now, |id| Self::phase_key(&jobs[id as usize], false, now, meter));
            arb.efficiency
                .refresh(&dirty, now, |id| Self::phase_key(&jobs[id as usize], true, now, meter));
            // Either order holds exactly the arbitrable jobs.
            if arb.fairness.is_empty() {
                return;
            }
            #[cfg(debug_assertions)]
            Self::check_order(arb, jobs, now, threshold);
            let order = if arb.n_satisfied == jobs.len() { &arb.efficiency } else { &arb.fairness };
            let order = order.iter().map(|id| id as usize);
            self.place_jobs(jobs, order, now, pool, events, metrics, spike)
        } else {
            let arbitrable: Vec<usize> = jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.base.core.status.is_arbitrable())
                .map(|(i, _)| i)
                .collect();
            if arbitrable.is_empty() {
                return;
            }
            let ranked = Self::rank(jobs, arbitrable, policy, rr_cursor);
            self.place_jobs(jobs, ranked.into_iter(), now, pool, events, metrics, spike)
        };
        // Placed jobs left the arbitrable set (Running) and OOM launches
        // corrected their memory estimate: both must be re-examined before
        // the next pass can trust the standing state.
        for &i in placed.iter().chain(&oom) {
            marks.mark(i);
        }
        // A job that just finished an epoch but was not re-placed is
        // checkpointed to disk; a failed write is retried against the
        // replica off the critical path, so only the failure is recorded.
        if let Some(i) = ckpt_candidate {
            jobs[i].base.pause_if_idle(&self.config.faults, metrics);
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

    /// Archives the observed curve of a job that ran: "all the completed
    /// jobs' information are stored", and partial curves are still valid
    /// history for estimators.
    fn retire(&mut self, _ext: &mut DltRunExt, job: &mut RunJob) {
        if job.base.core.epochs_run > 0 {
            let curve: Vec<(f64, f64)> =
                job.base.core.history.iter().map(|s| (s.epoch as f64, s.metric_value)).collect();
            self.history.insert(job_record(&job.spec.config, curve, job.base.core.epochs_run));
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
            let bound = specs.iter().enumerate().map(|(i, spec)| {
                match sys.bind(&mut ext, i, spec, policy, SimTime::ZERO) {
                    Ok(job) => job.memory_estimate_mb,
                    Err(never) => match never {},
                }
            });
            let bound: Vec<u64> = bound.collect();
            let direct = specs.iter().map(|spec| {
                Tme::estimate_mb(&spec.config, &mut sys.history, top_k)
                    .unwrap_or_else(|| Tme::cold_start_mb(&spec.config))
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
    fn time_budgets_run_from_submission() {
        use rotary_core::criteria::{Deadline, Metric};
        // Two jobs streamed into a run ten hours in, with time budgets a
        // few epochs long: measured from t = 0, each would be out of budget
        // at its first epoch.
        let mut specs = DltWorkloadBuilder::paper().jobs(2).seed(3).build();
        let budget = |spec: &DltJobSpec| {
            Deadline::Time(spec.config.epoch_time(1.0).scale(4.0) + CUDA_WARMUP)
        };
        specs[0].criterion = CompletionCriterion::Runtime { runtime: budget(&specs[0]) };
        let deadline = budget(&specs[1]);
        specs[1].criterion =
            CompletionCriterion::Accuracy { metric: Metric::Accuracy, threshold: 1.0, deadline };
        let policy = DltPolicy::Rotary(Objective::Efficiency);
        let mut sys = DltSystem::new(quick());
        let mut run = match arb::Run::start(&mut sys, &[], policy) {
            Ok(run) => run,
            Err(never) => match never {},
        };
        for spec in specs {
            if let Err(never) = run.admit(&mut sys, spec, SimTime::from_secs(10 * 3600)) {
                match never {}
            }
        }
        let r = run.finish(&mut sys);
        let ends: Vec<_> = r.jobs.iter().map(|(_, s)| (s.status, s.epochs_run > 1)).collect();
        assert_eq!(ends, [(JobStatus::Attained, true), (JobStatus::DeadlineMissed, true)]);
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

    /// The per-pass check has teeth: a standing fairness key that no
    /// longer matches its job's progress reorders the pass, and a debug
    /// build refuses it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the standing order diverged from the dense rank")]
    fn a_corrupted_standing_key_fails_the_pass() {
        let policy = DltPolicy::Rotary(Objective::Fairness);
        let specs = DltWorkloadBuilder::paper().jobs(8).seed(3).build();
        let mut sys = DltSystem::new(quick());
        let mut ext = sys.open(policy);
        let jobs = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| sys.bind(&mut ext, i, spec, policy, SimTime::ZERO).unwrap())
            .collect();
        let mut lp = Loop {
            jobs,
            events: EventQueue::new(),
            metrics: WorkloadMetrics::new(),
            rr_cursor: 0,
            makespan: SimTime::ZERO,
            epochs_done: 0,
            marks: arb::Marks::default(),
            terminals: arb::Terminals::default(),
        };
        // Every job has trained one epoch, each to a different progress.
        for i in 0..lp.jobs.len() {
            let progress = 0.1 + 0.05 * i as f64;
            let state =
                IntermediateState { epoch: 1, at: SimTime::ZERO, metric_value: progress, progress };
            lp.jobs[i].base.core.record_epoch(state, SimTime::from_secs(60));
            lp.marks.mark(i);
        }
        // The first pass fills every device; the second re-keys what it
        // placed, leaving the rest queued in the fairness order.
        sys.arbitrate(&mut lp, &mut ext, policy, SimTime::ZERO, None);
        sys.arbitrate(&mut lp, &mut ext, policy, SimTime::ZERO, None);
        assert!(lp.marks.dirty.is_empty() && ext.arb.fairness.len() >= 2);
        let last = ext.arb.fairness.iter().last().unwrap();
        let corrupt = ((true, OrdF64::new(-1.0), SimTime::ZERO), None);
        ext.arb.fairness.refresh(&[last], SimTime::ZERO, |_| Some(corrupt));
        sys.arbitrate(&mut lp, &mut ext, policy, SimTime::ZERO, None);
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
