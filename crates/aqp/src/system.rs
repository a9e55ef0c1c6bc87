//! The multi-tenant AQP system with resource arbitration (paper §IV-A,
//! Algorithm 2) and the §V-A baselines.
//!
//! The execution loop is event-driven over virtual time. Jobs arrive by the
//! workload's Poisson process; whenever an event fires (arrival, epoch
//! completion, deadline), the system re-arbitrates: every arbitrable job
//! that fits in memory is offered one hardware thread, then extra threads go
//! to jobs in policy-rank order (Algorithm 2's two-pass allocation). Granted
//! jobs run one *adaptive epoch* — a number of batches proportional to their
//! estimated memory consumption under Rotary, fixed under the baselines —
//! and are checkpointed if not re-granted when the epoch ends.
//!
//! Attainment is *declared* by the envelope detector (the system cannot see
//! the final aggregate) and *verified* against ground truth by the
//! simulator, which is how false attainment (Fig. 7a) is measured.

use std::collections::{BTreeMap, BTreeSet};

use rotary_core::arb::{quantize_log2, OrdF64, PriorityIndex};
use rotary_core::error::RotaryError;
use rotary_core::estimate::{CurveBasis, EnvelopeDetector, JointCurveEstimator};
use rotary_core::history::{HistoryRepository, JobRecord};
use rotary_core::job::{IntermediateState, JobId, JobKind, JobState, JobStatus};
use rotary_core::resources::CpuPoolSpec;
use rotary_core::SimTime;
use rotary_engine::memory::{estimate_memory_mb, BatchCostModel};
use rotary_engine::online::{GroundTruth, OnlineAggregation};
use rotary_engine::{query, Executor, IndexCache, QueryClass, QueryId, QueryPlan};
use rotary_faults::arbiter::{self as arb, Arbiter, Event, Job, JobBase, Loop, Run};
use rotary_faults::{EpochFault, FaultPlan};
use rotary_sim::{
    CheckpointModel, CpuPool, MaterializationManager, MaterializationPolicy, PlacementSpan,
    WorkloadMetrics, WorkloadSummary,
};
use rotary_store::{DurableConfig, DurableOutcome};
use rotary_tpch::TpchData;

use crate::estimator::{build_estimator, QueryFeatures, RandomEstimator};
use crate::workload::AqpJobSpec;

mod snapshot;

/// Batches per epoch for the baselines and the Rotary reference point.
const BASE_EPOCH_BATCHES: usize = 3;
/// Cap on an adaptive epoch's length, in batches.
const MAX_EPOCH_BATCHES: usize = 12;
/// Max threads a single job may hold.
const MAX_THREADS_PER_JOB: u32 = 6;

/// The arbitration policy driving the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AqpPolicy {
    /// Rotary-AQP (Algorithm 2): joint historical+real-time progress
    /// estimation, memory-aware grants, adaptive running epochs, extra
    /// threads to the highest estimated progress.
    Rotary,
    /// Rotary-AQP with the Fig. 9 ablation: uniform-random progress
    /// estimates.
    RotaryRandomEstimator,
    /// ReLAQS: real-time-only progress estimation, fixed epochs, extra
    /// threads to the largest estimated *improvement*.
    Relaqs,
    /// Earliest Deadline First.
    Edf,
    /// Least (estimated) Accuracy First.
    Laf,
    /// Round-robin over arbitrable jobs.
    RoundRobin,
}

impl AqpPolicy {
    /// Human-readable name, matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AqpPolicy::Rotary => "Rotary-AQP",
            AqpPolicy::RotaryRandomEstimator => "Rotary-AQP(random-est)",
            AqpPolicy::Relaqs => "ReLAQS",
            AqpPolicy::Edf => "EDF",
            AqpPolicy::Laf => "LAF",
            AqpPolicy::RoundRobin => "Round-robin",
        }
    }

    /// All policies of Fig. 6 (in plotting order) plus the ablation.
    pub fn all() -> [AqpPolicy; 6] {
        [
            AqpPolicy::RoundRobin,
            AqpPolicy::Edf,
            AqpPolicy::Laf,
            AqpPolicy::Relaqs,
            AqpPolicy::Rotary,
            AqpPolicy::RotaryRandomEstimator,
        ]
    }
}

/// Tunables of the system; defaults reproduce the paper's setup.
#[derive(Debug, Clone)]
pub struct AqpSystemConfig {
    /// The hardware pool (default: 20 threads, 180 GB — the paper testbed).
    pub pool: CpuPoolSpec,
    /// Batch size as a fraction of the fact table (default 1%).
    pub batch_fraction: f64,
    /// Envelope window, in epochs.
    pub envelope_window: usize,
    /// Top-k similar historical jobs pooled into the estimator.
    pub top_k: usize,
    /// Enables Rotary's adaptive running epochs (longer epochs for jobs
    /// with larger memory footprints). Disable to ablate the paper's third
    /// design opportunity; baselines ignore this flag.
    pub adaptive_epochs: bool,
    /// Enables Rotary's feasibility introspection (doomed jobs sink to the
    /// bottom of the ranking). Disable to ablate completion-criteria
    /// awareness; baselines ignore this flag.
    pub feasibility_check: bool,
    /// Safety margin on attainment declaration: the system stops a job when
    /// its estimated accuracy reaches `threshold + margin`. Declaring at the
    /// raw threshold turns every borderline estimate into a coin flip
    /// against ground truth; a small margin keeps false attainment at the
    /// paper's "generally reliable, still makes mistakes" level.
    pub declaration_margin: f64,
    /// Checkpoint/restore cost model.
    pub checkpoint: CheckpointModel,
    /// Where paused jobs are persisted (paper §VI: always-disk is the
    /// paper's implementation; memory-first explores the trade-off).
    pub materialization: MaterializationPolicy,
    /// Seed for per-job sampling orders and the random estimator.
    pub seed: u64,
    /// Fault-injection plan consulted by the control plane. Defaults to
    /// `ROTARY_FAULT_SEED` (the chaos profile at that seed; inert when
    /// unset). An inert plan injects nothing and leaves the run
    /// byte-identical to a build without the fault layer.
    pub faults: FaultPlan,
    /// Host threads for *start-up work*: the ground-truth scans of
    /// [`AqpSystem::new`] and the historical runs of
    /// [`AqpSystem::prepopulate_history`]. A run itself is serial — an
    /// arbitration pass launches one epoch of (almost always) one job.
    /// Distinct from `pool`, which models the simulated testbed's threads.
    /// Defaults to `ROTARY_THREADS` (1 when unset); every metric is
    /// bit-identical across values.
    pub threads: usize,
}

impl Default for AqpSystemConfig {
    fn default() -> Self {
        AqpSystemConfig {
            pool: CpuPoolSpec::paper_aqp_testbed(),
            batch_fraction: 0.01,
            envelope_window: 5,
            top_k: 5,
            adaptive_epochs: true,
            feasibility_check: true,
            declaration_margin: 0.02,
            checkpoint: CheckpointModel::ssd(),
            materialization: MaterializationPolicy::AlwaysDisk,
            seed: 0,
            faults: FaultPlan::from_env(),
            threads: rotary_par::configured_threads(),
        }
    }
}

/// Outcome of one workload run under one policy.
#[derive(Debug)]
pub struct AqpRunResult {
    /// The policy that ran.
    pub policy: AqpPolicy,
    /// Final job states, parallel to the submitted specs.
    pub jobs: Vec<(AqpJobSpec, JobState)>,
    /// Condensed statistics.
    pub summary: WorkloadSummary,
    /// Raw traces (placement spans, progress snapshots).
    pub metrics: WorkloadMetrics,
    /// Virtual time at which the last job finished.
    pub makespan: SimTime,
}

impl AqpRunResult {
    /// Genuinely attained jobs per query class, as Fig. 6 reports.
    pub fn attained_by_class(&self) -> BTreeMap<QueryClass, (usize, usize)> {
        let mut out: BTreeMap<QueryClass, (usize, usize)> = BTreeMap::new();
        for (spec, state) in &self.jobs {
            let entry = out.entry(spec.class()).or_insert((0, 0));
            entry.1 += 1;
            if state.status == JobStatus::Attained {
                entry.0 += 1;
            }
        }
        out
    }

    /// Total genuinely attained jobs.
    pub fn attained(&self) -> usize {
        self.summary.attained
    }
}

/// One job's run state: the shared bookkeeping plus the bound executor,
/// its estimators, and the grant it last held.
pub struct RunJob<'a> {
    base: JobBase,
    spec: AqpJobSpec,
    online: OnlineAggregation<'a>,
    envelopes: Vec<EnvelopeDetector>,
    estimator: JointCurveEstimator,
    features: QueryFeatures,
    memory_mb: u64,
    epoch_batches: usize,
    fraction_per_epoch: f64,
    declaration_margin: f64,
    threads: u32,
    last_threads: u32,
    pending_persist: SimTime,
}

impl Job for RunJob<'_> {
    fn base(&self) -> &JobBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut JobBase {
        &mut self.base
    }
}

impl RunJob<'_> {
    /// The system's current belief about the job's accuracy, per column:
    ///
    /// * SUM/COUNT columns accumulate mass in proportion to the data
    ///   consumed, and the stream consumer knows its offset exactly, so the
    ///   estimate is the fraction of the stream processed;
    /// * AVG/MIN/MAX columns converge by distribution, so their estimate is
    ///   the envelope progress `p/q` (paper §IV-A).
    ///
    /// Either estimator can deviate from the true `α_c / α_f` — selective
    /// queries accumulate qualifying mass unevenly, and envelope plateaus
    /// fake convergence — which is exactly the Fig. 7a false-attainment
    /// mechanism.
    fn estimated_accuracy(&self) -> f64 {
        if self.online.is_exhausted() {
            return 1.0;
        }
        let frac = self.online.fraction_processed();
        let mut total = 0.0;
        for (env, func) in self.envelopes.iter().zip(self.online.agg_funcs()) {
            total += match func {
                rotary_engine::AggFunc::Sum | rotary_engine::AggFunc::Count => frac,
                _ => env.progress().unwrap_or(0.0),
            };
        }
        total / self.envelopes.len() as f64
    }

    /// Attainment progress φ = estimated accuracy / threshold, in [0, 1].
    fn progress(&self) -> f64 {
        (self.estimated_accuracy() / self.spec.threshold).clamp(0.0, 1.0)
    }

    /// Whether the system declares the completion criterion met: the
    /// envelope windows are full and the estimated accuracy clears the
    /// threshold — or the stream is exhausted (the answer is exact). A job
    /// carrying the optional error-bound requirement additionally needs
    /// every AVG column's relative 95% CI half-width at or below its ε.
    fn declares_attained(&self) -> bool {
        if self.online.is_exhausted() {
            return true;
        }
        let window_full = self.envelopes.iter().all(|e| e.len() >= e.window());
        if !window_full || self.estimated_accuracy() < self.spec.threshold + self.declaration_margin
        {
            return false;
        }
        match self.spec.ci_epsilon {
            None => true,
            Some(eps) => {
                let widths = self.online.relative_ci_half_widths();
                self.online
                    .agg_funcs()
                    .iter()
                    .zip(&widths)
                    .filter(|(f, _)| matches!(f, rotary_engine::AggFunc::Avg))
                    .all(|(_, w)| w.map(|w| w <= eps).unwrap_or(false))
            }
        }
    }

    fn deadline_at(&self) -> SimTime {
        self.spec.arrival + self.spec.deadline
    }

    /// Arrived and unfinished: in the queue Q_t, running or not.
    fn is_alive(&self) -> bool {
        !self.base.core.status.is_terminal() && self.base.core.status != JobStatus::Pending
    }
}

/// The AQP-specific half of a run, next to the shared [`Loop`].
pub struct AqpRunExt {
    pool: CpuPool,
    material: MaterializationManager,
    random_est: RandomEstimator,
    /// Incremental control-plane state, never snapshotted: a started or
    /// restored run marks every job, so its first pass keys them all from
    /// job state.
    arb: AqpArbCaches,
}

/// A job's feasibility schedule as a function of the clock (job state
/// fixed): feasible forever, feasible up to and including an exact instant,
/// or already doomed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feasibility {
    Always,
    Until(SimTime),
    Never,
}

/// Incrementally maintained control-plane caches for the Rotary and Relaqs
/// policies: a standing priority order (split by feasibility), exact integer
/// fleet sums behind the cold-start average, and a queue of scheduled
/// feasibility flip times. The jobs the shared change tracking marked dirty
/// (an event, an admission, a launch) are re-keyed at the next arbitration,
/// and a job index seen for the first time grows the caches; everything
/// else keeps its cached key, making one epoch's control-plane cost
/// O(changes × log n) instead of O(n log n). The other policies leave the
/// caches empty.
#[derive(Debug, Default)]
struct AqpArbCaches {
    /// Standing priority order over feasible arbitrable jobs.
    feasible: PriorityIndex<OrdF64>,
    /// Standing priority order over infeasible arbitrable jobs (ranked
    /// after every feasible job, matching the dense sort).
    infeasible: PriorityIndex<OrdF64>,
    /// Jobs whose priority key depends on the fleet-average epoch duration
    /// (cold jobs under Rotary); re-keyed only when the quantized average
    /// moves to a different grid point.
    cold: BTreeSet<u32>,
    /// Scheduled feasibility flip times: a warm feasible job becomes
    /// infeasible the first arbitration strictly after its flip time, with
    /// no state change involved.
    flips: BTreeSet<(SimTime, u32)>,
    /// Reverse map of `flips` for O(log n) rescheduling.
    flip_of: BTreeMap<u32, SimTime>,
    /// Per-job `(service_ms, epochs_run)` contribution to the fleet sums.
    contrib: Vec<(u64, u64)>,
    /// Exact integer fleet sums: total isolated service time (ms) and total
    /// completed epochs over alive jobs.
    sum_service_ms: u128,
    sum_epochs: u64,
    /// Quantized fleet-average epoch duration the cold set is keyed on.
    avg_bucket: f64,
}

/// The multi-tenant AQP system bound to one dataset.
pub struct AqpSystem<'a> {
    data: &'a TpchData,
    config: AqpSystemConfig,
    cost: BatchCostModel,
    cache: IndexCache,
    plans: BTreeMap<u8, QueryPlan>,
    truths: BTreeMap<u8, GroundTruth>,
    memory: BTreeMap<u8, u64>,
    reference_memory: f64,
    history: HistoryRepository,
}

impl<'a> AqpSystem<'a> {
    /// Binds the system to a dataset: builds plans, ground truths, and
    /// memory estimates for all 22 queries.
    pub fn new(data: &'a TpchData, config: AqpSystemConfig) -> AqpSystem<'a> {
        // Control plane: bind every query serially (the index cache is a
        // shared mutable resource).
        let mut cache = IndexCache::new();
        let mut plans = BTreeMap::new();
        let mut memory = BTreeMap::new();
        let mut scans: Vec<(u8, Executor<'a>)> = Vec::new();
        for id in QueryId::all() {
            let plan = query(id);
            let exec =
                Executor::bind(&plan, data, &mut cache).unwrap_or_else(|e| panic!("{id}: {e}"));
            let batch_rows = Self::batch_rows_for(&plan, data, config.batch_fraction);
            memory.insert(id.0, estimate_memory_mb(&plan, data, batch_rows));
            plans.insert(id.0, plan);
            scans.push((id.0, exec));
        }
        // Data plane: the 22 ground-truth scans are independent, one
        // sequential full-table scan per host thread.
        let host = rotary_par::ThreadPool::new(config.threads);
        let truths: BTreeMap<u8, GroundTruth> = host
            .map_mut(&mut scans, |_, (id, exec)| {
                exec.process_all();
                (*id, exec.state().combined_all())
            })
            .into_iter()
            .collect();
        let reference_memory =
            memory.values().map(|&m| m as f64).sum::<f64>() / memory.len() as f64;
        AqpSystem {
            data,
            cost: BatchCostModel::calibrated(data.scale_factor),
            config,
            cache,
            plans,
            truths,
            memory,
            reference_memory,
            history: HistoryRepository::new(),
        }
    }

    fn batch_rows_for(plan: &QueryPlan, data: &TpchData, fraction: f64) -> usize {
        let rows = data.table(&plan.fact).map(|t| t.rows()).unwrap_or(1);
        ((rows as f64 * fraction).round() as usize).clamp(1, rows.max(1))
    }

    /// Read access to the historical-job repository.
    pub fn history(&self) -> &HistoryRepository {
        &self.history
    }

    /// Replaces the repository (e.g. to start warm).
    pub fn set_history(&mut self, history: HistoryRepository) {
        self.history = history;
    }

    /// The memory estimate for a query, in MB.
    pub fn memory_estimate(&self, id: QueryId) -> u64 {
        self.memory[&id.0]
    }

    /// Populates the repository by running every TPC-H query once,
    /// uncontended — the "historical jobs" Rotary's estimators draw on.
    /// Returns the number of records inserted.
    ///
    /// # Errors
    /// [`RotaryError::PlanBind`] when a built-in plan fails to bind against
    /// the dataset — the dataset is unusable and nothing was inserted.
    pub fn prepopulate_history(&mut self, seed: u64) -> rotary_core::Result<usize> {
        // Control plane: bind every query serially (the index cache is a
        // shared mutable resource), carrying the per-query features along.
        let ids: Vec<QueryId> = QueryId::all().collect();
        let mut runs: Vec<(QueryFeatures, OnlineAggregation<'a>)> = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            let plan = self.plans[&id.0].clone();
            let batch_rows = Self::batch_rows_for(&plan, self.data, self.config.batch_fraction);
            let truth = self.truths[&id.0].clone();
            let online = OnlineAggregation::new(
                &plan,
                self.data,
                &mut self.cache,
                truth,
                seed ^ (i as u64 + 1),
                batch_rows,
            )?;
            runs.push((QueryFeatures::of(&plan, self.memory[&id.0]), online));
        }

        // Data plane: the 22 uncontended historical runs are independent, so
        // they execute concurrently, one sequential run per host thread.
        let envelope_window = self.config.envelope_window;
        let host = rotary_par::ThreadPool::new(self.config.threads);
        let curves: Vec<Vec<(f64, f64)>> = host.map_mut(&mut runs, |_, (_, online)| {
            let mut envelopes: Vec<EnvelopeDetector> = (0..online.agg_funcs().len())
                .map(|_| EnvelopeDetector::new(envelope_window))
                .collect();
            let mut curve = Vec::new();
            while let Some(report) = online.process_epoch(BASE_EPOCH_BATCHES) {
                for (env, v) in envelopes.iter_mut().zip(&report.values) {
                    env.observe(v.unwrap_or(0.0));
                }
                let est: f64 = envelopes.iter().map(|e| e.progress().unwrap_or(0.0)).sum::<f64>()
                    / envelopes.len() as f64;
                curve.push((report.fraction_processed, est));
            }
            curve
        });

        // Control plane again: insert in fixed query order so the
        // repository's contents are independent of worker scheduling.
        for ((features, _), curve) in runs.iter().zip(curves) {
            self.history.insert(JobRecord {
                kind: JobKind::Aqp,
                label: features.label.clone(),
                tags: features.tags(),
                numeric_features: BTreeMap::from([("memory_mb".into(), features.memory_mb as f64)]),
                curve,
                final_metric: 1.0,
                epochs: 0,
            });
        }
        Ok(self.history.len())
    }

    /// Runs a workload under a policy.
    ///
    /// # Errors
    /// [`RotaryError::PlanBind`] when a spec fails to bind against the
    /// dataset; no partial run happens.
    pub fn run(
        &mut self,
        specs: &[AqpJobSpec],
        policy: AqpPolicy,
    ) -> rotary_core::Result<AqpRunResult> {
        arb::run(self, specs, policy)
    }

    /// [`AqpSystem::run`] with durable snapshotting — see
    /// [`arb::run_durable`].
    pub fn run_durable(
        &mut self,
        specs: &[AqpJobSpec],
        policy: AqpPolicy,
        durable: &DurableConfig,
    ) -> rotary_core::Result<DurableOutcome<AqpRunResult>> {
        arb::run_durable(self, specs, policy, durable)
    }

    /// Resumes a killed [`AqpSystem::run_durable`] run from the newest
    /// valid snapshot — see [`arb::resume_durable`].
    pub fn resume_durable(
        &mut self,
        specs: &[AqpJobSpec],
        policy: AqpPolicy,
        durable: &DurableConfig,
    ) -> rotary_core::Result<DurableOutcome<AqpRunResult>> {
        arb::resume_durable(self, specs, policy, durable)
    }

    /// Benchmark hook: starts a run without driving it, so a harness can
    /// time individual control-plane steps. Not part of the public API
    /// contract.
    #[doc(hidden)]
    pub fn bench_start(
        &mut self,
        specs: &[AqpJobSpec],
        policy: AqpPolicy,
    ) -> rotary_core::Result<Run<Self>> {
        Run::start(self, specs, policy)
    }

    /// Benchmark hook: processes one event of a [`AqpSystem::bench_start`]
    /// run; returns `false` once the event queue has drained.
    #[doc(hidden)]
    pub fn bench_step(&mut self, run: &mut Run<Self>, _policy: AqpPolicy) -> bool {
        run.step(self)
    }

    /// Schedules what brings job `i` into arbitration: its arrival and its
    /// deadline check.
    fn schedule_job(lp: &mut Loop<RunJob<'a>>, i: usize) {
        let job = &lp.jobs[i];
        lp.events.schedule(job.spec.arrival, Event::Arrival(i));
        lp.events.schedule(job.deadline_at(), Event::DeadlineCheck(i));
    }

    /// The one terminal hook: forgets the job's materialised state, archives
    /// its curve, and returns its data-plane memory — at most a pool's worth
    /// of jobs is ever alive, so permutations must not outlive their jobs.
    /// Takes the materialization manager alone because `arbitrate` retires
    /// jobs while it holds the rest of the extension state apart.
    fn retire_job(&mut self, material: &mut MaterializationManager, job: &mut RunJob<'_>) {
        material.forget(job.base.core.id.0);
        self.archive(job);
        job.online.release();
    }

    /// Stores a finished job's observed curve in the repository.
    fn archive(&mut self, job: &RunJob<'_>) {
        let curve: Vec<(f64, f64)> = job
            .base
            .core
            .history
            .iter()
            .zip(std::iter::successors(
                Some(job.fraction_per_epoch * job.epoch_batches as f64),
                |f| Some(f + job.fraction_per_epoch * job.epoch_batches as f64),
            ))
            .map(|(s, frac)| (frac.min(1.0), s.metric_value))
            .collect();
        self.history.insert(JobRecord {
            kind: JobKind::Aqp,
            label: job.features.label.clone(),
            tags: job.features.tags(),
            numeric_features: BTreeMap::from([("memory_mb".into(), job.memory_mb as f64)]),
            curve,
            final_metric: job.base.core.latest().map(|s| s.metric_value).unwrap_or(0.0),
            epochs: job.base.core.epochs_run,
        });
    }

    /// How much faster an epoch runs on a grant of `threads` than on one
    /// thread (the cost model's 85 % scaling per extra thread).
    fn grant_speedup(threads: u32) -> f64 {
        1.0 + (threads.max(1) - 1) as f64 * 0.85
    }

    /// Epochs until the job has processed `frac_needed` of its table — what
    /// the fitted progress curve says its declaration accuracy takes, or 1.0
    /// (exhaustion makes the answer exact) when the curve is flat.
    fn epochs_needed(job: &RunJob<'_>, frac_needed: Option<f64>) -> f64 {
        let frac_now = job.online.fraction_processed();
        let frac_needed = frac_needed.map_or(1.0, |f| f.clamp(frac_now, 1.0));
        let per_epoch_frac = job.fraction_per_epoch * job.epoch_batches as f64;
        ((frac_needed - frac_now) / per_epoch_frac.max(1e-9)).ceil()
    }

    /// The job's observed epoch duration normalised to the best-case grant:
    /// jobs are compared by what they could do with a full allocation, not
    /// by how starved they have been so far. Only for a job that has run.
    fn best_case_epoch_secs(job: &RunJob<'_>, max_threads: u32) -> f64 {
        let observed = job.base.core.service_time.as_secs_f64() / job.base.core.epochs_run as f64;
        observed * Self::grant_speedup(job.last_threads) / Self::grant_speedup(max_threads)
    }

    /// Estimated seconds until the job reaches its declaration accuracy:
    /// solve the fitted progress curve for the target, convert the missing
    /// data fraction into epochs, and extrapolate from the job's observed
    /// epoch durations (or the fleet-average duration for jobs that have
    /// not run yet). `None` when the estimator has no data at all — the
    /// cold-start case Rotary avoids via historical jobs but ReLAQS cannot.
    fn estimated_remaining_secs(
        job: &RunJob<'_>,
        avg_epoch_secs: f64,
        max_threads: u32,
    ) -> Option<f64> {
        let target = job.spec.threshold + job.declaration_margin;
        // No observations and no history: unknown.
        let frac_needed = job.estimator.solve_for_x(target).ok()?;
        let per_epoch_secs = if job.base.core.epochs_run > 0 {
            Self::best_case_epoch_secs(job, max_threads)
        } else {
            avg_epoch_secs
        };
        Some(Self::epochs_needed(job, frac_needed) * per_epoch_secs)
    }

    /// Introspection on whether a job can still reach its threshold before
    /// its deadline, using the progress estimator: solve the fitted curve
    /// for the declaration accuracy, convert the remaining data fraction to
    /// epochs, and extrapolate from the job's observed epoch durations. Jobs
    /// that have not run yet are optimistically feasible; an unknown curve
    /// solution means the job attains at stream exhaustion at the latest.
    ///
    /// This is the "detect and preempt such anomalies" capability the paper
    /// motivates Rotary with: a doomed job should not hold resources that a
    /// feasible job could use.
    fn is_feasible(&self, job: &RunJob<'_>, now: SimTime) -> bool {
        match self.feasible_until(job) {
            Feasibility::Always => true,
            Feasibility::Never => false,
            Feasibility::Until(t) => now <= t,
        }
    }

    /// The feasibility *schedule* of a job: the virtual instant up to which
    /// it can still reach its threshold before its deadline. Feasibility is
    /// a function of job state and the clock only — between state changes a
    /// job flips from feasible to infeasible exactly once, at a time
    /// computable in advance (virtual time is integer milliseconds, so the
    /// flip instant is exact). The indexed control plane queues these flip
    /// times instead of re-evaluating every job per event.
    fn feasible_until(&self, job: &RunJob<'_>) -> Feasibility {
        if !self.config.feasibility_check || job.base.core.epochs_run == 0 {
            // Jobs that have not run yet are optimistically feasible.
            return Feasibility::Always;
        }
        let target = job.spec.threshold + job.declaration_margin;
        // Flat or unknown curve: exhaustion makes the answer exact.
        let frac_needed = job.estimator.solve_for_x(target).ok().flatten();
        // Project at the best-case grant: feasibility asks whether *any*
        // allocation could still save the job, not whether its current
        // (possibly starved) rate suffices.
        let best_case = Self::best_case_epoch_secs(job, MAX_THREADS_PER_JOB);
        let projected = SimTime::from_secs_f64(Self::epochs_needed(job, frac_needed) * best_case);
        // Feasible ⟺ projected ≤ deadline − now ∧ now < deadline, i.e.
        // now ≤ deadline − max(projected, 1ms).
        let blocker = projected.max(SimTime::from_millis(1));
        let deadline = job.deadline_at();
        if deadline < blocker {
            Feasibility::Never
        } else {
            Feasibility::Until(deadline.saturating_sub(blocker))
        }
    }

    /// Fleet-average epoch duration (seconds) from exact integer sums,
    /// snapped onto a ~1.1% log grid. Exact sums make the value independent
    /// of summation order (the dense path folds, the indexed path maintains
    /// per-job contributions); the snap means cold jobs' cached priority
    /// keys only move when the average genuinely drifts, not by a few ULPs
    /// per completed epoch.
    fn fleet_avg_epoch_secs(sum_service_ms: u128, sum_epochs: u64) -> f64 {
        if sum_epochs == 0 {
            60.0
        } else {
            quantize_log2(sum_service_ms as f64 / 1000.0 / sum_epochs as f64, 64)
        }
    }

    /// The Rotary/ReLAQS priority key (smaller runs first), shared verbatim
    /// by the dense and indexed control planes.
    ///
    /// ReLAQS minimises average latency: shortest estimated remaining work
    /// first. Rotary maximises attainment: least *laxity* first — the
    /// feasible job with the smallest deadline slack (deadline minus
    /// buffered work left) runs first. The 1.25 buffer scales with job
    /// length: a long (heavy) job cannot be compressed into its final
    /// epochs, so its slack must be banked earlier. (Calibrated against a
    /// 20-seed Fig. 6 sweep; see DESIGN.md §7.) The key is deliberately
    /// clock-free — `deadline − 1.25·work`, not `(deadline − now) −
    /// 1.25·work` — because subtracting the common `now` term cannot change
    /// the order of two jobs, and a clock-free key stays valid between job
    /// state changes, which is what lets the indexed control plane keep the
    /// order standing.
    fn priority_key(&self, job: &RunJob<'_>, policy: AqpPolicy, avg_epoch_secs: f64) -> f64 {
        let remaining = Self::estimated_remaining_secs(job, avg_epoch_secs, MAX_THREADS_PER_JOB)
            .unwrap_or(f64::INFINITY);
        match policy {
            AqpPolicy::Relaqs => remaining,
            _ => job.deadline_at().as_secs_f64() - 1.25 * remaining,
        }
    }

    /// Ranks a set of job indices by the policy's priority (best first).
    fn rank(
        &self,
        jobs: &[RunJob<'_>],
        mut indices: Vec<usize>,
        now: SimTime,
        policy: AqpPolicy,
        random_est: &mut RandomEstimator,
        rr_cursor: &mut usize,
    ) -> Vec<usize> {
        match policy {
            AqpPolicy::Rotary | AqpPolicy::RotaryRandomEstimator | AqpPolicy::Relaqs => {
                // Fleet-average epoch duration, for jobs with no epochs yet
                // (exact integer sums shared with the indexed path, so both
                // paths key identically).
                let (sum_ms, sum_epochs) = indices.iter().fold((0u128, 0u64), |(s, e), &i| {
                    (
                        s + jobs[i].base.core.service_time.as_millis() as u128,
                        e + jobs[i].base.core.epochs_run,
                    )
                });
                let avg_epoch_secs = Self::fleet_avg_epoch_secs(sum_ms, sum_epochs);
                let mut keyed: Vec<(usize, bool, OrdF64)> = indices
                    .iter()
                    .map(|&i| {
                        // The priority: which job can reach its completion
                        // criterion in the least remaining time. Rotary
                        // estimates this from history + real-time data;
                        // ReLAQS from real-time only, so freshly arrived
                        // jobs are unrankable (cold start) and sort last;
                        // the Fig. 9 ablation replaces the estimate with
                        // uniform noise.
                        let key = match policy {
                            AqpPolicy::RotaryRandomEstimator => {
                                let remaining = random_est.estimate() * 3600.0;
                                jobs[i].deadline_at().as_secs_f64() - 1.25 * remaining
                            }
                            _ => self.priority_key(&jobs[i], policy, avg_epoch_secs),
                        };
                        // Rotary's completion-criteria awareness: feasible
                        // jobs outrank doomed ones. ReLAQS has no deadline
                        // introspection, so every job counts as feasible.
                        let feasible = match policy {
                            AqpPolicy::Relaqs => true,
                            _ => self.is_feasible(&jobs[i], now),
                        };
                        (i, feasible, OrdF64::new(key))
                    })
                    .collect();
                keyed.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
                keyed.into_iter().map(|(i, _, _)| i).collect()
            }
            AqpPolicy::Edf => {
                indices.sort_by_key(|&i| (jobs[i].deadline_at(), i));
                indices
            }
            AqpPolicy::Laf => {
                let mut keyed: Vec<(usize, OrdF64)> = indices
                    .iter()
                    .map(|&i| (i, OrdF64::new(jobs[i].estimated_accuracy())))
                    .collect();
                keyed.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
                keyed.into_iter().map(|(i, _)| i).collect()
            }
            AqpPolicy::RoundRobin => {
                // Rotate the id-ordered list by the cursor.
                indices.sort_unstable();
                let n = indices.len();
                indices.rotate_left(*rr_cursor % n.max(1));
                *rr_cursor = (*rr_cursor + 1) % n.max(1);
                indices
            }
        }
    }

    /// Computes the policy's *target allocation* over all alive jobs:
    /// Algorithm 2's two passes (one thread to every job that fits in
    /// memory, then extra threads in priority order up to the per-job cap).
    /// Grants converge to the target lazily — a running job keeps its
    /// current grant until its epoch boundary, honouring "a job holds on to
    /// a particular resource for at least an epoch".
    fn target_allocation(
        &self,
        jobs: &[RunJob<'_>],
        ranked: &[usize],
        policy: AqpPolicy,
    ) -> BTreeMap<usize, u32> {
        let mut target = BTreeMap::new();
        let mut threads_left = self.config.pool.threads;
        let mut mem_left = self.config.pool.memory_mb;
        for &i in ranked {
            if threads_left == 0 {
                break;
            }
            if jobs[i].memory_mb <= mem_left {
                target.insert(i, 1);
                threads_left -= 1;
                mem_left -= jobs[i].memory_mb;
            }
        }
        if policy == AqpPolicy::RoundRobin {
            // "Allocates one core to each job in turn until there are no
            // more cores": extras spread evenly instead of concentrating.
            let mut progressed = true;
            while threads_left > 0 && progressed {
                progressed = false;
                for &i in ranked {
                    if threads_left == 0 {
                        break;
                    }
                    if let Some(t) = target.get_mut(&i) {
                        if *t < MAX_THREADS_PER_JOB {
                            *t += 1;
                            threads_left -= 1;
                            progressed = true;
                        }
                    }
                }
            }
        } else {
            // Ranked policies concentrate: fill each job to the cap in
            // priority order, so the scarce extra threads go to whoever the
            // policy believes in most.
            for &i in ranked {
                if threads_left == 0 {
                    break;
                }
                if let Some(t) = target.get_mut(&i) {
                    let extra = (MAX_THREADS_PER_JOB - *t).min(threads_left);
                    *t += extra;
                    threads_left -= extra;
                }
            }
        }
        target
    }

    /// Folds job `i`'s `(service_ms, epochs_run)` into the exact fleet
    /// sums, replacing its previous contribution (none, the first time the
    /// index is seen). Terminal and pending jobs contribute nothing — the
    /// dense path averages over the alive set only, and the two must key
    /// identically.
    fn update_contrib(arb: &mut AqpArbCaches, jobs: &[RunJob<'_>], i: usize) {
        if arb.contrib.len() <= i {
            arb.contrib.resize(i + 1, (0, 0));
        }
        let j = &jobs[i];
        let new = if j.is_alive() {
            (j.base.core.service_time.as_millis(), j.base.core.epochs_run)
        } else {
            (0, 0)
        };
        let old = arb.contrib[i];
        if new != old {
            arb.sum_service_ms = arb.sum_service_ms + new.0 as u128 - old.0 as u128;
            arb.sum_epochs = arb.sum_epochs + new.1 - old.1;
            arb.contrib[i] = new;
        }
    }

    /// Re-derives job `i`'s position in the standing priority order from
    /// its current state: drops terminal/pending jobs, re-keys the rest
    /// onto the feasible or infeasible side, and (re)schedules the
    /// feasibility flip that will later move it across without any state
    /// change.
    fn refresh_job(
        &self,
        arb: &mut AqpArbCaches,
        jobs: &[RunJob<'_>],
        i: usize,
        now: SimTime,
        policy: AqpPolicy,
        avg_epoch_secs: f64,
    ) {
        let id = i as u32;
        let j = &jobs[i];
        if !j.is_alive() {
            arb.feasible.remove(id);
            arb.infeasible.remove(id);
            arb.cold.remove(&id);
            if let Some(t) = arb.flip_of.remove(&id) {
                arb.flips.remove(&(t, id));
            }
            return;
        }
        // Cold jobs (no epochs yet) key off the fleet average under Rotary;
        // track the set so a fleet-average drift re-keys exactly them.
        if j.base.core.epochs_run == 0 && policy != AqpPolicy::Relaqs {
            arb.cold.insert(id);
        } else {
            arb.cold.remove(&id);
        }
        let key = OrdF64::new(self.priority_key(j, policy, avg_epoch_secs));
        let feasibility = match policy {
            // ReLAQS has no deadline introspection: every job is feasible.
            AqpPolicy::Relaqs => Feasibility::Always,
            _ => self.feasible_until(j),
        };
        let feasible_now = match feasibility {
            Feasibility::Always => true,
            Feasibility::Never => false,
            Feasibility::Until(t) => now <= t,
        };
        // Only a currently feasible job with a finite horizon needs a
        // scheduled flip; everything else sits still until its next state
        // change.
        let want_flip = match feasibility {
            Feasibility::Until(t) if feasible_now => Some(t),
            _ => None,
        };
        if arb.flip_of.get(&id) != want_flip.as_ref() {
            if let Some(t) = arb.flip_of.remove(&id) {
                arb.flips.remove(&(t, id));
            }
            if let Some(t) = want_flip {
                arb.flip_of.insert(id, t);
                arb.flips.insert((t, id));
            }
        }
        if feasible_now {
            arb.infeasible.remove(id);
            arb.feasible.upsert(id, key);
        } else {
            arb.feasible.remove(id);
            arb.infeasible.upsert(id, key);
        }
    }

    /// The indexed control plane's replacement for the alive filter +
    /// [`rank`](Self::rank): applies queued feasibility flips, re-keys
    /// dirty jobs, refreshes the fleet average, and walks the standing
    /// order lazily — only as far as the two-pass allocator can possibly
    /// look. Empty when nothing is alive or the pool has no thread. Debug
    /// builds hold the walk to the dense `rank` of every alive job.
    fn indexed_ranked(
        &self,
        arb: &mut AqpArbCaches,
        dirty: &[u32],
        jobs: &[RunJob<'_>],
        now: SimTime,
        policy: AqpPolicy,
    ) -> Vec<usize> {
        // Feasibility flips that came due strictly before this instant (a
        // job stays feasible *through* its flip time).
        let mut flipped: Vec<u32> = Vec::new();
        while let Some((t, id)) = arb.flips.pop_first() {
            if t < now {
                arb.flip_of.remove(&id);
                flipped.push(id);
            } else {
                arb.flips.insert((t, id));
                break;
            }
        }
        for &id in dirty {
            Self::update_contrib(arb, jobs, id as usize);
        }
        let avg = Self::fleet_avg_epoch_secs(arb.sum_service_ms, arb.sum_epochs);
        if avg.to_bits() != arb.avg_bucket.to_bits() {
            arb.avg_bucket = avg;
            // Only cold jobs key off the fleet average; re-key exactly them.
            let cold: Vec<u32> = arb.cold.iter().copied().collect();
            for id in cold {
                self.refresh_job(arb, jobs, id as usize, now, policy, avg);
            }
        }
        for &id in dirty.iter().chain(flipped.iter()) {
            self.refresh_job(arb, jobs, id as usize, now, policy, avg);
        }
        // Lazy prefix: pass one of the allocator examines ranked jobs only
        // until it runs out of threads; reproduce that walk against the
        // standing order and stop at the same point. Downstream sees an
        // identical outcome — unexamined jobs get no quota, quota-less
        // entries are side-effect-free, and pass two only tops up jobs pass
        // one admitted.
        let mut ranked: Vec<usize> = Vec::new();
        let mut threads_left = self.config.pool.threads;
        let mut mem_left = self.config.pool.memory_mb;
        for (_, id) in arb.feasible.iter().chain(arb.infeasible.iter()) {
            if threads_left == 0 {
                break;
            }
            let i = id as usize;
            ranked.push(i);
            if jobs[i].memory_mb <= mem_left {
                mem_left -= jobs[i].memory_mb;
                threads_left -= 1;
            }
        }
        #[cfg(debug_assertions)]
        self.check_prefix(jobs, &ranked, now, policy);
        ranked
    }

    /// The indexed plane's reference: the lazy prefix is the same-length
    /// prefix of the dense `rank` over every alive job, and the allocator
    /// targets the same grants from either. Pure — a fresh cursor and
    /// estimator (neither policy with a standing order reads them).
    #[cfg(debug_assertions)]
    fn check_prefix(&self, jobs: &[RunJob<'_>], ranked: &[usize], now: SimTime, policy: AqpPolicy) {
        let alive: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].is_alive()).collect();
        let dense = self.rank(jobs, alive, now, policy, &mut RandomEstimator::new(0), &mut 0);
        assert!(
            dense.starts_with(ranked),
            "indexed prefix {ranked:?} is not a prefix of the dense rank {dense:?} at {now:?}"
        );
        assert_eq!(
            self.target_allocation(jobs, ranked, policy),
            self.target_allocation(jobs, &dense, policy),
            "the indexed prefix changed the allocator's targets at {now:?}"
        );
    }
}

impl<'a> Arbiter for AqpSystem<'a> {
    type Spec = AqpJobSpec;
    type Policy = AqpPolicy;
    type Job = RunJob<'a>;
    type Ext = AqpRunExt;
    type Outcome = AqpRunResult;
    type BindError = RotaryError;

    fn faults(&self) -> &FaultPlan {
        &self.config.faults
    }

    fn open(&mut self, _policy: AqpPolicy) -> AqpRunExt {
        AqpRunExt {
            pool: CpuPool::new(self.config.pool),
            material: MaterializationManager::new(
                self.config.materialization,
                self.config.checkpoint,
            ),
            random_est: RandomEstimator::new(self.config.seed ^ 0xabcd),
            arb: AqpArbCaches::default(),
        }
    }

    /// Binds one spec at global job index `i`. The index seeds the job's
    /// batch permutation, so a job admitted mid-run through the streaming
    /// seam binds identically to the same spec at the same position in a
    /// batch run — the property the serve-restore path relies on.
    fn bind(
        &mut self,
        _ext: &mut AqpRunExt,
        i: usize,
        spec: &AqpJobSpec,
        policy: AqpPolicy,
        _now: SimTime,
    ) -> rotary_core::Result<RunJob<'a>> {
        let plan = &self.plans[&spec.query.0];
        let batch_rows = Self::batch_rows_for(plan, self.data, self.config.batch_fraction);
        let fact_rows = self.data.table(&plan.fact).map(|t| t.rows()).unwrap_or(1);
        let online = OnlineAggregation::new(
            plan,
            self.data,
            &mut self.cache,
            self.truths[&spec.query.0].clone(),
            self.config.seed ^ ((i as u64 + 1) * 0x9e37),
            batch_rows,
        )?;
        let envelopes = (0..plan.aggregates.len())
            .map(|_| EnvelopeDetector::new(self.config.envelope_window))
            .collect();
        let memory_mb = self.memory[&spec.query.0];
        let features = QueryFeatures::of(plan, memory_mb);
        let estimator = match policy {
            AqpPolicy::Rotary | AqpPolicy::RotaryRandomEstimator => {
                build_estimator(&features, &mut self.history, self.config.top_k)
            }
            // ReLAQS and the others estimate from real-time data only.
            _ => JointCurveEstimator::new(CurveBasis::LogShifted, Vec::new()),
        };
        let epoch_batches = match policy {
            AqpPolicy::Rotary | AqpPolicy::RotaryRandomEstimator if self.config.adaptive_epochs => {
                // Adaptive running epochs: "the AQP jobs that consume
                // larger memory … deserve a longer running epoch"
                // (§IV-A). The base length is the floor — lighter jobs
                // keep the baseline epoch; heavier jobs get epochs
                // proportional to their memory footprint.
                let scaled =
                    BASE_EPOCH_BATCHES as f64 * memory_mb as f64 / self.reference_memory.max(1.0);
                (scaled.round() as usize).clamp(BASE_EPOCH_BATCHES, MAX_EPOCH_BATCHES)
            }
            _ => BASE_EPOCH_BATCHES,
        };
        let mut core = JobState::new(JobId(i as u64), JobKind::Aqp, spec.criterion(), spec.arrival);
        core.status = JobStatus::Pending;
        Ok(RunJob {
            base: JobBase::new(core),
            spec: spec.clone(),
            online,
            envelopes,
            estimator,
            features,
            memory_mb,
            epoch_batches,
            fraction_per_epoch: batch_rows as f64 / fact_rows as f64,
            declaration_margin: self.config.declaration_margin,
            threads: 0,
            last_threads: 1,
            pending_persist: SimTime::ZERO,
        })
    }

    fn begin(&mut self, lp: &mut Loop<RunJob<'a>>, _ext: &mut AqpRunExt, _policy: AqpPolicy) {
        for i in 0..lp.jobs.len() {
            Self::schedule_job(lp, i);
        }
    }

    /// The job bound exactly as it would at the same index in a batch run;
    /// it waits for its arrival like any batch job.
    fn admit(&mut self, lp: &mut Loop<RunJob<'a>>, _ext: &mut AqpRunExt, i: usize, _now: SimTime) {
        Self::schedule_job(lp, i);
    }

    fn complete_epoch(
        &mut self,
        lp: &mut Loop<RunJob<'a>>,
        ext: &mut AqpRunExt,
        i: usize,
        now: SimTime,
    ) {
        let (job, metrics) = (&mut lp.jobs[i], &mut lp.metrics);
        if let Err(e) = ext.pool.release(job.base.core.id) {
            // Only a damaged-but-well-formed snapshot gets here (its events
            // name a job its pool record does not hold): the job fails with
            // the pool's typed error, as in the shared crash path.
            job.base.core.failure = Some(e);
            lp.terminals.finish(i, job, JobStatus::Failed, now);
            return self.retire(ext, job);
        }
        let service = now - job.base.epoch_start;
        job.last_threads = job.threads.max(1);
        job.base.fault_attempts = 0;
        // What this epoch would have cost isolated with a full grant — the
        // baseline of the Fig. 7b waiting-time metric.
        job.base.core.add_isolated_service(service.scale(
            Self::grant_speedup(job.last_threads) / Self::grant_speedup(MAX_THREADS_PER_JOB),
        ));
        job.threads = 0;

        // Observe the epoch's results: envelope per column, estimator point.
        let values = job.online.executor().state().combined_all();
        for (env, v) in job.envelopes.iter_mut().zip(&values) {
            env.observe(v.unwrap_or(0.0));
        }
        let est_acc = job.estimated_accuracy();
        job.estimator.observe(job.online.fraction_processed(), est_acc);

        let epoch = job.base.core.epochs_run + 1;
        job.base.core.record_epoch(
            IntermediateState { epoch, at: now, metric_value: est_acc, progress: job.progress() },
            service,
        );

        // Criterion check: declaration by envelope, verification by ground
        // truth (the simulator's oracle) — Fig. 7a's false attainment.
        // The deadline takes precedence: Fig. 6 counts "jobs that met their
        // convergence criteria *before* their deadline", so a declaration
        // landing on an epoch that finishes late is still a miss.
        let declared = job.declares_attained();
        let missed = now >= job.deadline_at();
        let status = if missed {
            Some(JobStatus::DeadlineMissed)
        } else if declared {
            if job.online.current_accuracy() >= job.spec.threshold {
                Some(JobStatus::Attained)
            } else {
                Some(JobStatus::FalselyAttained)
            }
        } else {
            None
        };

        metrics.record_span(PlacementSpan {
            job: job.base.core.id,
            resource: "cpu".into(),
            start: job.base.epoch_start,
            end: now,
            attained_at_end: matches!(status, Some(JobStatus::Attained)),
        });

        match status {
            Some(s) => {
                lp.terminals.finish(i, job, s, now);
                self.retire(ext, job);
            }
            None => job.base.core.status = JobStatus::Active,
        }
    }

    fn arbitrate(
        &mut self,
        lp: &mut Loop<RunJob<'a>>,
        ext: &mut AqpRunExt,
        policy: AqpPolicy,
        now: SimTime,
        ckpt_candidate: Option<usize>,
    ) {
        let Loop { jobs, events, metrics, rr_cursor, marks, terminals, .. } = lp;
        let AqpRunExt { pool, material, random_est, arb } = ext;
        // Injected transient memory pressure shrinks what the arbiter may
        // hand out for the duration of the current pressure slot.
        let spike = self.config.faults.memory_pressure_mb(now);
        let dirty = std::mem::take(&mut marks.dirty);
        // The queue Q_t: every arrived, unfinished job — including running
        // ones, whose grants are re-evaluated at their epoch boundaries.
        // Rotary and ReLAQS read a standing order. EDF keys are already
        // cheap; LAF/RoundRobin/RandomEstimator mutate rank-time state
        // (cursor, RNG draws) and re-rank every pass.
        let ranked: Vec<usize> = if matches!(policy, AqpPolicy::Rotary | AqpPolicy::Relaqs) {
            self.indexed_ranked(arb, &dirty, jobs, now, policy)
        } else {
            let alive: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].is_alive()).collect();
            if alive.is_empty() {
                return;
            }
            self.rank(jobs, alive, now, policy, random_est, rr_cursor)
        };
        if ranked.is_empty() {
            return;
        }
        let target = self.target_allocation(jobs, &ranked, policy);

        // Enforce the target for jobs that are free to (re)start now; the
        // quota may exceed what is currently free because running jobs still
        // hold threads — grant what is available, at least one thread.
        let mut granted: Vec<usize> = Vec::new();
        for &i in &ranked {
            if !jobs[i].base.core.status.is_arbitrable() {
                continue;
            }
            let quota = target.get(&i).copied().unwrap_or(0);
            let available = quota.min(pool.free_threads());
            if quota == 0 || available == 0 {
                continue;
            }
            // Memory-resident paused state competes with running jobs for
            // the shared pool — as does the injected pressure; evict paused
            // state (largest first, to disk) when a grant needs the room.
            let need = jobs[i].memory_mb;
            let headroom = |pool: &CpuPool, material: &MaterializationManager| -> u64 {
                pool.free_memory_mb().saturating_sub(material.resident_mb()).saturating_sub(spike)
            };
            if headroom(pool, material) < need {
                material.make_room(need);
            }
            if headroom(pool, material) < need {
                continue;
            }
            if pool.grant(jobs[i].base.core.id, available, need) {
                granted.push(i);
            }
        }

        // Launch granted jobs for one epoch: a pre-pass classifies exhausted
        // jobs, injects faults and sizes each survivor's epoch; a post-pass
        // in granted order runs the epoch and does the order-sensitive cost
        // accounting, materialization and event scheduling. The split keeps
        // every crash event ahead of every completion event in the queue.
        // Launches are (job, batches, threads, straggler slowdown).
        let mut launches: Vec<(usize, usize, u32, f64)> = Vec::new();
        let mut finished_early: Vec<usize> = Vec::new();
        for &i in &granted {
            let job = &mut jobs[i];
            if job.online.is_exhausted() {
                // The stream finished earlier; the answer is exact.
                pool.release(job.base.core.id).expect("granted job must hold its grant");
                terminals.finish(i, job, JobStatus::Attained, now);
                self.retire_job(material, job);
                finished_early.push(i);
                continue;
            }
            let threads = pool.threads_of(job.base.core.id);
            // Consult the fault plan for this (job, epoch, attempt): a crash
            // skips the data plane entirely — the epoch's work never happens
            // and the grant burns until the crash fires; a straggler runs
            // normally but its virtual duration is stretched in the
            // post-pass.
            let mut slowdown = 1.0;
            match self.config.faults.epoch_fault(
                job.base.core.id.0,
                job.base.core.epochs_run + 1,
                job.base.fault_attempts,
            ) {
                EpochFault::Crash { wasted_fraction } => {
                    let est = if job.base.core.epochs_run > 0 {
                        SimTime::from_secs_f64(
                            job.base.core.service_time.as_secs_f64()
                                / job.base.core.epochs_run as f64,
                        )
                    } else {
                        SimTime::from_secs(60)
                    };
                    job.threads = threads;
                    job.base.epoch_start = now;
                    job.base.core.status = JobStatus::Running;
                    events.schedule(now + est.scale(wasted_fraction), Event::EpochFailed(i));
                    continue;
                }
                EpochFault::Straggler { slowdown: s } => {
                    metrics.recovery_of(job.base.core.id).stragglers += 1;
                    slowdown = s;
                }
                EpochFault::None => {}
            }
            // Adaptive running epochs scale with the grant: a fully
            // resourced heavy job runs its long epoch, but a starved job
            // runs a short one so it returns to arbitration quickly instead
            // of blocking on a single thread for the epoch's whole length.
            let mut batches = if job.epoch_batches > BASE_EPOCH_BATCHES {
                (job.epoch_batches * threads as usize / MAX_THREADS_PER_JOB as usize)
                    .clamp(BASE_EPOCH_BATCHES, MAX_EPOCH_BATCHES)
            } else {
                job.epoch_batches
            };
            // Deadline-aware clipping (Rotary only): attainment can only be
            // declared at an epoch boundary, so an epoch projected to end
            // past the deadline converts a possible attainment into a miss.
            // Clip the epoch so its boundary lands inside the budget.
            if self.config.adaptive_epochs
                && matches!(policy, AqpPolicy::Rotary | AqpPolicy::RotaryRandomEstimator)
                && job.base.core.epochs_run > 0
            {
                let frac_per_batch = job.fraction_per_epoch;
                let batches_done =
                    (job.online.fraction_processed() / frac_per_batch.max(1e-12)).max(1.0);
                let per_batch_secs = job.base.core.service_time.as_secs_f64() / batches_done;
                let remaining = job.deadline_at().saturating_sub(now).as_secs_f64() * 0.95;
                if per_batch_secs > 0.0 {
                    let fit = (remaining / per_batch_secs).floor() as usize;
                    batches = batches.min(fit.max(1));
                }
            }
            launches.push((i, batches, threads, slowdown));
        }

        for &(i, batches, threads, slowdown) in &launches {
            let job = &mut jobs[i];
            let stats = job
                .online
                .process_epoch(batches)
                .expect("non-exhausted job must yield an epoch")
                .stats;
            let mut duration = self.cost.batch_time(stats, threads);
            if slowdown != 1.0 {
                // Straggler epoch: same work, stretched virtual time.
                duration = duration.scale(slowdown);
            }
            if !job.base.in_memory && job.base.core.epochs_run > 0 {
                // Resuming a paused job: pay the deferred persist cost plus
                // the restore (zero when the state stayed memory-resident).
                duration +=
                    job.pending_persist + material.resume(job.base.core.id.0, job.memory_mb);
                job.pending_persist = SimTime::ZERO;
                if job.base.restore_attempt(&self.config.faults, metrics) {
                    // The read failed once; the retry repeats the full
                    // disk restore (bounded: exactly one extra read).
                    duration += self.config.checkpoint.restore_cost(job.memory_mb);
                }
            }
            job.base.in_memory = true;
            job.threads = threads;
            job.base.epoch_start = now;
            job.base.core.status = JobStatus::Running;
            events.schedule(now + duration, Event::EpochDone(i));
        }

        // The job that just finished an epoch, if it was not re-granted, is
        // persisted per the materialization policy (paper §VI); a failed
        // write repeats the full disk write, deferred to the job's next
        // resume like the original persist cost.
        if let Some(i) = ckpt_candidate {
            let job = &mut jobs[i];
            if let Some(write_failed) = job.base.pause_if_idle(&self.config.faults, metrics) {
                job.pending_persist = material.pause(job.base.core.id.0, job.memory_mb);
                if write_failed {
                    job.pending_persist += self.config.checkpoint.checkpoint_cost(job.memory_mb);
                }
            }
        }

        // A launched job's epoch executes inside arbitration, advancing its
        // processed fraction — which feeds both its priority key and its
        // reported progress — so launched jobs are re-marked dirty and
        // touched, as are jobs retired by the exhaustion pre-pass.
        // (Crash-granted jobs schedule no data-plane work and keep their key
        // inputs; their mark comes with the failure event.)
        for &(i, _, _, _) in &launches {
            marks.mark(i);
        }
        for &i in &finished_early {
            marks.mark(i);
        }
    }

    /// The per-job value reported in progress snapshots.
    fn progress_of(j: &RunJob<'a>) -> f64 {
        if matches!(j.base.core.status, JobStatus::Attained | JobStatus::FalselyAttained) {
            1.0
        } else {
            j.progress()
        }
    }

    fn deadline_of(job: &RunJob<'a>) -> Option<SimTime> {
        Some(job.deadline_at())
    }

    fn release(
        &mut self,
        ext: &mut AqpRunExt,
        job: &mut RunJob<'a>,
    ) -> rotary_core::Result<String> {
        ext.pool.release(job.base.core.id)?;
        job.threads = 0;
        Ok("cpu".into())
    }

    fn retire(&mut self, ext: &mut AqpRunExt, job: &mut RunJob<'a>) {
        self.retire_job(&mut ext.material, job);
    }

    fn outcome(
        policy: AqpPolicy,
        jobs: Vec<(AqpJobSpec, JobState)>,
        summary: WorkloadSummary,
        metrics: WorkloadMetrics,
        makespan: SimTime,
        _ext: AqpRunExt,
    ) -> AqpRunResult {
        AqpRunResult { policy, jobs, summary, metrics, makespan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ClassMix, WorkloadBuilder};
    use rotary_core::json::{self, Json};
    use rotary_tpch::Generator;

    fn small_data() -> TpchData {
        Generator::new(77, 0.002).generate()
    }

    fn quick_config() -> AqpSystemConfig {
        AqpSystemConfig { seed: 42, ..AqpSystemConfig::default() }
    }

    #[test]
    fn single_job_attains_uncontended() {
        let data = small_data();
        let mut sys = AqpSystem::new(&data, quick_config());
        let specs = vec![AqpJobSpec::new(QueryId(6), 0.55, SimTime::from_secs(900), SimTime::ZERO)];
        let result = sys.run(&specs, AqpPolicy::Rotary).unwrap();
        let (_, state) = &result.jobs[0];
        assert!(
            matches!(state.status, JobStatus::Attained | JobStatus::FalselyAttained),
            "status {:?}",
            state.status
        );
        assert!(state.epochs_run > 0);
        assert!(result.makespan > SimTime::ZERO);
    }

    #[test]
    fn an_epoch_completion_for_a_job_holding_no_grant_fails_that_job_without_panicking() {
        // Reachable from a damaged-but-well-formed snapshot: its events name
        // a job its pool record does not hold. Snapshotted before any event,
        // job 3 of four has not even arrived; forge an epoch completion for
        // it.
        let data = small_data();
        let specs = WorkloadBuilder::paper().jobs(4).seed(3).build();
        let mut sys = AqpSystem::new(&data, quick_config());
        let live = arb::Run::start(&mut sys, &specs, AqpPolicy::Rotary).expect("start");
        let mut records = live.snapshot(&sys, 1).expect("snapshot");
        let events = records.iter_mut().find(|(name, _)| name == "events").expect("events record");
        let text = String::from_utf8(events.1.clone()).expect("utf-8");
        let mut doc = json::parse(&text).expect("events parse");
        if let Json::Obj(pairs) = &mut doc {
            if let Some((_, Json::Arr(entries))) = pairs.iter_mut().find(|(k, _)| k == "entries") {
                let forged_entry =
                    [("at", "1"), ("seq", "999"), ("kind", "epoch-done"), ("job", "3")]
                        .map(|(k, v)| (k, Json::Str(v.to_string())));
                entries.insert(0, Json::obj(forged_entry.to_vec()));
            }
        }
        let forged = doc.to_compact();
        assert_ne!(forged, text);
        events.1 = forged.into_bytes();

        let mut sys = AqpSystem::new(&data, quick_config());
        let resumed =
            arb::Run::restore(&mut sys, specs, AqpPolicy::Rotary, &records).expect("restore");
        let result = resumed.finish(&mut sys);
        let (_, forged_job) = &result.jobs[3];
        assert_eq!(forged_job.status, JobStatus::Failed);
        assert!(matches!(forged_job.failure, Some(RotaryError::UnknownJob(3))));
        assert!(result.jobs.iter().all(|(_, state)| state.status.is_terminal()));
    }

    #[test]
    fn all_jobs_reach_terminal_states() {
        let data = small_data();
        let mut sys = AqpSystem::new(&data, quick_config());
        let specs = WorkloadBuilder::paper().jobs(8).seed(5).build();
        for policy in AqpPolicy::all() {
            let result = sys.run(&specs, policy).unwrap();
            for (spec, state) in &result.jobs {
                assert!(
                    state.status.is_terminal(),
                    "{} left {} in {:?}",
                    policy.name(),
                    spec.query,
                    state.status
                );
            }
            let s = &result.summary;
            assert_eq!(
                s.attained + s.falsely_attained + s.deadline_missed,
                specs.len(),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let data = small_data();
        let specs = WorkloadBuilder::paper().jobs(6).seed(8).build();
        let mut sys1 = AqpSystem::new(&data, quick_config());
        let r1 = sys1.run(&specs, AqpPolicy::Rotary).unwrap();
        let mut sys2 = AqpSystem::new(&data, quick_config());
        let r2 = sys2.run(&specs, AqpPolicy::Rotary).unwrap();
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.summary, r2.summary);
        for (a, b) in r1.jobs.iter().zip(&r2.jobs) {
            assert_eq!(a.1.status, b.1.status);
            assert_eq!(a.1.epochs_run, b.1.epochs_run);
        }
    }

    /// The per-pass check has teeth: a standing key that no longer matches
    /// its job reorders the lazy prefix, and a debug build refuses the pass.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not a prefix of the dense rank")]
    fn a_corrupted_standing_key_fails_the_pass() {
        let data = small_data();
        let mut sys = AqpSystem::new(&data, quick_config());
        let policy = AqpPolicy::Rotary;
        let specs = WorkloadBuilder::paper().jobs(4).seed(5).build();
        let mut ext = sys.open(policy);
        let jobs = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| sys.bind(&mut ext, i, spec, policy, SimTime::ZERO).unwrap())
            .collect();
        let mut lp = Loop {
            jobs,
            events: rotary_sim::EventQueue::new(),
            metrics: WorkloadMetrics::new(),
            rr_cursor: 0,
            makespan: SimTime::ZERO,
            epochs_done: 0,
            marks: arb::Marks::default(),
            terminals: arb::Terminals::default(),
        };
        for i in 0..lp.jobs.len() {
            lp.jobs[i].base.core.status = JobStatus::Active;
            lp.marks.mark(i);
        }
        // The first pass launches every job; the second re-keys them.
        sys.arbitrate(&mut lp, &mut ext, policy, SimTime::ZERO, None);
        sys.arbitrate(&mut lp, &mut ext, policy, SimTime::ZERO, None);
        assert!(lp.marks.dirty.is_empty() && ext.arb.feasible.len() >= 2);
        // A NaN key sinks the head of the order below every other job.
        let (_, first) = ext.arb.feasible.iter().next().unwrap();
        ext.arb.feasible.upsert(first, OrdF64::new(f64::NAN));
        sys.arbitrate(&mut lp, &mut ext, policy, SimTime::ZERO, None);
    }

    #[test]
    fn a_pool_without_threads_misses_every_deadline() {
        let data = small_data();
        let pool = CpuPoolSpec { threads: 0, memory_mb: 64 * 1024 };
        let specs = WorkloadBuilder::paper().jobs(4).seed(5).build();
        for policy in [AqpPolicy::Rotary, AqpPolicy::Relaqs, AqpPolicy::Edf] {
            let mut sys = AqpSystem::new(&data, AqpSystemConfig { pool, ..quick_config() });
            let result = sys.run(&specs, policy).unwrap();
            for (spec, state) in &result.jobs {
                assert_eq!(
                    state.status,
                    JobStatus::DeadlineMissed,
                    "{} {}",
                    policy.name(),
                    spec.query
                );
            }
        }
    }

    #[test]
    fn adaptive_epochs_scale_with_memory() {
        let data = small_data();
        let probe = AqpSystem::new(&data, quick_config());
        assert!(probe.memory_estimate(QueryId(7)) > probe.memory_estimate(QueryId(6)));
        let specs = vec![
            AqpJobSpec::new(QueryId(7), 0.95, SimTime::from_secs(3000), SimTime::ZERO),
            AqpJobSpec::new(QueryId(6), 0.95, SimTime::from_secs(900), SimTime::ZERO),
        ];
        // (heavy, light) epochs to the same threshold.
        let epochs = |adaptive_epochs: bool| {
            let config = AqpSystemConfig { adaptive_epochs, ..quick_config() };
            let result = AqpSystem::new(&data, config).run(&specs, AqpPolicy::Rotary).unwrap();
            (result.jobs[0].1.epochs_run, result.jobs[1].1.epochs_run)
        };
        // The heavy job's larger footprint buys it longer epochs: it covers
        // more data per epoch and needs fewer of them.
        let (heavy, light) = epochs(true);
        assert!(0 < heavy && heavy < light, "heavy {heavy} vs light {light}");
        // Without adaptive epochs both run base-length epochs and the gap
        // closes.
        let (flat_heavy, flat_light) = epochs(false);
        assert!(flat_heavy > heavy, "heavy {flat_heavy} flat vs {heavy} adaptive");
        assert!(flat_light.abs_diff(flat_heavy) < light - heavy);
    }

    #[test]
    fn history_grows_after_runs() {
        let data = small_data();
        let mut sys = AqpSystem::new(&data, quick_config());
        assert!(sys.history().is_empty());
        let n = sys.prepopulate_history(3).unwrap();
        assert_eq!(n, 22);
        let specs = WorkloadBuilder::paper().jobs(3).seed(2).build();
        sys.run(&specs, AqpPolicy::Rotary).unwrap();
        assert_eq!(sys.history().len(), 22 + 3);
    }

    #[test]
    fn impossible_deadline_is_missed() {
        let data = small_data();
        let mut sys = AqpSystem::new(&data, quick_config());
        // An impossible deadline.
        let specs = vec![AqpJobSpec::new(QueryId(7), 0.95, SimTime::from_secs(5), SimTime::ZERO)];
        let result = sys.run(&specs, AqpPolicy::Rotary).unwrap();
        assert_eq!(result.jobs[0].1.status, JobStatus::DeadlineMissed);
    }

    #[test]
    fn pool_is_never_oversubscribed() {
        // Indirect invariant check: CpuPool panics on over-allocation, so a
        // mixed contended run completing is the assertion.
        let data = small_data();
        let mut cfg = quick_config();
        cfg.pool = CpuPoolSpec { threads: 4, memory_mb: 64 * 1024 };
        let mut sys = AqpSystem::new(&data, cfg);
        let specs = WorkloadBuilder::paper().jobs(10).mix(ClassMix::PAPER).seed(13).build();
        let result = sys.run(&specs, AqpPolicy::Rotary).unwrap();
        assert!(result.jobs.iter().all(|(_, s)| s.status.is_terminal()));
        // Contention at 4 threads must force checkpointing.
        assert!(result.summary.avg_checkpoints > 0.0);
    }

    #[test]
    fn ci_requirement_delays_declaration() {
        // q1 has three AVG columns; requiring a tight relative CI forces
        // the job to process more data before declaring than without it.
        let data = small_data();
        let base = AqpJobSpec::new(QueryId(1), 0.55, SimTime::from_secs(4000), SimTime::ZERO);
        let run = |spec: AqpJobSpec| {
            let mut sys = AqpSystem::new(&data, quick_config());
            let r = sys.run(&[spec], AqpPolicy::Rotary).unwrap();
            r.jobs[0].1.clone()
        };
        let plain = run(base.clone());
        let strict = run(base.with_ci_epsilon(0.0005));
        assert!(plain.status.is_terminal() && strict.status.is_terminal());
        assert!(
            strict.epochs_run >= plain.epochs_run,
            "CI requirement must not declare earlier: {} vs {}",
            strict.epochs_run,
            plain.epochs_run
        );
    }

    #[test]
    fn snapshots_and_spans_are_recorded() {
        let data = small_data();
        let mut sys = AqpSystem::new(&data, quick_config());
        let specs = WorkloadBuilder::paper().jobs(4).seed(11).build();
        let result = sys.run(&specs, AqpPolicy::Rotary).unwrap();
        assert!(!result.metrics.spans().is_empty());
        assert!(!result.metrics.snapshots().is_empty());
        assert!(result.metrics.busy_time("cpu") > SimTime::ZERO);
    }
}
