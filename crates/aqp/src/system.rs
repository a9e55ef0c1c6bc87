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

use std::collections::BTreeMap;

use rotary_core::arb::{OrdF64, Standing, StandingOrder};
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
    CheckpointModel, CpuPool, MaterializationManager, MaterializationPolicy, WorkloadMetrics,
    WorkloadSummary,
};
use rotary_store::{DurableConfig, DurableOutcome};
use rotary_tpch::{BatchSource, TpchData};

use crate::estimator::{build_estimator, random_estimate, QueryFeatures};
use crate::workload::AqpJobSpec;

mod snapshot;

/// Batches per epoch for the baselines and the Rotary reference point.
const BASE_EPOCH_BATCHES: usize = 3;
/// Cap on an adaptive epoch's length, in batches.
const MAX_EPOCH_BATCHES: usize = 12;
/// Max threads a single job may hold.
const MAX_THREADS_PER_JOB: u32 = 6;
/// Top-k similar historical jobs pooled into the estimator.
const TOP_K: usize = 5;
/// Checkpoint/restore cost model: paused jobs go to a SATA SSD.
const CHECKPOINT: CheckpointModel = CheckpointModel::ssd();

/// The arbitration policy driving the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AqpPolicy {
    /// Rotary-AQP (Algorithm 2): joint historical+real-time progress
    /// estimation gating feasibility, memory-aware grants, adaptive running
    /// epochs, extra threads to the feasible jobs with the earliest
    /// deadlines.
    Rotary,
    /// Rotary-AQP with the Fig. 9 ablation: the feasibility gate projects
    /// a uniform-random remaining time (U·3600 s, a pure function of the run
    /// seed, the job index and its epoch count) instead of the fitted
    /// estimate. Everything else, the deadline key included, is Rotary's.
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
    /// Where paused jobs are persisted (paper §VI: always-disk is the
    /// paper's implementation; memory-first explores the trade-off).
    pub materialization: MaterializationPolicy,
    /// Seed for per-job sampling orders and the random arm's draws.
    pub seed: u64,
    /// Fault-injection plan consulted by the control plane (default: the
    /// inert plan, which injects nothing and leaves the run byte-identical
    /// to a build without the fault layer).
    pub faults: FaultPlan,
    /// Host threads for *start-up work*: the ground-truth scans of
    /// [`AqpSystem::new`] and the historical runs of
    /// [`AqpSystem::prepopulate_history`]. A run itself is serial — an
    /// arbitration pass launches one epoch of (almost always) one job.
    /// Distinct from `pool`, which models the simulated testbed's threads.
    /// Default 1; every metric is bit-identical across values.
    pub threads: usize,
}

impl Default for AqpSystemConfig {
    fn default() -> Self {
        AqpSystemConfig {
            pool: CpuPoolSpec::paper_aqp_testbed(),
            batch_fraction: 0.01,
            envelope_window: 5,
            adaptive_epochs: true,
            feasibility_check: true,
            declaration_margin: 0.02,
            materialization: MaterializationPolicy::AlwaysDisk,
            seed: 0,
            faults: FaultPlan::none(),
            threads: 1,
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
    /// The fitted progress curve of the policies that read one (Rotary,
    /// ReLAQS); under Rotary's gate, a job without one is the Fig. 9 arm.
    estimator: Option<JointCurveEstimator>,
    features: QueryFeatures,
    memory_mb: u64,
    epoch_batches: usize,
    fraction_per_batch: f64,
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

/// The system's belief about a query's accuracy (running jobs and the
/// historical runs alike), per column:
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
fn estimated_accuracy(online: &OnlineAggregation<'_>, envelopes: &[EnvelopeDetector]) -> f64 {
    if online.is_exhausted() {
        return 1.0;
    }
    let frac = online.fraction_processed();
    let mut total = 0.0;
    for (env, func) in envelopes.iter().zip(online.agg_funcs()) {
        total += match func {
            rotary_engine::AggFunc::Sum | rotary_engine::AggFunc::Count => frac,
            _ => env.progress().unwrap_or(0.0),
        };
    }
    total / envelopes.len() as f64
}

impl RunJob<'_> {
    fn estimated_accuracy(&self) -> f64 {
        estimated_accuracy(&self.online, &self.envelopes)
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
    /// Every keyed policy's standing order over the alive jobs, keyed
    /// (doomed, priority key); round-robin, which rotates on every pass,
    /// re-ranks densely and leaves it empty. Never snapshotted: a started or
    /// restored run marks every job, so its first pass keys them all from
    /// job state.
    order: StandingOrder<(bool, OrdF64)>,
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

impl Feasibility {
    /// Whether the job is feasible at `now` (through its flip instant).
    fn holds_at(self, now: SimTime) -> bool {
        match self {
            Feasibility::Always => true,
            Feasibility::Until(t) => now <= t,
            Feasibility::Never => false,
        }
    }
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
            let online = self.bind_online(*id, seed ^ (i as u64 + 1))?;
            runs.push((QueryFeatures::of(&self.plans[&id.0], self.memory[&id.0]), online));
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
                curve.push((report.fraction_processed, estimated_accuracy(online, &envelopes)));
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

    /// Binds query `id` as a progressive query over its fact table's shared
    /// row order (one per table under the run seed), read from an offset
    /// `stream_seed` draws.
    fn bind_online(
        &mut self,
        id: QueryId,
        stream_seed: u64,
    ) -> rotary_core::Result<OnlineAggregation<'a>> {
        let plan = &self.plans[&id.0];
        let fact = self.data.table(&plan.fact).ok_or_else(|| RotaryError::PlanBind {
            plan: plan.label.clone(),
            message: format!("unknown fact table {}", plan.fact),
        })?;
        let order = self.cache.row_order(fact, self.config.seed);
        let batch_rows = Self::batch_rows_for(plan, self.data, self.config.batch_fraction);
        let source = BatchSource::at_offset(&order, stream_seed, batch_rows);
        OnlineAggregation::new(plan, self.data, &mut self.cache, self.truths[&id.0].clone(), source)
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

    /// Benchmark hook: [`Run::start`], kept because the frozen end-to-end
    /// benchmark crate (`crates/bench/e2e`) times control-plane steps
    /// through it and this pair. Not part of the public API contract.
    #[doc(hidden)]
    pub fn bench_start(
        &mut self,
        specs: &[AqpJobSpec],
        policy: AqpPolicy,
    ) -> rotary_core::Result<Run<Self>> {
        Run::start(self, specs, policy)
    }

    /// Benchmark hook: [`Run::step`] of a [`AqpSystem::bench_start`] run;
    /// returns `false` once the event queue has drained. `_policy` is
    /// unused; the frozen end-to-end benchmark passes it.
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
    /// its curve, and frees its aggregate groups, chunk scratch and fitted
    /// estimator — at most a pool's worth of jobs is ever alive, so neither
    /// their data-plane memory nor their curve points (which no ranking
    /// reads once the job is terminal, and no snapshot writes) may outlive
    /// them.
    /// Takes the materialization manager alone because `arbitrate` retires
    /// jobs while it holds the rest of the extension state apart.
    fn retire_job(&mut self, material: &mut MaterializationManager, job: &mut RunJob<'_>) {
        material.forget(job.base.core.id.0);
        self.archive(job);
        job.online.release();
        job.estimator = None;
    }

    /// Stores a finished job's observed curve in the repository.
    fn archive(&mut self, job: &RunJob<'_>) {
        let curve: Vec<(f64, f64)> = job
            .base
            .core
            .history
            .iter()
            .zip(std::iter::successors(
                Some(job.fraction_per_batch * job.epoch_batches as f64),
                |f| Some(f + job.fraction_per_batch * job.epoch_batches as f64),
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

    /// Epochs until the job has processed `frac_needed` of its table — what
    /// the fitted progress curve says its declaration accuracy takes, or 1.0
    /// (exhaustion makes the answer exact) when the curve is flat.
    fn epochs_needed(job: &RunJob<'_>, frac_needed: Option<f64>) -> f64 {
        let frac_now = job.online.fraction_processed();
        let frac_needed = frac_needed.map_or(1.0, |f| f.clamp(frac_now, 1.0));
        let per_epoch_frac = job.fraction_per_batch * job.epoch_batches as f64;
        ((frac_needed - frac_now) / per_epoch_frac.max(1e-9)).ceil()
    }

    /// The job's observed epoch duration normalised to the best-case grant:
    /// jobs are compared by what they could do with a full allocation, not
    /// by how starved they have been so far. Only for a job that has run.
    fn best_case_epoch_secs(job: &RunJob<'_>, max_threads: u32) -> f64 {
        let observed = job.base.core.service_time.as_secs_f64() / job.base.core.epochs_run as f64;
        observed * BatchCostModel::speedup(job.last_threads) / BatchCostModel::speedup(max_threads)
    }

    /// Rotary's feasibility gate as a *schedule*: the virtual instant up to
    /// which the job can still reach its threshold before its deadline — the
    /// "detect and preempt such anomalies" capability the paper motivates
    /// Rotary with. Solve the fitted curve for the declaration accuracy
    /// (stream exhaustion when it has no solution), convert the remaining
    /// data fraction to epochs, and extrapolate from the job's observed
    /// epoch durations; a job without a curve (the Fig. 9 random arm)
    /// projects a uniform draw instead. A job that has not run, and every
    /// job of a policy without the gate, is always feasible. Between state
    /// changes a job flips to infeasible at most once, at an exact
    /// millisecond, so its standing key asks to be re-keyed after that
    /// instant instead of every job being re-evaluated per event.
    fn feasible_until(&self, job: &RunJob<'_>, policy: AqpPolicy) -> Feasibility {
        let gated = matches!(policy, AqpPolicy::Rotary | AqpPolicy::RotaryRandomEstimator);
        if !gated || !self.config.feasibility_check || job.base.core.epochs_run == 0 {
            return Feasibility::Always;
        }
        let projected = match &job.estimator {
            Some(estimator) => {
                let target = job.spec.threshold + job.declaration_margin;
                // Flat or unknown curve: exhaustion makes the answer exact.
                let frac_needed = estimator.solve_for_x(target).ok().flatten();
                // Project at the best-case grant: feasibility asks whether
                // *any* allocation could still save the job, not whether its
                // current (possibly starved) rate suffices.
                let best_case = Self::best_case_epoch_secs(job, MAX_THREADS_PER_JOB);
                SimTime::from_secs_f64(Self::epochs_needed(job, frac_needed) * best_case)
            }
            None => {
                // Fig. 9: a uniform draw stands in for the whole estimate.
                let core = &job.base.core;
                let u = random_estimate(self.config.seed, core.id.0, core.epochs_run);
                SimTime::from_secs_f64(u * 3600.0)
            }
        };
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

    /// The priority key of every keyed policy (smaller runs first), shared
    /// verbatim by the dense and indexed control planes:
    ///
    /// * ReLAQS: the estimated remaining service — the fitted curve solved
    ///   for the declaration accuracy, in epochs at the best-case epoch
    ///   duration; +∞ before its first epoch (no real-time curve, no history);
    /// * LAF: the estimated accuracy;
    /// * EDF and Rotary (both arms): the absolute deadline (DESIGN.md §8
    ///   records the populations on which it beat a least-laxity key).
    ///
    /// Every key is clock-free and moves only at the job's own epoch
    /// completion or launch, both of which mark it dirty, so the indexed
    /// control plane keeps the order standing.
    fn priority_key(job: &RunJob<'_>, policy: AqpPolicy) -> f64 {
        match policy {
            AqpPolicy::Relaqs => {
                let target = job.spec.threshold + job.declaration_margin;
                match job.estimator.as_ref().map(|e| e.solve_for_x(target)) {
                    Some(Ok(frac_needed)) => {
                        Self::epochs_needed(job, frac_needed)
                            * Self::best_case_epoch_secs(job, MAX_THREADS_PER_JOB)
                    }
                    _ => f64::INFINITY,
                }
            }
            AqpPolicy::Laf => job.estimated_accuracy(),
            _ => job.deadline_at().as_secs_f64(),
        }
    }

    /// A keyed policy's standing key for `job` at `now`: alive jobs only,
    /// keyed (doomed, priority key), so doomed jobs sink below every
    /// feasible one. A feasible job with a finite horizon asks to be
    /// re-keyed once the horizon has passed, when it turns doomed with no
    /// state change; every other key stands until the job's next mark.
    fn standing_key(
        &self,
        job: &RunJob<'_>,
        now: SimTime,
        policy: AqpPolicy,
    ) -> Standing<(bool, OrdF64)> {
        if !job.is_alive() {
            return None;
        }
        let feasibility = self.feasible_until(job, policy);
        let feasible = feasibility.holds_at(now);
        let rekey_after = match feasibility {
            Feasibility::Until(t) if feasible => Some(t),
            _ => None,
        };
        Some(((!feasible, OrdF64::new(Self::priority_key(job, policy))), rekey_after))
    }

    /// Walks `ranking` to the policy's *target allocation*: Algorithm 2's
    /// two passes (one thread to every job that fits in memory, then extra
    /// threads in priority order up to the per-job cap). Pass one stops once
    /// every thread is targeted and pass two only tops up what it admitted,
    /// so only the returned prefix of the ranking is read. Grants converge
    /// to the target lazily — a running job keeps its current grant until
    /// its epoch boundary, honouring "a job holds on to a particular
    /// resource for at least an epoch".
    fn target_allocation(
        &self,
        jobs: &[RunJob<'_>],
        ranking: impl Iterator<Item = usize>,
        policy: AqpPolicy,
    ) -> (Vec<usize>, BTreeMap<usize, u32>) {
        let mut ranked = Vec::new();
        let mut target = BTreeMap::new();
        let mut threads_left = self.config.pool.threads;
        let mut mem_left = self.config.pool.memory_mb;
        for i in ranking {
            if threads_left == 0 {
                break;
            }
            ranked.push(i);
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
                for &i in &ranked {
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
            for &i in &ranked {
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
        (ranked, target)
    }

    /// The indexed plane's reference: the walk's prefix is the same-length
    /// prefix of the dense sort of every job by the standing key, the walk
    /// stopped only where pass one ran out of threads or jobs, and the
    /// allocator targets the same grants from either.
    #[cfg(debug_assertions)]
    fn check_prefix(
        &self,
        jobs: &[RunJob<'_>],
        (ranked, target): &(Vec<usize>, BTreeMap<usize, u32>),
        now: SimTime,
        policy: AqpPolicy,
    ) {
        let dense: Vec<usize> = StandingOrder::dense(0..jobs.len() as u32, |id| {
            self.standing_key(&jobs[id as usize], now, policy)
        })
        .into_iter()
        .map(|id| id as usize)
        .collect();
        assert!(
            dense.starts_with(ranked),
            "indexed prefix {ranked:?} is not a prefix of the dense rank {dense:?} at {now:?}"
        );
        assert!(
            ranked.len() == dense.len() || target.len() == self.config.pool.threads as usize,
            "the walk stopped at {ranked:?} with threads left at {now:?}"
        );
        assert_eq!(
            *target,
            self.target_allocation(jobs, dense.into_iter(), policy).1,
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
            material: MaterializationManager::new(self.config.materialization, CHECKPOINT),
            order: StandingOrder::default(),
        }
    }

    /// Binds one spec at global job index `i`. The index seeds the job's
    /// offset into its fact table's shared order, so a job admitted mid-run
    /// through the streaming seam binds identically to the same spec at the
    /// same position in a batch run — the property the serve-restore path
    /// relies on.
    fn bind(
        &mut self,
        _ext: &mut AqpRunExt,
        i: usize,
        spec: &AqpJobSpec,
        policy: AqpPolicy,
        _now: SimTime,
    ) -> rotary_core::Result<RunJob<'a>> {
        let online = self.bind_online(spec.query, self.config.seed ^ ((i as u64 + 1) * 0x9e37))?;
        let plan = &self.plans[&spec.query.0];
        let batch_rows = online.source().batch_size();
        let fact_rows = online.source().total_rows();
        let envelopes = (0..plan.aggregates.len())
            .map(|_| EnvelopeDetector::new(self.config.envelope_window))
            .collect();
        let memory_mb = self.memory[&spec.query.0];
        let features = QueryFeatures::of(plan, memory_mb);
        let estimator = match policy {
            AqpPolicy::Rotary => Some(build_estimator(&features, &mut self.history, TOP_K)),
            // ReLAQS estimates from real-time data only.
            AqpPolicy::Relaqs => Some(JointCurveEstimator::new(CurveBasis::LogShifted, Vec::new())),
            // The others read no curve, so they fit none.
            _ => None,
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
            fraction_per_batch: batch_rows as f64 / fact_rows as f64,
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
        ext: &mut AqpRunExt,
        job: &mut RunJob<'a>,
        now: SimTime,
    ) -> rotary_core::Result<(String, IntermediateState, Option<JobStatus>)> {
        let threads = job.threads; // `release` zeroes it
        let resource = self.release(ext, job)?;
        job.last_threads = threads.max(1);
        // What this epoch would have cost isolated with a full grant — the
        // baseline of the Fig. 7b waiting-time metric.
        job.base.core.add_isolated_service((now - job.base.epoch_start).scale(
            BatchCostModel::speedup(job.last_threads)
                / BatchCostModel::speedup(MAX_THREADS_PER_JOB),
        ));

        // Observe the epoch's results: envelope per column, estimator point.
        let values = job.online.executor().state().combined_all();
        for (env, v) in job.envelopes.iter_mut().zip(&values) {
            env.observe(v.unwrap_or(0.0));
        }
        let est_acc = job.estimated_accuracy();
        if let Some(estimator) = job.estimator.as_mut() {
            estimator.observe(job.online.fraction_processed(), est_acc);
        }

        let epoch = job.base.core.epochs_run + 1;
        let state =
            IntermediateState { epoch, at: now, metric_value: est_acc, progress: job.progress() };

        // Criterion check: declaration by envelope, verification by ground
        // truth (the simulator's oracle) — Fig. 7a's false attainment.
        // The deadline takes precedence: Fig. 6 counts "jobs that met their
        // convergence criteria *before* their deadline", so a declaration
        // landing on an epoch that finishes late is still a miss.
        let verdict = if now >= job.deadline_at() {
            Some(JobStatus::DeadlineMissed)
        } else if !job.declares_attained() {
            None
        } else if job.online.current_accuracy() >= job.spec.threshold {
            Some(JobStatus::Attained)
        } else {
            Some(JobStatus::FalselyAttained)
        };
        Ok((resource, state, verdict))
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
        let AqpRunExt { pool, material, order } = ext;
        // Injected transient memory pressure shrinks what the arbiter may
        // hand out for the duration of the current pressure slot.
        let spike = self.config.faults.memory_pressure_mb(now);
        let dirty = std::mem::take(&mut marks.dirty);
        // The queue Q_t: every arrived, unfinished job — including running
        // ones, whose grants are re-evaluated at their epoch boundaries.
        // Every keyed policy reads a standing order; round-robin advances
        // its cursor on every pass, so it re-ranks densely.
        let (ranked, target) = if policy == AqpPolicy::RoundRobin {
            // The id-ordered queue, rotated by the cursor.
            let mut alive: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].is_alive()).collect();
            if alive.is_empty() {
                return;
            }
            let n = alive.len();
            alive.rotate_left(*rr_cursor % n);
            *rr_cursor = (*rr_cursor + 1) % n;
            self.target_allocation(jobs, alive.into_iter(), policy)
        } else {
            // Re-key the marked jobs and those whose feasibility horizon
            // has passed; debug builds hold the walk to the dense sort of
            // every job by the same key.
            order.refresh(&dirty, now, |id| self.standing_key(&jobs[id as usize], now, policy));
            let walk = self.target_allocation(jobs, order.iter().map(|id| id as usize), policy);
            #[cfg(debug_assertions)]
            self.check_prefix(jobs, &walk, now, policy);
            walk
        };
        // Nothing is alive, or the pool has no thread.
        if ranked.is_empty() {
            return;
        }

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
                let batches_done =
                    (job.online.fraction_processed() / job.fraction_per_batch.max(1e-12)).max(1.0);
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
                    duration += CHECKPOINT.restore_cost(job.memory_mb);
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
                    job.pending_persist += CHECKPOINT.checkpoint_cost(job.memory_mb);
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
        assert!(lp.marks.dirty.is_empty() && ext.order.len() >= 2);
        // A NaN key sinks the head of the order below every other feasible
        // job (none has run, so none is doomed).
        let first = ext.order.iter().next().unwrap();
        ext.order
            .refresh(&[first], SimTime::ZERO, |_| Some(((false, OrdF64::new(f64::NAN)), None)));
        sys.arbitrate(&mut lp, &mut ext, policy, SimTime::ZERO, None);
    }

    /// Only Rotary and ReLAQS read a progress curve, so only their jobs fit
    /// one: the other policies' binds score no history row and their
    /// snapshots store no estimator points. `retire` drops a terminal job's
    /// curve, so only live entries carry the key. A snapshot whose entries
    /// all carry it (the layout every policy, and every terminal job, once
    /// wrote) restores to the uninterrupted run.
    #[test]
    fn a_policy_that_reads_no_curve_fits_none() {
        let data = small_data();
        let specs = WorkloadBuilder::paper().jobs(4).seed(5).build();
        let mut sys = AqpSystem::new(&data, quick_config());
        sys.prepopulate_history(3).unwrap();
        let entries = |records: &[(String, Vec<u8>)]| {
            let (_, bytes) = records.iter().find(|(name, _)| name == "jobs").expect("jobs record");
            let doc = json::parse(std::str::from_utf8(bytes).expect("utf-8")).expect("jobs parse");
            doc.as_arr().expect("jobs array").to_vec()
        };
        let live = |entry: &Json| {
            let status = entry.get("core").and_then(|core| core.get("status"));
            let status = status.and_then(Json::as_str).and_then(JobStatus::from_name);
            !status.expect("job status").is_terminal()
        };
        let mut kept = Vec::new();
        for policy in AqpPolicy::all() {
            let scored = sys.history().rows_scored();
            let mut run = arb::Run::start(&mut sys, &specs, policy).expect("start");
            // Step until a snapshot holds live and terminal entries alike.
            let records = loop {
                assert!(run.step(&mut sys), "{} ended no job beside a live one", policy.name());
                let records = run.snapshot(&sys, 1).expect("snapshot");
                let alive: Vec<bool> = entries(&records).iter().map(live).collect();
                if alive.contains(&true) && alive.contains(&false) {
                    break records;
                }
            };
            let result = run.finish(&mut sys);
            let fits = matches!(policy, AqpPolicy::Rotary | AqpPolicy::Relaqs);
            for entry in entries(&records) {
                let carries = fits && live(&entry);
                assert_eq!(entry.get("estimator").is_some(), carries, "{}", policy.name());
            }
            let scores = sys.history().rows_scored() > scored;
            assert_eq!(scores, policy == AqpPolicy::Rotary, "{}", policy.name());
            if matches!(policy, AqpPolicy::Edf | AqpPolicy::Rotary) {
                kept.push((policy, records, result));
            }
        }

        let stale = JointCurveEstimator::new(CurveBasis::LogShifted, Vec::new()).to_json();
        for (policy, mut records, result) in kept {
            let jobs = records.iter_mut().find(|(name, _)| name == "jobs").expect("jobs record");
            let forged: Vec<Json> = entries(std::slice::from_ref(jobs))
                .into_iter()
                .map(|entry| {
                    let Json::Obj(mut pairs) = entry else { panic!("job entry is not an object") };
                    if !pairs.iter().any(|(k, _)| k == "estimator") {
                        let at = pairs.iter().position(|(k, _)| k == "threads").expect("threads");
                        pairs.insert(at, ("estimator".to_string(), stale.clone()));
                    }
                    Json::Obj(pairs)
                })
                .collect();
            jobs.1 = Json::Arr(forged).to_compact().into_bytes();
            let mut sys = AqpSystem::new(&data, quick_config());
            let resumed =
                arb::Run::restore(&mut sys, specs.clone(), policy, &records).expect("restore");
            let replayed = resumed.finish(&mut sys);
            assert_eq!(replayed.metrics.to_compact(), result.metrics.to_compact());
            assert_eq!(format!("{:?}", replayed.jobs), format!("{:?}", result.jobs));
        }
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
    fn jobs_over_one_fact_table_share_one_order_allocation() {
        let data = small_data();
        let mut sys = AqpSystem::new(&data, quick_config());
        let mut ext = sys.open(AqpPolicy::Rotary);
        let secs = SimTime::from_secs;
        let specs = [
            AqpJobSpec::new(QueryId(6), 0.6, secs(900), SimTime::ZERO),
            AqpJobSpec::new(QueryId(1), 0.6, secs(900), secs(30)),
            AqpJobSpec::new(QueryId(22), 0.6, secs(900), secs(60)),
        ];
        let jobs: Vec<RunJob<'_>> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| sys.bind(&mut ext, i, spec, AqpPolicy::Rotary, SimTime::ZERO).unwrap())
            .collect();
        let source = |i: usize| jobs[i].online.source();
        // q6 and q1 both stream lineitem: one allocation, two offsets.
        assert!(source(0).shares_order_with(source(1)), "the lineitem order was copied");
        // q22 streams customer, another table and so another order.
        assert!(!source(0).shares_order_with(source(2)));
        let mut a = source(0).clone();
        let mut b = source(1).clone();
        assert_ne!(a.next_batch(), b.next_batch(), "two jobs read from one offset");
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
