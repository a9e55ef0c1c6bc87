//! One arbitration run loop, three drivers.
//!
//! The paper presents Rotary as one framework with two instantiations
//! (Rotary-AQP, Algorithm 2; Rotary-DLT, Algorithms 3–4). This module is
//! the framework half: the event loop, crash recovery, the three ways of
//! driving a run, and the durable snapshot envelope, written once against
//! the [`Arbiter`] trait. A system supplies what genuinely differs — how a
//! spec binds to a job, what an epoch does, how the queue is ranked and
//! granted, and its own snapshot records — and nothing else.
//!
//! An epoch ends the same way in both systems: the system releases the
//! job's grant and reports what the epoch produced
//! ([`Arbiter::complete_epoch`]); the loop records the epoch and its
//! placement span, then ends the job or sends it back to the queue.
//!
//! The drivers all step the same [`Run`] handle:
//!
//! * **batch** — [`run`]: start with the whole workload, step until the
//!   event queue drains;
//! * **durable** — [`run_durable`] / [`resume_durable`]: the same, committing
//!   a snapshot generation every `every` completed epochs and restarting
//!   from the newest valid one;
//! * **streaming** — [`Run::admit`] / [`Run::step`] /
//!   [`Run::drain_finished`]: jobs arrive one at a time (the seam the serve
//!   daemon and the arbitration bench drive).
//!
//! It lives in `rotary-faults` because this is the lowest crate that
//! already sees everything the loop touches — the event queue and metrics
//! (`rotary-sim`), the fault plan and retry policy (here), and the snapshot
//! store (`rotary-store`) — so hosting it adds no crate and no dependency
//! edge. Dispatch is static: every hook is called through a generic
//! parameter, never through `dyn`.

use std::cell::RefCell;

use rotary_core::error::{Result, RotaryError};
use rotary_core::history::HistoryRepository;
use rotary_core::job::{IntermediateState, JobState, JobStatus};
use rotary_core::json::{u64_json, Json};
use rotary_core::SimTime;
use rotary_sim::{CheckpointModel, EventQueue, PlacementSpan, WorkloadMetrics, WorkloadSummary};
use rotary_store::{
    fnv1a, json_record, record_json, record_text, DurableConfig, DurableOutcome, SnapshotRecords,
    SnapshotStore,
};

use crate::FaultPlan;

/// What the event queue carries. The payload is the job's index in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A job's arrival time has come: `Pending` becomes `Active`.
    Arrival(usize),
    /// The job's in-flight epoch completed.
    EpochDone(usize),
    /// An injected crash ends the job's in-flight epoch, losing its work.
    EpochFailed(usize),
    /// A crashed job's retry backoff has elapsed; it may be granted again.
    RetryReady(usize),
    /// The job's deadline: catches jobs waiting in the queue (or sitting
    /// out a backoff) past it — running jobs are checked at epoch end.
    DeadlineCheck(usize),
    /// Re-arbitrate with no job event (a newcomer was admitted, or a
    /// memory-pressure slot that blocked placements has ended).
    Wake,
}

/// Per-job bookkeeping the shared loop reads and writes; every system's
/// job state embeds one.
#[derive(Debug)]
pub struct JobBase {
    /// Lifecycle state, history and counters.
    pub core: JobState,
    /// The job's state is resident; cleared by a pause or a crash, so the
    /// next launch pays a restore.
    pub in_memory: bool,
    /// Start of the in-flight epoch.
    pub epoch_start: SimTime,
    /// Failed attempts at the current epoch; reset on success.
    pub fault_attempts: u32,
    /// Restores performed so far — indexes the restore-fault stream.
    pub restores: u64,
    /// Checkpoint writes so far — indexes the write-fault stream.
    pub ckpt_writes: u64,
}

impl JobBase {
    /// Fresh bookkeeping around a newly bound job.
    pub fn new(core: JobState) -> JobBase {
        JobBase {
            core,
            in_memory: false,
            epoch_start: SimTime::ZERO,
            fault_attempts: 0,
            restores: 0,
            ckpt_writes: 0,
        }
    }

    /// Checkpoints a job that finished an epoch and was not re-granted
    /// (`Active` and resident): it waits `Checkpointed`, evicted, and its
    /// checkpoint write is drawn from the plan's write-fault stream.
    /// `None` when the job was not idle; otherwise whether that write
    /// failed — the system decides what a failed write costs.
    pub fn pause_if_idle(
        &mut self,
        faults: &FaultPlan,
        metrics: &mut WorkloadMetrics,
    ) -> Option<bool> {
        if self.core.status != JobStatus::Active || !self.in_memory {
            return None;
        }
        self.core.status = JobStatus::Checkpointed;
        self.in_memory = false;
        self.core.checkpoints += 1;
        self.ckpt_writes += 1;
        let failed = faults.checkpoint_write(self.core.id.0, self.ckpt_writes).is_err();
        if failed {
            metrics.recovery_of(self.core.id).checkpoint_failures += 1;
        }
        Some(failed)
    }

    /// One restore of the job from its last checkpoint, drawn from the
    /// plan's restore-fault stream. Returns whether the read failed and
    /// must be repeated — the system decides what the repeat costs.
    pub fn restore_attempt(&mut self, faults: &FaultPlan, metrics: &mut WorkloadMetrics) -> bool {
        self.restores += 1;
        let failed = faults.restore(self.core.id.0, self.restores).is_err();
        if failed {
            metrics.recovery_of(self.core.id).restore_failures += 1;
        }
        failed
    }

    /// The placement span of the job's in-flight epoch, ending at `now`.
    fn span(&self, resource: String, now: SimTime, attained_at_end: bool) -> PlacementSpan {
        PlacementSpan {
            job: self.core.id,
            resource,
            start: self.epoch_start,
            end: now,
            attained_at_end,
        }
    }

    fn save(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("core", self.core.to_json()),
            ("in_memory", Json::Bool(self.in_memory)),
            ("epoch_start", u64_json(self.epoch_start.as_millis())),
            ("fault_attempts", Json::Num(f64::from(self.fault_attempts))),
            ("restores", u64_json(self.restores)),
            ("ckpt_writes", u64_json(self.ckpt_writes)),
        ]
    }

    fn load(&mut self, entry: &Json) -> Option<()> {
        self.core = JobState::from_json(entry.get("core")?, self.core.criterion.clone())?;
        self.in_memory = entry.get("in_memory")?.as_bool()?;
        self.epoch_start = SimTime::from_millis(entry.get("epoch_start")?.as_u64_str()?);
        self.fault_attempts = u32::try_from(entry.get("fault_attempts")?.as_u64()?).ok()?;
        self.restores = entry.get("restores")?.as_u64_str()?;
        self.ckpt_writes = entry.get("ckpt_writes")?.as_u64_str()?;
        Some(())
    }
}

/// A system's per-job state: whatever it needs, around a [`JobBase`].
pub trait Job {
    /// The shared bookkeeping.
    fn base(&self) -> &JobBase;
    /// The shared bookkeeping, mutably.
    fn base_mut(&mut self) -> &mut JobBase;
}

/// Which jobs changed since the last arbitration / metrics row — one
/// protocol for every policy. The shell marks every job an event changed,
/// every admitted job, and every job of a started or restored run; a
/// system marks what its own pass changed. A pass consumes `dirty` (the
/// indexed control planes re-key exactly those jobs; a dense pass drops
/// them), and each step's progress row reports only the `touched` jobs.
#[derive(Debug, Default)]
pub struct Marks {
    /// Jobs whose state changed since the last arbitration.
    pub dirty: Vec<u32>,
    /// Jobs whose progress may have changed since the last metrics row
    /// (a superset of `dirty`).
    pub touched: Vec<u32>,
}

impl Marks {
    /// Marks a job dirty and touched.
    pub fn mark(&mut self, i: usize) {
        self.dirty.push(i as u32);
        self.touched.push(i as u32);
    }

    /// Jobs `0..n` all marked: a run whose caches and rows start empty.
    fn all(n: usize) -> Marks {
        let dirty: Vec<u32> = (0..n as u32).collect();
        Marks { touched: dirty.clone(), dirty }
    }
}

/// The jobs that reached a terminal status since the last
/// [`Run::drain_finished`]. Every job that ends inside a run ends through
/// [`Terminals::finish`] — the loop's own sites, and AQP's early-exhaustion
/// pre-pass — so a drain costs what finished, not a scan of the run.
/// Derived state: a restored run starts with none pending.
#[derive(Debug, Default)]
pub struct Terminals(Vec<u32>);

impl Terminals {
    /// Ends job `i` of the run with `status` at `now`.
    pub fn finish<J: Job>(&mut self, i: usize, job: &mut J, status: JobStatus, now: SimTime) {
        job.base_mut().core.finish(status, now);
        self.0.push(i as u32);
    }
}

/// The loop state every system shares.
pub struct Loop<J> {
    /// Per-job state, indexed by job id.
    pub jobs: Vec<J>,
    /// Pending events in virtual time.
    pub events: EventQueue<Event>,
    /// Placement spans, progress rows and recovery counters.
    pub metrics: WorkloadMetrics,
    /// Round-robin cursor of the baseline policies.
    pub rr_cursor: usize,
    /// Virtual time at which the last job finished so far.
    pub makespan: SimTime,
    /// Completed epochs across all jobs — the snapshot cadence counter.
    pub epochs_done: u64,
    /// Change tracking: what the next pass re-keys and the next row reports.
    pub marks: Marks,
    /// Jobs that ended since the last drain.
    pub terminals: Terminals,
}

/// What a system supplies to be driven by [`Run`].
///
/// The hooks that schedule and grant receive the shared [`Loop`] and the
/// system's own [`Arbiter::Ext`] side by side, so a hook can borrow fields
/// of both at once; the per-job hooks see only the `Ext` and that job.
pub trait Arbiter: Sized {
    /// One submitted job.
    type Spec: Clone;
    /// The arbitration policy of a run.
    type Policy: Copy;
    /// Per-job run state.
    type Job: Job;
    /// The system-specific half of a run: resource pool, materialization
    /// or timing tables, control-plane caches.
    type Ext;
    /// What a finished run condenses into.
    type Outcome;
    /// Why a spec can fail to bind (`Infallible` when it cannot).
    type BindError: Into<RotaryError>;

    /// The fault plan the loop consults.
    fn faults(&self) -> &FaultPlan;
    /// Fresh system-specific state for an empty run.
    fn open(&mut self, policy: Self::Policy) -> Self::Ext;
    /// Binds `spec` as job `i`, arriving at `now`. The index seeds the
    /// job's randomness, so a job admitted mid-run binds identically to the
    /// same spec at the same position of a batch run.
    fn bind(
        &mut self,
        ext: &mut Self::Ext,
        i: usize,
        spec: &Self::Spec,
        policy: Self::Policy,
        now: SimTime,
    ) -> std::result::Result<Self::Job, Self::BindError>;
    /// Starts a batch run once every job is bound (schedule the arrivals,
    /// or arbitrate at t = 0).
    fn begin(&mut self, lp: &mut Loop<Self::Job>, ext: &mut Self::Ext, policy: Self::Policy);
    /// Job `i` was just pushed (and marked) by a streaming admission at
    /// `now`: schedule what brings it into arbitration. The next pass
    /// keys it in like any other marked job.
    fn admit(&mut self, lp: &mut Loop<Self::Job>, ext: &mut Self::Ext, i: usize, now: SimTime);
    /// `job`'s epoch completed at `now`: release its grant and observe the
    /// epoch. Returns the resource's name for the placement timeline, the
    /// epoch's state, and its criterion's verdict (`None`: back to the
    /// queue), taken before the loop records the state so that it can read
    /// the previous one. The loop records the epoch and its span, and ends
    /// the job through [`Arbiter::retire`] or re-queues it.
    ///
    /// # Errors
    /// The pool's typed error when the job held nothing — the job then
    /// finishes `Failed` with it.
    fn complete_epoch(
        &mut self,
        ext: &mut Self::Ext,
        job: &mut Self::Job,
        now: SimTime,
    ) -> Result<(String, IntermediateState, Option<JobStatus>)>;
    /// Ranks the queue, grants resources and launches epochs. The pass
    /// consumes `marks.dirty`, marks every job whose state or progress it
    /// changed, and pauses `ckpt_candidate` — the job whose epoch
    /// completion triggered it, and the only job that can need pausing —
    /// when it was not re-granted. Debug builds check both after the pass.
    fn arbitrate(
        &mut self,
        lp: &mut Loop<Self::Job>,
        ext: &mut Self::Ext,
        policy: Self::Policy,
        now: SimTime,
        ckpt_candidate: Option<usize>,
    );
    /// The value a progress row reports for the job.
    fn progress_of(job: &Self::Job) -> f64;
    /// The job's absolute deadline, when waiting past it ends the job.
    fn deadline_of(job: &Self::Job) -> Option<SimTime>;
    /// Frees whatever the job held when its epoch crashed; returns the
    /// resource's name for the placement timeline.
    ///
    /// # Errors
    /// The pool's typed error when the job held nothing — the job then
    /// finishes `Failed` with it.
    fn release(&mut self, ext: &mut Self::Ext, job: &mut Self::Job) -> Result<String>;
    /// `job` just ended (its criterion's verdict, deadline, exhausted
    /// retries, a failed release): drop its residual state — the job is
    /// mutable so the system can free what only a further epoch would need
    /// — and archive what it produced.
    fn retire(&mut self, ext: &mut Self::Ext, job: &mut Self::Job);
    /// Condenses a drained run.
    fn outcome(
        policy: Self::Policy,
        jobs: Vec<(Self::Spec, JobState)>,
        summary: WorkloadSummary,
        metrics: WorkloadMetrics,
        makespan: SimTime,
        ext: Self::Ext,
    ) -> Self::Outcome;
}

/// What a system adds to make its runs durable: the records only it can
/// write, around the envelope [`Run::snapshot`] shares.
pub trait Durable: Arbiter {
    /// Format tag of the snapshot `meta` record; bump when a layout changes.
    const FORMAT: &'static str;

    /// The checkpoint cost model (validated before a durable run).
    fn checkpoint(&self) -> &CheckpointModel;
    /// The historical-job repository (snapshotted with the run).
    fn history(&self) -> &HistoryRepository;
    /// Replaces the repository (a restore owns it).
    fn set_history(&mut self, history: HistoryRepository);
    /// Display name of the policy (recorded in `meta`, opens the
    /// fingerprint text).
    fn policy_name(policy: Self::Policy) -> String;
    /// Appends everything else that identifies a run — seed, pool shape,
    /// every spec field that influences the trace — to the fingerprint
    /// text. A snapshot only restores into a run with the same text.
    fn fingerprint_text(&self, specs: &[Self::Spec], text: &mut String);
    /// The system's own fields of one job's snapshot entry.
    fn save_job(job: &Self::Job) -> Vec<(&'static str, Json)>;
    /// Overwrites a freshly bound job with its snapshot entry.
    fn load_job(job: &mut Self::Job, entry: &Json) -> Option<()>;
    /// The system's own snapshot records, in commit order.
    fn save(&self, ext: &Self::Ext) -> Vec<(&'static str, Json)>;
    /// Overwrites freshly opened state from the records [`Durable::save`]
    /// wrote.
    ///
    /// # Errors
    /// [`RotaryError::SnapshotCorrupt`] on structural damage.
    fn load(&self, ext: &mut Self::Ext, records: &[(String, Vec<u8>)]) -> Result<()>;
}

/// A typed error for structural damage in an `A`-format snapshot.
pub fn corrupt<A: Durable>(detail: &str) -> RotaryError {
    RotaryError::SnapshotCorrupt { detail: format!("{}: {detail}", A::FORMAT) }
}

/// An in-flight run of one workload under one policy: the handle all three
/// drivers step. It accumulates the admitted specs, so a snapshot of a
/// stream is exactly a snapshot of the equivalent batch run.
pub struct Run<A: Arbiter> {
    policy: A::Policy,
    specs: Vec<A::Spec>,
    lp: Loop<A::Job>,
    ext: A::Ext,
    /// Terminal outcomes already handed out by [`Run::drain_finished`].
    n_reported: usize,
    /// Per job, the compact `jobs` entry of a job an earlier
    /// [`Run::snapshot`] found terminal. Derived: empty until the first
    /// snapshot, and a restored run starts without it.
    frozen: RefCell<Vec<Option<String>>>,
}

impl<A: Arbiter> Run<A> {
    /// Binds the whole workload and starts it; with no specs this opens an
    /// empty streaming run.
    ///
    /// # Errors
    /// The system's bind error; no partial run happens.
    pub fn start(
        sys: &mut A,
        specs: &[A::Spec],
        policy: A::Policy,
    ) -> std::result::Result<Run<A>, A::BindError> {
        let mut ext = sys.open(policy);
        let jobs = Self::bind_all(sys, &mut ext, specs, policy)?;
        // A job can be born terminal (no resource could ever host it).
        let born_terminal = (0..jobs.len() as u32)
            .filter(|&i| jobs[i as usize].base().core.status.is_terminal())
            .collect();
        let mut lp = Loop {
            marks: Marks::all(jobs.len()),
            jobs,
            events: EventQueue::new(),
            metrics: WorkloadMetrics::new(),
            rr_cursor: 0,
            makespan: SimTime::ZERO,
            epochs_done: 0,
            terminals: Terminals(born_terminal),
        };
        sys.begin(&mut lp, &mut ext, policy);
        let frozen = RefCell::default();
        Ok(Run { policy, specs: specs.to_vec(), lp, ext, n_reported: 0, frozen })
    }

    fn bind_all(
        sys: &mut A,
        ext: &mut A::Ext,
        specs: &[A::Spec],
        policy: A::Policy,
    ) -> std::result::Result<Vec<A::Job>, A::BindError> {
        specs
            .iter()
            .enumerate()
            .map(|(i, spec)| sys.bind(ext, i, spec, policy, SimTime::ZERO))
            .collect()
    }

    /// Admits one job at virtual time `now` (which must not precede the
    /// run's clock), returning its job index.
    ///
    /// # Errors
    /// The system's bind error; the run is untouched.
    pub fn admit(
        &mut self,
        sys: &mut A,
        spec: A::Spec,
        now: SimTime,
    ) -> std::result::Result<usize, A::BindError> {
        let i = self.lp.jobs.len();
        let job = sys.bind(&mut self.ext, i, &spec, self.policy, now)?;
        if job.base().core.status.is_terminal() {
            self.lp.terminals.0.push(i as u32);
        }
        self.lp.jobs.push(job);
        self.lp.marks.mark(i);
        sys.admit(&mut self.lp, &mut self.ext, i, now);
        self.specs.push(spec);
        Ok(i)
    }

    /// The policy the run was started under.
    pub fn policy(&self) -> A::Policy {
        self.policy
    }

    /// The specs admitted so far, in admission order.
    pub fn specs(&self) -> &[A::Spec] {
        &self.specs
    }

    /// The virtual time of the run's next internal event, if any.
    pub fn peek(&self) -> Option<SimTime> {
        self.lp.events.peek_time()
    }

    /// Processes one event and re-arbitrates. Returns `false` when the
    /// queue has drained (a streaming run may refill it by admitting).
    pub fn step(&mut self, sys: &mut A) -> bool {
        let (lp, ext) = (&mut self.lp, &mut self.ext);
        let Some((now, event)) = lp.events.pop() else {
            return false;
        };
        // Only an epoch completion can leave a job Active and in memory, so
        // the arbitration's trailing pause pass has at most this candidate.
        let ckpt_candidate = match event {
            Event::EpochDone(i) => Some(i),
            _ => None,
        };
        // The job whose state the event changed, if any.
        let changed = match event {
            Event::Arrival(i) => {
                let core = &mut lp.jobs[i].base_mut().core;
                let pending = core.status == JobStatus::Pending;
                if pending {
                    core.status = JobStatus::Active;
                }
                pending.then_some(i)
            }
            Event::EpochDone(i) => {
                end_epoch(sys, lp, ext, i, now);
                lp.epochs_done += 1;
                Some(i)
            }
            Event::EpochFailed(i) => {
                fail_epoch(sys, lp, ext, i, now);
                Some(i)
            }
            Event::RetryReady(i) => {
                let job = &mut lp.jobs[i];
                let recovering = job.base().core.status == JobStatus::Recovering;
                if recovering && A::deadline_of(job).is_some_and(|deadline| now >= deadline) {
                    finish(sys, &mut lp.terminals, ext, i, job, JobStatus::DeadlineMissed, now);
                } else if recovering {
                    // Back from backoff: re-enters arbitration from its
                    // last checkpoint.
                    job.base_mut().core.status = JobStatus::Checkpointed;
                }
                recovering.then_some(i)
            }
            Event::DeadlineCheck(i) => {
                let job = &mut lp.jobs[i];
                let status = job.base().core.status;
                let waiting = status.is_arbitrable() || status == JobStatus::Recovering;
                let expired =
                    waiting && A::deadline_of(job).is_some_and(|deadline| now >= deadline);
                if expired {
                    finish(sys, &mut lp.terminals, ext, i, job, JobStatus::DeadlineMissed, now);
                }
                expired.then_some(i)
            }
            Event::Wake => None,
        };
        if let Some(i) = changed {
            lp.marks.mark(i);
            if lp.jobs[i].base().core.status.is_terminal() {
                lp.makespan = lp.makespan.max(now);
            }
        }

        sys.arbitrate(lp, ext, self.policy, now, ckpt_candidate);
        #[cfg(debug_assertions)]
        check_tracking::<A>(lp, ckpt_candidate);

        // Only jobs an event or a pass touched can have moved; the recorder
        // bit-compares and drops the unchanged. Every job enters a run
        // marked, so a trace's first row lists them all.
        let touched = std::mem::take(&mut lp.marks.touched);
        let row = |&id: &u32| {
            let job = &lp.jobs[id as usize];
            (job.base().core.id, A::progress_of(job))
        };
        let candidates: Vec<_> = touched.iter().map(row).collect();
        lp.metrics.record_snapshot_sparse(now, &candidates);
        true
    }

    /// Drains the jobs that reached a terminal status since the last call,
    /// in ascending job index: `(job index, terminal status, finish time)`.
    /// Each job is reported exactly once across the run's lifetime,
    /// including across a snapshot/restore boundary (restored terminals
    /// count as already reported — their outcomes live in the caller's own
    /// ledger). Costs O(jobs that ended since the last call); a call with
    /// nothing to report neither scans nor allocates.
    pub fn drain_finished(&mut self) -> Vec<(usize, JobStatus, SimTime)> {
        let Loop { jobs, terminals: Terminals(ended), makespan, .. } = &mut self.lp;
        ended.sort_unstable();
        self.n_reported += ended.len();
        debug_assert_eq!(
            self.n_reported,
            jobs.iter().filter(|j| j.base().core.status.is_terminal()).count(),
            "a job ended without going through Terminals::finish, or was queued twice"
        );
        // Drained in place so the queue keeps its capacity.
        ended
            .drain(..)
            .map(|i| {
                let core = &jobs[i as usize].base().core;
                (i as usize, core.status, core.finished_at.unwrap_or(*makespan))
            })
            .collect()
    }

    /// Jobs admitted whose terminal outcome has not been drained yet. A
    /// caller that drains after every admit and step — the serve backend
    /// does — reads this as "admitted but not yet terminal".
    pub fn inflight(&self) -> usize {
        let n = self.lp.jobs.len() - self.n_reported;
        debug_assert_eq!(
            n,
            self.lp.jobs.iter().filter(|j| !j.base().core.status.is_terminal()).count(),
            "inflight read with undrained terminal jobs"
        );
        n
    }

    /// Steps to quiescence and condenses the run.
    pub fn finish(mut self, sys: &mut A) -> A::Outcome {
        while self.step(sys) {}
        self.into_outcome()
    }

    fn into_outcome(self) -> A::Outcome {
        let Loop { jobs, metrics, makespan, .. } = self.lp;
        let states: Vec<JobState> = jobs.iter().map(|j| j.base().core.clone()).collect();
        let summary = WorkloadSummary::from_jobs(&states, makespan);
        let jobs = self.specs.into_iter().zip(states).collect();
        A::outcome(self.policy, jobs, summary, metrics, makespan, self.ext)
    }
}

impl<A: Durable> Run<A> {
    /// Serialises the run as named snapshot records. The envelope is
    /// shared: `meta` (format tag, policy, run fingerprint, generation,
    /// epoch count), `jobs`, `events`, the system's own records, `loop`
    /// (cursor, makespan), and the `metrics` / `history` codecs verbatim.
    /// Everything deterministic and derivable is rebuilt from the config
    /// on restore instead of being stored.
    ///
    /// Every record is compact JSON, and both its bytes and its encoding
    /// grow with what happened rather than with the trace's rows × jobs:
    /// `metrics` holds the progress rows as they are stored (one full row,
    /// then deltas of the jobs that moved; see
    /// [`WorkloadMetrics::to_compact`]), not the dense export; terminal
    /// jobs' entries (frozen once terminal) and the append-only spans,
    /// progress rows and history records are encoded once and their text
    /// reused by every later snapshot of the same run.
    ///
    /// # Errors
    /// Serialization failures pass through as typed errors.
    pub fn snapshot(&self, sys: &A, generation: u64) -> Result<SnapshotRecords> {
        let lp = &self.lp;
        let meta = Json::obj(vec![
            ("format", Json::Str(A::FORMAT.to_string())),
            ("policy", Json::Str(A::policy_name(self.policy))),
            ("fingerprint", u64_json(fingerprint(sys, &self.specs, self.policy))),
            ("generation", u64_json(generation)),
            ("epochs_done", u64_json(lp.epochs_done)),
        ]);
        let loop_doc = Json::obj(vec![
            ("rr_cursor", u64_json(lp.rr_cursor as u64)),
            ("makespan", u64_json(lp.makespan.as_millis())),
        ]);
        let own = sys.save(&self.ext);
        let record = |name: &str, doc: Json| json_record(name, &doc);
        let text = |name: &str, text: String| (name.to_string(), text.into_bytes());
        let mut records = vec![
            record("meta", meta),
            text("jobs", self.jobs_record()),
            record("events", events_json(&lp.events)),
        ];
        records.extend(own.into_iter().map(|(name, doc)| record(name, doc)));
        records.push(record("loop", loop_doc));
        records.push(text("metrics", lp.metrics.to_compact()));
        records.push(text("history", sys.history().to_compact()));
        Ok(records)
    }

    /// The `jobs` record's text: each job's lifecycle entry plus the
    /// system's own fields, as one compact array.
    ///
    /// A terminal job's entry is frozen. Everything that writes a job runs
    /// under an event or a grant for it: grants go to arbitrable jobs only,
    /// an arrival, retry or deadline event acts only on a pending,
    /// recovering or waiting job, and an epoch event only exists for a
    /// running one — which ends only through that event. `retire` runs
    /// once, inside the step that ends the job, and a job is never ended
    /// twice (`drain_finished` asserts it). So the entry is encoded by the
    /// first snapshot that finds the job terminal, and that text is reused
    /// by every later one.
    fn jobs_record(&self) -> String {
        let mut frozen = self.frozen.borrow_mut();
        frozen.resize(self.lp.jobs.len(), None);
        let mut out = String::from("[");
        for (i, (job, frozen)) in self.lp.jobs.iter().zip(frozen.iter_mut()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(entry) = frozen {
                out.push_str(entry);
                continue;
            }
            let mut pairs = job.base().save();
            pairs.extend(A::save_job(job));
            let entry = Json::obj(pairs).to_compact();
            out.push_str(&entry);
            if job.base().core.status.is_terminal() {
                *frozen = Some(entry);
            }
        }
        out.push(']');
        out
    }

    /// Rebuilds a run from records written by [`Run::snapshot`]: jobs are
    /// re-bound through the normal path, then their mutable state is
    /// overwritten. `specs` must be the admitted specs in admission order.
    /// All parsing is panic-free.
    ///
    /// # Errors
    /// [`RotaryError::SnapshotCorrupt`] on structural damage;
    /// [`RotaryError::InvalidConfig`] when the snapshot belongs to a
    /// different workload, policy, or config.
    pub fn restore(
        sys: &mut A,
        specs: Vec<A::Spec>,
        policy: A::Policy,
        records: &[(String, Vec<u8>)],
    ) -> Result<Run<A>> {
        let bad = |what: &str| corrupt::<A>(&format!("malformed {what}"));
        let meta = record_json(records, "meta")?;
        if meta.get("format").and_then(Json::as_str) != Some(A::FORMAT) {
            return Err(corrupt::<A>("unknown meta.format"));
        }
        let field = |key: &str| meta.get(key).and_then(Json::as_u64_str);
        let written_for = field("fingerprint").ok_or_else(|| bad("meta.fingerprint"))?;
        if written_for != fingerprint(sys, &specs, policy) {
            return Err(RotaryError::InvalidConfig(
                "snapshot fingerprint does not match this workload/policy/config; \
                 refusing to resume a different run"
                    .into(),
            ));
        }
        let epochs_done = field("epochs_done").ok_or_else(|| bad("meta.epochs_done"))?;

        // History first: the repository is system-level state the snapshot
        // owns, and binding reads it.
        sys.set_history(HistoryRepository::from_json(record_text(records, "history")?)?);
        let metrics = WorkloadMetrics::from_json(record_text(records, "metrics")?)?;
        let mut ext = sys.open(policy);
        let mut jobs =
            Self::bind_all(sys, &mut ext, &specs, policy).map_err(Into::<RotaryError>::into)?;
        sys.load(&mut ext, records)?;

        let jobs_doc = record_json(records, "jobs")?;
        let entries = jobs_doc.as_arr().ok_or_else(|| bad("jobs record"))?;
        if entries.len() != jobs.len() {
            return Err(corrupt::<A>("job count does not match the workload"));
        }
        for (job, entry) in jobs.iter_mut().zip(entries) {
            job.base_mut()
                .load(entry)
                .and_then(|()| A::load_job(job, entry))
                .ok_or_else(|| bad("job entry"))?;
        }
        let events = restore_events(&record_json(records, "events")?, jobs.len())
            .ok_or_else(|| bad("events record"))?;
        let loop_doc = record_json(records, "loop")?;
        let cursor = |key: &str| loop_doc.get(key).and_then(Json::as_u64_str);
        let rr_cursor = cursor("rr_cursor")
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| bad("loop.rr_cursor"))?;
        let makespan =
            cursor("makespan").map(SimTime::from_millis).ok_or_else(|| bad("loop.makespan"))?;

        let n_reported = jobs.iter().filter(|j| j.base().core.status.is_terminal()).count();
        // Caches are never snapshotted: the first pass keys every job
        // afresh, and the first row re-reads them all (a job admitted after
        // the last row has no recorded value yet).
        let (marks, terminals) = (Marks::all(jobs.len()), Terminals::default());
        let lp = Loop { jobs, events, metrics, rr_cursor, makespan, epochs_done, marks, terminals };
        Ok(Run { policy, specs, lp, ext, n_reported, frozen: RefCell::default() })
    }
}

/// The two invariants the tracking protocol rests on, checked after every
/// pass in debug builds: only the pass's checkpoint candidate can still be
/// `Active` and resident (an arrival is not resident yet, a crash clears
/// residency, a grant makes the job `Running`), so pausing it alone pauses
/// what a scan of every job would; and every job outside `touched` still
/// reports the progress the recorder last saw, so a row built from
/// `touched` materializes to the full row.
#[cfg(debug_assertions)]
fn check_tracking<A: Arbiter>(lp: &Loop<A::Job>, ckpt_candidate: Option<usize>) {
    let mut touched = vec![false; lp.jobs.len()];
    for &i in &lp.marks.touched {
        touched[i as usize] = true;
    }
    for (i, job) in lp.jobs.iter().enumerate() {
        let base = job.base();
        debug_assert!(
            Some(i) == ckpt_candidate || base.core.status != JobStatus::Active || !base.in_memory,
            "job {i} was left active and resident by a pass it did not trigger"
        );
        if !touched[i] {
            debug_assert_eq!(
                lp.metrics.last_progress(base.core.id).map(f64::to_bits),
                Some(A::progress_of(job).to_bits()),
                "job {i}'s progress moved without a mark"
            );
        }
    }
}

/// Finishes job `i` from the shared loop and lets the system retire it.
fn finish<A: Arbiter>(
    sys: &mut A,
    terminals: &mut Terminals,
    ext: &mut A::Ext,
    i: usize,
    job: &mut A::Job,
    status: JobStatus,
    now: SimTime,
) {
    terminals.finish(i, job, status, now);
    sys.retire(ext, job);
}

/// Ends job `i` `Failed` with `error`.
fn fail<A: Arbiter>(
    sys: &mut A,
    terminals: &mut Terminals,
    ext: &mut A::Ext,
    i: usize,
    job: &mut A::Job,
    error: RotaryError,
    now: SimTime,
) {
    job.base_mut().core.failure = Some(error);
    finish(sys, terminals, ext, i, job, JobStatus::Failed, now);
}

/// Ends job `i`'s completed epoch for either system; a release error
/// fails the job as in the crash path.
fn end_epoch<A: Arbiter>(
    sys: &mut A,
    lp: &mut Loop<A::Job>,
    ext: &mut A::Ext,
    i: usize,
    now: SimTime,
) {
    let (job, terminals) = (&mut lp.jobs[i], &mut lp.terminals);
    let (resource, state, verdict) = match sys.complete_epoch(ext, job, now) {
        Ok(epoch) => epoch,
        Err(e) => return fail(sys, terminals, ext, i, job, e, now),
    };
    let base = job.base_mut();
    base.fault_attempts = 0;
    base.core.record_epoch(state, now - base.epoch_start);
    lp.metrics.record_span(base.span(resource, now, verdict == Some(JobStatus::Attained)));
    match verdict {
        Some(status) => finish(sys, terminals, ext, i, job, status, now),
        None => base.core.status = JobStatus::Active,
    }
}

/// Handles an injected epoch crash: the in-flight epoch's work is lost,
/// the grant is released, and the job either backs off for a retry
/// (restoring from its last checkpoint when re-granted), misses its
/// deadline, or — with retries exhausted — fails terminally.
fn fail_epoch<A: Arbiter>(
    sys: &mut A,
    lp: &mut Loop<A::Job>,
    ext: &mut A::Ext,
    i: usize,
    now: SimTime,
) {
    let (job, terminals) = (&mut lp.jobs[i], &mut lp.terminals);
    let resource = match sys.release(ext, job) {
        Ok(resource) => resource,
        Err(e) => return fail(sys, terminals, ext, i, job, e, now),
    };
    let deadline = A::deadline_of(job);
    let base = job.base_mut();
    let id = base.core.id;
    base.fault_attempts += 1;
    let (epoch, attempts) = (base.core.epochs_run + 1, base.fault_attempts);
    // The wasted occupancy still shows in the placement timeline.
    lp.metrics.record_span(base.span(resource, now, false));
    base.core.record_lost_epoch(RotaryError::EpochFailed { job: id.0, epoch, attempts });
    let counters = lp.metrics.recovery_of(id);
    counters.crashes += 1;
    counters.epochs_lost += 1;
    // The crash destroyed the in-memory state: the next launch restores
    // from the last checkpoint (checkpoint-based recovery).
    base.in_memory = false;

    if deadline.is_some_and(|deadline| now >= deadline) {
        return finish(sys, terminals, ext, i, job, JobStatus::DeadlineMissed, now);
    }
    match sys.faults().retry().evaluate(id.0, epoch, attempts) {
        // The backoff alone overruns the deadline — the retry could never
        // complete an epoch in time.
        Ok(backoff) if deadline.is_some_and(|deadline| now + backoff >= deadline) => {
            finish(sys, terminals, ext, i, job, JobStatus::DeadlineMissed, now);
        }
        Ok(backoff) => {
            base.core.retries += 1;
            counters.retries += 1;
            base.core.status = JobStatus::Recovering;
            lp.events.schedule(now + backoff, Event::RetryReady(i));
        }
        Err(e) => fail(sys, terminals, ext, i, job, e, now),
    }
}

/// Runs a workload to completion under a policy.
///
/// # Errors
/// The system's bind error; no partial run happens.
pub fn run<A: Arbiter>(
    sys: &mut A,
    specs: &[A::Spec],
    policy: A::Policy,
) -> std::result::Result<A::Outcome, A::BindError> {
    Ok(Run::start(sys, specs, policy)?.finish(sys))
}

/// Runs a workload with durable snapshotting: after every `durable.every`
/// completed epochs the full arbitrator state is committed to the snapshot
/// store (and, when the fault plan says so, damaged on the way to disk).
/// With `halt_after` set the run stops right after committing that
/// generation, simulating a process kill. A completed durable run's trace
/// is byte-identical to the plain [`run`].
///
/// # Errors
/// `InvalidConfig` for a zero interval or an invalid checkpoint model;
/// store and bind errors pass through.
pub fn run_durable<A: Durable>(
    sys: &mut A,
    specs: &[A::Spec],
    policy: A::Policy,
    durable: &DurableConfig,
) -> Result<DurableOutcome<A::Outcome>> {
    let store = open_store(sys, durable)?;
    let run = Run::start(sys, specs, policy).map_err(Into::<RotaryError>::into)?;
    durable_loop(sys, run, durable, &store, 0)
}

/// Resumes a killed [`run_durable`] run from the newest *valid* snapshot
/// in `durable.dir` (corrupt newer generations are skipped) and continues
/// to completion — or to the next `halt_after`. The resumed run's final
/// trace is byte-identical to an uninterrupted run of the same workload.
/// With no usable snapshot the run starts from scratch.
///
/// # Errors
/// As [`run_durable`], plus `InvalidConfig` when the snapshot belongs to a
/// different workload, policy, or system configuration.
pub fn resume_durable<A: Durable>(
    sys: &mut A,
    specs: &[A::Spec],
    policy: A::Policy,
    durable: &DurableConfig,
) -> Result<DurableOutcome<A::Outcome>> {
    let store = open_store(sys, durable)?;
    let (run, generation) = match store.latest_valid()? {
        Some((generation, records)) => {
            (Run::restore(sys, specs.to_vec(), policy, &records)?, generation)
        }
        None => (Run::start(sys, specs, policy).map_err(Into::<RotaryError>::into)?, 0),
    };
    durable_loop(sys, run, durable, &store, generation)
}

fn open_store<A: Durable>(sys: &A, durable: &DurableConfig) -> Result<SnapshotStore> {
    durable.validate()?;
    sys.checkpoint().validate()?;
    SnapshotStore::open(&durable.dir)
}

/// The durable event loop: step until the queue drains, committing a
/// snapshot each time the completed-epoch count crosses the cadence.
fn durable_loop<A: Durable>(
    sys: &mut A,
    mut run: Run<A>,
    durable: &DurableConfig,
    store: &SnapshotStore,
    mut generation: u64,
) -> Result<DurableOutcome<A::Outcome>> {
    loop {
        if !run.step(sys) {
            return Ok(DurableOutcome::Completed(run.into_outcome()));
        }
        if run.lp.epochs_done >= (generation + 1).saturating_mul(durable.every) {
            generation += 1;
            let records = run.snapshot(sys, generation)?;
            let damage = sys.faults().snapshot_fault(generation);
            store.commit(generation, &records, damage.as_ref())?;
            if durable.halt_after == Some(generation) {
                return Ok(DurableOutcome::Halted { generation });
            }
        }
    }
}

fn fingerprint<A: Durable>(sys: &A, specs: &[A::Spec], policy: A::Policy) -> u64 {
    let mut text = A::policy_name(policy);
    sys.fingerprint_text(specs, &mut text);
    fnv1a(text.as_bytes())
}

fn events_json(events: &EventQueue<Event>) -> Json {
    let entry = |(at, seq, event): (SimTime, u64, &Event)| {
        let (kind, job) = match *event {
            Event::Arrival(i) => ("arrival", Some(i)),
            Event::EpochDone(i) => ("epoch-done", Some(i)),
            Event::EpochFailed(i) => ("epoch-failed", Some(i)),
            Event::RetryReady(i) => ("retry-ready", Some(i)),
            Event::DeadlineCheck(i) => ("deadline-check", Some(i)),
            Event::Wake => ("wake", None),
        };
        let mut fields = vec![
            ("at", u64_json(at.as_millis())),
            ("seq", u64_json(seq)),
            ("kind", Json::Str(kind.to_string())),
        ];
        fields.extend(job.map(|i| ("job", u64_json(i as u64))));
        Json::obj(fields)
    };
    Json::obj(vec![
        ("now", u64_json(events.now().as_millis())),
        ("next_seq", u64_json(events.next_seq())),
        ("entries", Json::Arr(events.pending().into_iter().map(entry).collect())),
    ])
}

fn restore_events(doc: &Json, job_count: usize) -> Option<EventQueue<Event>> {
    let now = SimTime::from_millis(doc.get("now")?.as_u64_str()?);
    let next_seq = doc.get("next_seq")?.as_u64_str()?;
    let mut entries = Vec::new();
    for e in doc.get("entries")?.as_arr()? {
        let at = SimTime::from_millis(e.get("at")?.as_u64_str()?);
        let seq = e.get("seq")?.as_u64_str()?;
        let job = match e.get("job") {
            Some(i) => Some(usize::try_from(i.as_u64_str()?).ok().filter(|&i| i < job_count)?),
            None => None,
        };
        let event = match (e.get("kind")?.as_str()?, job) {
            ("arrival", Some(i)) => Event::Arrival(i),
            ("epoch-done", Some(i)) => Event::EpochDone(i),
            ("epoch-failed", Some(i)) => Event::EpochFailed(i),
            ("retry-ready", Some(i)) => Event::RetryReady(i),
            ("deadline-check", Some(i)) => Event::DeadlineCheck(i),
            ("wake", _) => Event::Wake,
            _ => return None,
        };
        entries.push((at, seq, event));
    }
    Some(EventQueue::restore(now, next_seq, entries))
}

/// Snapshot form of a generator position (`Rng::snapshot_state`).
pub fn rng_json(state: [u64; 4], root: u64) -> Json {
    Json::obj(vec![
        ("s0", u64_json(state[0])),
        ("s1", u64_json(state[1])),
        ("s2", u64_json(state[2])),
        ("s3", u64_json(state[3])),
        ("root", u64_json(root)),
    ])
}

/// Inverse of [`rng_json`]; `None` on structural damage.
pub fn rng_from_json(doc: &Json) -> Option<([u64; 4], u64)> {
    let word = |key: &str| doc.get(key)?.as_u64_str();
    Some(([word("s0")?, word("s1")?, word("s2")?, word("s3")?], word("root")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochFault, FaultConfig};
    use rotary_core::criteria::{CompletionCriterion, Deadline};
    use rotary_core::history::JobRecord;
    use rotary_core::job::{JobId, JobKind};
    use std::convert::Infallible;
    use std::fmt::Write as _;

    /// A counting arbiter: a job needs `spec` epochs of 10 ms each on one of
    /// two slots, granted in index order; the fault plan crashes some.
    struct Toy {
        faults: FaultPlan,
        checkpoint: CheckpointModel,
        history: HistoryRepository,
    }

    struct ToyJob {
        base: JobBase,
        need: u64,
    }

    impl Job for ToyJob {
        fn base(&self) -> &JobBase {
            &self.base
        }
        fn base_mut(&mut self) -> &mut JobBase {
            &mut self.base
        }
    }

    impl Arbiter for Toy {
        type Spec = u64;
        type Policy = ();
        type Job = ToyJob;
        /// Free slots.
        type Ext = usize;
        /// Final job states and the metrics trace, both as JSON text.
        type Outcome = (Vec<String>, String);
        type BindError = Infallible;

        fn faults(&self) -> &FaultPlan {
            &self.faults
        }
        fn open(&mut self, _: ()) -> usize {
            2
        }
        fn bind(
            &mut self,
            _: &mut usize,
            i: usize,
            need: &u64,
            _: (),
            now: SimTime,
        ) -> std::result::Result<ToyJob, Infallible> {
            let criterion = CompletionCriterion::Runtime { runtime: Deadline::Epochs(*need) };
            let mut core = JobState::new(JobId(i as u64), JobKind::Dlt, criterion, now);
            core.status = JobStatus::Active;
            Ok(ToyJob { base: JobBase::new(core), need: *need })
        }
        fn begin(&mut self, lp: &mut Loop<ToyJob>, free: &mut usize, _: ()) {
            self.arbitrate(lp, free, (), SimTime::ZERO, None);
        }
        fn admit(&mut self, lp: &mut Loop<ToyJob>, _: &mut usize, _: usize, now: SimTime) {
            lp.events.schedule(now, Event::Wake);
        }
        fn complete_epoch(
            &mut self,
            free: &mut usize,
            job: &mut ToyJob,
            now: SimTime,
        ) -> Result<(String, IntermediateState, Option<JobStatus>)> {
            let resource = self.release(free, job)?;
            let epoch = job.base.core.epochs_run + 1;
            let progress = epoch as f64 / job.need as f64;
            let state = IntermediateState { epoch, at: now, metric_value: progress, progress };
            Ok((resource, state, (epoch == job.need).then_some(JobStatus::Attained)))
        }
        fn arbitrate(
            &mut self,
            lp: &mut Loop<ToyJob>,
            free: &mut usize,
            _: (),
            now: SimTime,
            _: Option<usize>,
        ) {
            lp.marks.dirty.clear();
            for (i, job) in lp.jobs.iter_mut().enumerate() {
                let base = &mut job.base;
                if *free == 0 || !base.core.status.is_arbitrable() {
                    continue;
                }
                *free -= 1;
                base.core.status = JobStatus::Running;
                base.epoch_start = now;
                let epoch = base.core.epochs_run + 1;
                let event = match self.faults.epoch_fault(i as u64, epoch, base.fault_attempts) {
                    EpochFault::Crash { .. } => Event::EpochFailed(i),
                    _ => Event::EpochDone(i),
                };
                lp.events.schedule(now + SimTime::from_millis(10), event);
            }
        }
        fn progress_of(job: &ToyJob) -> f64 {
            job.base.core.progress()
        }
        fn deadline_of(_: &ToyJob) -> Option<SimTime> {
            None
        }
        fn release(&mut self, free: &mut usize, job: &mut ToyJob) -> Result<String> {
            if job.base.core.status != JobStatus::Running {
                return Err(RotaryError::InvalidConfig("job holds no slot".into()));
            }
            *free += 1;
            Ok("slot".into())
        }
        fn retire(&mut self, _: &mut usize, _: &mut ToyJob) {}
        fn outcome(
            _: (),
            jobs: Vec<(u64, JobState)>,
            _: WorkloadSummary,
            metrics: WorkloadMetrics,
            _: SimTime,
            _: usize,
        ) -> (Vec<String>, String) {
            let states = jobs.iter().map(|(_, state)| state.to_json().to_pretty()).collect();
            (states, metrics.to_json().expect("metrics json"))
        }
    }

    impl Durable for Toy {
        const FORMAT: &'static str = "toy-run/v1";

        fn checkpoint(&self) -> &CheckpointModel {
            &self.checkpoint
        }
        fn history(&self) -> &HistoryRepository {
            &self.history
        }
        fn set_history(&mut self, history: HistoryRepository) {
            self.history = history;
        }
        fn policy_name(_: ()) -> String {
            "toy".into()
        }
        fn fingerprint_text(&self, specs: &[u64], text: &mut String) {
            let _ = write!(text, "|{specs:?}");
        }
        fn save_job(job: &ToyJob) -> Vec<(&'static str, Json)> {
            vec![("need", u64_json(job.need))]
        }
        fn load_job(job: &mut ToyJob, entry: &Json) -> Option<()> {
            job.need = entry.get("need")?.as_u64_str()?;
            Some(())
        }
        fn save(&self, free: &usize) -> Vec<(&'static str, Json)> {
            vec![("free", u64_json(*free as u64))]
        }
        fn load(&self, free: &mut usize, records: &[(String, Vec<u8>)]) -> Result<()> {
            let stored = record_json(records, "free")?.as_u64_str();
            *free = stored.ok_or_else(|| corrupt::<Self>("malformed free record"))? as usize;
            Ok(())
        }
    }

    fn toy() -> Toy {
        let faults =
            FaultPlan::new(FaultConfig { seed: 3, crash_prob: 0.3, ..FaultConfig::none() });
        Toy { faults, checkpoint: CheckpointModel::ssd(), history: HistoryRepository::new() }
    }

    const SPECS: [u64; 6] = [3, 1, 4, 1, 5, 2];

    fn ok<T>(result: std::result::Result<T, Infallible>) -> T {
        match result {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rotary-arb-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn the_plan_crashes_some_epochs_and_every_job_still_ends() {
        let (states, _) = ok(run(&mut toy(), &SPECS, ()));
        assert!(states.iter().any(|s| s.contains("\"retries\": \"0\"")));
        assert!(states.iter().any(|s| !s.contains("\"retries\": \"0\"")), "no crash injected");
        assert!(states.iter().all(|s| s.contains("\"attained\"") || s.contains("\"failed\"")));
    }

    #[test]
    fn a_crash_event_for_a_job_holding_nothing_fails_that_job_without_panicking() {
        // Reachable from a damaged-but-well-formed snapshot: the events
        // record names a job the pool record does not.
        let mut sys = toy();
        let mut live = ok(Run::start(&mut sys, &SPECS, ()));
        live.lp.events.schedule(SimTime::from_millis(1), Event::EpochFailed(5));
        let (states, _) = live.finish(&mut sys);
        assert!(states[5].contains("\"failed\"") && states[5].contains("job holds no slot"));
        assert!(states[..5].iter().all(|s| s.contains("\"attained\"") || s.contains("\"failed\"")));
    }

    #[test]
    fn an_epoch_completion_for_a_job_holding_nothing_fails_that_job_once() {
        // The same damaged snapshot, naming a completion instead: job 5 is
        // queued behind the two slots when its forged epoch ends.
        let mut sys = toy();
        let mut live = ok(Run::start(&mut sys, &SPECS, ()));
        live.lp.events.schedule(SimTime::from_millis(1), Event::EpochDone(5));
        let mut reported = live.drain_finished();
        while live.step(&mut sys) {
            reported.extend(live.drain_finished());
        }
        let forged: Vec<_> = reported.iter().filter(|&&(i, _, _)| i == 5).collect();
        assert_eq!(forged, [&(5, JobStatus::Failed, SimTime::from_millis(1))]);
        let failure = &live.lp.jobs[5].base.core.failure;
        assert!(matches!(failure, Some(RotaryError::InvalidConfig(m)) if m == "job holds no slot"));
        assert_eq!(reported.len(), SPECS.len(), "a job never ended");
    }

    #[test]
    fn batch_run_is_admit_all_then_step() {
        let (batch, _) = ok(run(&mut toy(), &SPECS, ()));
        let mut sys = toy();
        let mut stream = ok(Run::start(&mut sys, &[], ()));
        for (i, need) in SPECS.iter().enumerate() {
            assert_eq!(ok(stream.admit(&mut sys, *need, SimTime::ZERO)), i);
        }
        // The admissions add Wake rows to the trace; the jobs' own
        // histories must not notice.
        let (streamed, _) = stream.finish(&mut sys);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn snapshot_after_every_event_restores_to_the_uninterrupted_run() {
        let expected = ok(run(&mut toy(), &SPECS, ()));
        let mut sys = toy();
        let mut live = ok(Run::start(&mut sys, &SPECS, ()));
        let mut events = 0;
        loop {
            let records = live.snapshot(&sys, events).expect("snapshot");
            sys = toy();
            live = Run::restore(&mut sys, SPECS.to_vec(), (), &records).expect("restore");
            if !live.step(&mut sys) {
                break;
            }
            events += 1;
        }
        assert!(events > SPECS.len() as u64);
        assert_eq!(live.into_outcome(), expected);
    }

    #[test]
    fn the_snapshot_memo_is_transparent_at_every_event() {
        let mut sys = toy();
        let mut live = ok(Run::start(&mut sys, &SPECS, ()));
        let mut events = 0;
        loop {
            let warm = live.snapshot(&sys, events).expect("snapshot");
            let again = live.snapshot(&sys, events).expect("snapshot");
            assert_eq!(
                again, warm,
                "no event in between, yet event {events} re-encoded differently"
            );

            // The same snapshot from cold memos — a clone of the metrics or
            // the history starts without one — then the warm ones go back.
            let (metrics, history) = (live.lp.metrics.clone(), sys.history.clone());
            let frozen = live.frozen.take();
            let metrics = std::mem::replace(&mut live.lp.metrics, metrics);
            let history = std::mem::replace(&mut sys.history, history);
            let cold = live.snapshot(&sys, events).expect("snapshot");
            assert_eq!(cold, warm, "the memo changed a byte after event {events}");
            (*live.frozen.get_mut(), live.lp.metrics, sys.history) = (frozen, metrics, history);

            if !live.step(&mut sys) {
                break;
            }
            events += 1;
            if events % 3 == 0 {
                sys.history.insert(JobRecord {
                    kind: JobKind::Dlt,
                    label: format!("toy-{events}"),
                    tags: vec!["slot".into()],
                    numeric_features: [("need".to_string(), events as f64)].into(),
                    curve: vec![(1.0, 0.5), (2.0, 1.0 / events as f64)],
                    final_metric: 1.0,
                    epochs: 2,
                });
            }
        }
        // Every job ended, and its entry was served from the memo since.
        assert!(live.frozen.borrow().iter().all(Option::is_some));
        assert!(events > SPECS.len() as u64);
    }

    #[test]
    fn restore_rejects_a_different_workload_and_damaged_records() {
        let mut sys = toy();
        let live = ok(Run::start(&mut sys, &SPECS, ()));
        let mut records = live.snapshot(&sys, 1).expect("snapshot");
        let other = Run::restore(&mut toy(), vec![9, 9], (), &records);
        assert!(matches!(other, Err(RotaryError::InvalidConfig(_))));
        records.retain(|(name, _)| name != "free");
        let torn = Run::restore(&mut toy(), SPECS.to_vec(), (), &records);
        assert!(matches!(torn, Err(RotaryError::SnapshotCorrupt { .. })));
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_the_previous_one() {
        let expected = ok(run(&mut toy(), &SPECS, ()));
        let dir = temp_store("fallback");
        let mut cfg = DurableConfig::new(&dir, 2);
        cfg.halt_after = Some(3);
        let halted = run_durable(&mut toy(), &SPECS, (), &cfg).expect("durable run");
        assert!(matches!(halted, DurableOutcome::Halted { generation: 3 }));

        let newest = dir.join("snap-3.rsnp");
        let mut bytes = std::fs::read(&newest).expect("generation 3 on disk");
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x10;
        std::fs::write(&newest, bytes).expect("damage generation 3");
        let store = SnapshotStore::open(&dir).expect("store");
        assert_eq!(store.latest_valid().expect("scan").map(|(generation, _)| generation), Some(2));

        cfg.halt_after = None;
        let resumed = resume_durable(&mut toy(), &SPECS, (), &cfg).expect("resume");
        assert_eq!(resumed.completed(), Some(expected));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_reports_each_terminal_exactly_once_across_a_restore() {
        let mut sys = toy();
        let mut live = ok(Run::start(&mut sys, &SPECS, ()));
        let mut reported = Vec::new();
        for _ in 0..8 {
            assert!(live.step(&mut sys), "run ended before the snapshot point");
            reported.extend(live.drain_finished());
        }
        assert!(!reported.is_empty() && reported.len() < SPECS.len());
        let records = live.snapshot(&sys, 1).expect("snapshot");

        let mut sys = toy();
        let mut resumed = Run::restore(&mut sys, SPECS.to_vec(), (), &records).expect("restore");
        // Terminals reported before the snapshot stay reported.
        assert_eq!(resumed.inflight(), SPECS.len() - reported.len());
        assert!(resumed.drain_finished().is_empty());
        while resumed.step(&mut sys) {
            reported.extend(resumed.drain_finished());
        }
        assert!(resumed.drain_finished().is_empty());
        assert_eq!(resumed.inflight(), 0);
        let mut jobs: Vec<usize> = reported.iter().map(|&(i, _, _)| i).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, (0..SPECS.len()).collect::<Vec<_>>());
        assert!(reported.iter().all(|(_, status, _)| status.is_terminal()));
    }
}
