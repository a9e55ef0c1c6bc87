//! The four workloads: what each generates from the seed, how one trial
//! runs it, and what its oracle says the outcome ledger must be.
//!
//! The seed reaches only the generators here; the program under test sees
//! nothing but the generated submissions (and, for AQP, the generated
//! TPC-H tables and the system's own seed).

use crate::drive::{
    durable_trial, inproc_trial, socket_setup, socket_trial, DurablePlan, Schedule, Trial,
    LEDGER_SEPARATOR,
};
use crate::err;
use crate::metrics::Values;
use crate::probes;
use crate::span::{TracedBackend, Tracer};
use rotary::aqp::workload::{deadline_space, ACCURACY_SPACE};
use rotary::aqp::{AqpJobSpec, AqpPolicy, AqpSystem, AqpSystemConfig};
use rotary::core::json::Json;
use rotary::core::{Objective, SimTime};
use rotary::dlt::{DltPolicy, DltSystem, DltSystemConfig, DltWorkloadBuilder};
use rotary::engine::{QueryClass, QueryId};
use rotary::faults::{FaultPlan, RetryPolicy, SubmissionFault};
use rotary::serve::{
    aqp_payload, decode_frame, dlt_payload, encode_frame, open_schedule, run_schedule,
    AqpServeBackend, Backend, DltServeBackend, Frame, LoadGenConfig, LoadMode, ServeConfig,
    SimBackend, Submission, TokenBucketConfig,
};
use rotary::sim::rng::Rng;
use rotary::sim::{PoissonArrivals, WorkloadMetrics};
use rotary::tpch::{Generator, TpchData};
use std::path::PathBuf;
use std::time::Instant;

/// Data-plane worker threads of every system under test. One, so that a
/// run is one thread end to end and every number is that thread's compute.
pub const THREADS: usize = 1;

/// Tenants the AQP and DLT submissions are spread over.
const TENANTS: u64 = 8;

/// Wall time of the set-up phases a user pays before the first submission.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupFacts {
    /// Everything: generation, history, schedule, bind/listen/connect.
    pub total_s: f64,
    /// TPC-H generation alone.
    pub tpch_gen_s: f64,
    /// Rows of the generated fact table.
    pub lineitem_rows: u64,
    /// Binding the system and populating its history repository.
    pub history_s: f64,
}

/// The layer behind the daemon's backend seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendLayer {
    /// The AQP arbitrator and the engine under it.
    Aqp,
    /// The DLT arbitrator.
    Dlt,
    /// The simulated backend: not a layer of interest, reported nowhere.
    Sim,
}

/// One workload, set up for one seed.
pub trait Workload {
    /// Sizes worth recording next to the numbers (`sf=… jobs=…`).
    fn facts(&self) -> String;

    /// What set-up cost.
    fn setup(&self) -> SetupFacts;

    /// Whether permanent job failures are expected (a fault plan is on).
    fn under_fault_plan(&self) -> bool {
        false
    }

    /// Which layer the spans of the backend seam belong to.
    fn backend_layer(&self) -> BackendLayer;

    /// Runs one trial on a fresh daemon and backend. When `tracer` records,
    /// the backend is wrapped so its calls show up as spans.
    fn trial(&self, tracer: &Tracer) -> Result<Trial, String>;

    /// The outcome ledger the trial must reproduce byte for byte: the same
    /// schedule through `run_schedule`, in-process, uninterrupted.
    fn oracle_trace(&self) -> Result<String, String>;

    /// Layer numbers that spans cannot give — micro-probes of public
    /// functions and replays of the recorded schedule. Traced runs only.
    /// `wall_ns_per_sub` is the untraced trials' median wall time per
    /// submission. Socket workloads return the replayed stage sum of one
    /// submission's trip through `Listener::poll`, in ns.
    fn probe_layers(&self, wall_ns_per_sub: f64, out: &mut Values) -> Result<Option<f64>, String>;
}

/// Sets a workload up by name.
pub fn build(name: &str, seed: u64, scratch: PathBuf) -> Result<Box<dyn Workload>, String> {
    match name {
        "aqp_socket" => Ok(Box::new(AqpSocket::new(seed)?)),
        "door_overload" => Ok(Box::new(DoorOverload::new(seed)?)),
        "dlt_inproc" => Ok(Box::new(DltInproc::new(seed)?)),
        "aqp_durable_chaos" => Ok(Box::new(AqpDurableChaos::new(seed, scratch)?)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// A door wide enough that only the workload's own shape — never an
/// arbitrary cap — decides what is admitted.
fn open_door(max_inflight: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: 4096,
        bucket: TokenBucketConfig::per_second(1 << 20, 1 << 20),
        max_tenants: TENANTS,
        max_payload_bytes: 4096,
        max_inflight,
        admission_timeout: SimTime::from_mins(10),
        retry: RetryPolicy::default(),
        pressure_watermark: 0.5,
        shed_watermark: 0.875,
        resume_watermark: 0.5,
        record_outcomes: true,
        retain_payloads: true,
    }
}

/// Pre-encodes one submit frame per schedule entry and returns the
/// schedule as the server will see it: the decoder stamps `bytes` with the
/// wire payload length, so the oracle must be fed the stamped copy.
fn to_wire(schedule: &Schedule) -> Result<(Vec<Vec<u8>>, Schedule), String> {
    let mut frames = Vec::with_capacity(schedule.len());
    let mut stamped = Vec::with_capacity(schedule.len());
    for (at, sub) in schedule {
        let bytes = encode_frame(&Frame::Submit(sub.clone()));
        match decode_frame(&bytes).map_err(err("own frame does not decode"))? {
            Some((Frame::Submit(seen), used)) if used == bytes.len() => stamped.push((*at, seen)),
            _ => return Err("own submit frame did not round-trip".into()),
        }
        frames.push(bytes);
    }
    Ok((frames, stamped))
}

/// The oracle: the schedule through `run_schedule`, rendered.
fn oracle<B: Backend>(
    config: ServeConfig,
    backend: B,
    schedule: &Schedule,
) -> Result<String, String> {
    run_schedule(config, backend, schedule).map(|report| report.trace).map_err(err("oracle run"))
}

// ---------------------------------------------------------------------------
// AQP pieces shared by aqp_socket and aqp_durable_chaos
// ---------------------------------------------------------------------------

/// Binds an AQP system over `data` with a populated history repository,
/// the way a starting (or restarting) service would.
fn aqp_backend<'a>(
    data: &'a TpchData,
    seed: u64,
    faults: FaultPlan,
) -> Result<AqpServeBackend<'a>, String> {
    let config = AqpSystemConfig { seed, threads: THREADS, faults, ..Default::default() };
    let mut sys = AqpSystem::new(data, config);
    sys.prepopulate_history(seed).map_err(err("prepopulate history"))?;
    AqpServeBackend::new(sys, AqpPolicy::Rotary).map_err(err("open AQP serve run"))
}

/// A Table I workload with the table's marginals held exactly: 40/30/30
/// light/medium/heavy, and within each class the queries, accuracy
/// thresholds and deadlines each cycled evenly. The seed decides only how
/// they pair up, the order of the jobs and the Poisson arrival times.
///
/// `WorkloadBuilder::paper()` draws every field independently instead, so
/// the cost of a workload swings with the luck of its class mix; runs are
/// compared across seeds, and that swing (±10 % of a trial's wall time at
/// 600 jobs) would hide in the spread what a change did to the code.
pub fn aqp_specs(seed: u64, jobs: usize) -> Vec<AqpJobSpec> {
    let root = Rng::seed_from_u64(seed);
    let mut rng = root.fork("e2e-aqp-jobs");
    let light = jobs * 4 / 10;
    let medium = jobs * 3 / 10;
    let mut drawn = Vec::with_capacity(jobs);
    for (class, count) in [
        (QueryClass::Light, light),
        (QueryClass::Medium, medium),
        (QueryClass::Heavy, jobs - light - medium),
    ] {
        let ids = QueryId::of_class(class);
        let space = deadline_space(class);
        let mut queries: Vec<QueryId> = (0..count).map(|k| ids[k % ids.len()]).collect();
        let mut thresholds: Vec<f64> =
            (0..count).map(|k| ACCURACY_SPACE[k % ACCURACY_SPACE.len()]).collect();
        let mut deadlines: Vec<u64> = (0..count).map(|k| space[k % space.len()]).collect();
        rng.shuffle(&mut queries);
        rng.shuffle(&mut thresholds);
        rng.shuffle(&mut deadlines);
        drawn.extend(queries.into_iter().zip(thresholds).zip(deadlines));
    }
    rng.shuffle(&mut drawn);
    let arrivals = PoissonArrivals::with_rng(root.fork("arrivals"), 160.0).take(jobs);
    drawn
        .into_iter()
        .zip(arrivals)
        .map(|(((query, threshold), deadline), arrival)| {
            AqpJobSpec::new(query, threshold, SimTime::from_secs(deadline), arrival)
        })
        .collect()
}

fn aqp_submission(i: u64, seq: u64, spec: &AqpJobSpec) -> Submission {
    let payload = aqp_payload(spec);
    Submission {
        tenant: i % TENANTS,
        seq,
        attempt: 0,
        deadline: spec.deadline,
        cost_milli: 1000,
        bytes: payload.to_pretty().len() as u64,
        payload,
    }
}

/// Generates the TPC-H tables and times it.
fn generate(seed: u64, sf: f64, facts: &mut SetupFacts) -> TpchData {
    let t0 = Instant::now();
    let data = Generator::new(seed, sf).generate();
    facts.tpch_gen_s = t0.elapsed().as_secs_f64();
    facts.lineitem_rows = data.lineitem.rows() as u64;
    data
}

/// Adds the recovery counters of a finished AQP backend, read through its
/// public snapshot seam, to `out`.
fn recovery_counters(backend: &impl Backend, out: &mut Values) -> Result<(), String> {
    let records = backend.snapshot().map_err(err("final snapshot"))?;
    let Some((_, bytes)) = records.iter().find(|(name, _)| name == "metrics") else {
        return Err("backend snapshot has no metrics record".into());
    };
    let text = std::str::from_utf8(bytes).map_err(err("metrics record"))?;
    let metrics = WorkloadMetrics::from_json(text).map_err(err("metrics record"))?;
    let sum = |f: fn(&rotary::sim::metrics::RecoveryCounters) -> u64| -> f64 {
        metrics.recovery().values().map(f).sum::<u64>() as f64
    };
    *out.entry("faults.crashes").or_default() += sum(|c| c.crashes);
    *out.entry("faults.retries").or_default() += sum(|c| c.retries);
    *out.entry("faults.epochs_lost").or_default() += sum(|c| c.epochs_lost);
    Ok(())
}

// ---------------------------------------------------------------------------
// aqp_socket
// ---------------------------------------------------------------------------

/// Table I mix over loopback into the real arbitrator and engine.
///
/// Sized for steadiness across seeds: at SF 0.02 a trial of 600 jobs costs
/// about what 120 jobs cost at SF 0.1, and five times the jobs make every
/// proportion of the outcome (attained, shed, served) that much less
/// dependent on the seed.
pub struct AqpSocket {
    seed: u64,
    data: TpchData,
    schedule: Schedule,
    frames: Vec<Vec<u8>>,
    setup: SetupFacts,
}

const AQP_SOCKET_SF: f64 = 0.02;
const AQP_SOCKET_JOBS: usize = 600;
/// The paper's pool holds 20 threads; a cap of 16 admitted jobs keeps the
/// arbitrator contended while bursts still queue at the door.
const AQP_INFLIGHT: usize = 16;

fn aqp_socket_schedule(seed: u64) -> Schedule {
    aqp_specs(seed, AQP_SOCKET_JOBS)
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let i = i as u64;
            (spec.arrival, aqp_submission(i, i / TENANTS + 1, spec))
        })
        .collect()
}

impl AqpSocket {
    fn new(seed: u64) -> Result<AqpSocket, String> {
        let t0 = Instant::now();
        let mut setup = SetupFacts::default();
        let data = generate(seed, AQP_SOCKET_SF, &mut setup);
        let (frames, schedule) = to_wire(&aqp_socket_schedule(seed))?;
        let th = Instant::now();
        let backend = aqp_backend(&data, seed, FaultPlan::none())?;
        setup.history_s = th.elapsed().as_secs_f64();
        socket_setup(open_door(AQP_INFLIGHT), backend)?;
        setup.total_s = t0.elapsed().as_secs_f64();
        Ok(AqpSocket { seed, data, schedule, frames, setup })
    }
}

impl Workload for AqpSocket {
    fn facts(&self) -> String {
        format!(
            "sf={AQP_SOCKET_SF} jobs={AQP_SOCKET_JOBS} lineitem_rows={} max_inflight={AQP_INFLIGHT} \
             arrivals=poisson(160s virtual) conns={}",
            self.setup.lineitem_rows,
            crate::drive::CONNS
        )
    }

    fn setup(&self) -> SetupFacts {
        self.setup
    }

    fn backend_layer(&self) -> BackendLayer {
        BackendLayer::Aqp
    }

    fn trial(&self, tracer: &Tracer) -> Result<Trial, String> {
        let backend = aqp_backend(&self.data, self.seed, FaultPlan::none())?;
        let config = open_door(AQP_INFLIGHT);
        if tracer.enabled() {
            let backend = TracedBackend::new(backend, tracer.clone());
            socket_trial(config, backend, &self.schedule, &self.frames, tracer)
        } else {
            socket_trial(config, backend, &self.schedule, &self.frames, tracer)
        }
    }

    fn oracle_trace(&self) -> Result<String, String> {
        let backend = aqp_backend(&self.data, self.seed, FaultPlan::none())?;
        oracle(open_door(AQP_INFLIGHT), backend, &self.schedule)
    }

    fn probe_layers(&self, wall_ns_per_sub: f64, out: &mut Values) -> Result<Option<f64>, String> {
        probes::engine(&self.data, self.seed, out)?;
        probes::aqp_control_plane(self.seed, AQP_SOCKET_JOBS, out)?;
        let config = open_door(AQP_INFLIGHT);
        let backend = |tracer: &Tracer| {
            aqp_backend(&self.data, self.seed, FaultPlan::none())
                .map(|b| TracedBackend::new(b, tracer.clone()))
        };
        probes::door_stages(&config, backend, &self.schedule, &self.frames, wall_ns_per_sub, out)
            .map(Some)
    }
}

// ---------------------------------------------------------------------------
// door_overload
// ---------------------------------------------------------------------------

/// One-shot submissions arriving 1.4× faster than the simulated backend
/// can serve: the `bench_serve --socket` shape over two connections.
pub struct DoorOverload {
    schedule: Schedule,
    frames: Vec<Vec<u8>>,
    setup: SetupFacts,
}

/// As many as `bench_serve --socket` sends: 6 s of virtual time, the
/// queue at its shed watermark from the first second on.
const DOOR_SUBMISSIONS: u64 = 100_000;

fn door_config() -> ServeConfig {
    ServeConfig {
        max_tenants: DOOR_SUBMISSIONS,
        admission_timeout: SimTime::from_secs(30),
        retain_payloads: false,
        ..open_door(64)
    }
}

fn door_schedule(seed: u64) -> Result<Schedule, String> {
    let load = LoadGenConfig {
        seed,
        users: DOOR_SUBMISSIONS,
        submissions_per_user: 1,
        // ~16k arrivals/s against ~11.6k/s of backend capacity
        // (64 slots, mean service 5.5 ms).
        mode: LoadMode::Open { arrivals_per_sec: 16_000.0 },
        service_ms: (1, 10),
        deadline_slack: (2.0, 30.0),
        cost_milli: 10,
        bytes: 64,
        oversize_bytes: 1 << 20,
        window: SimTime::from_secs(10),
        max_resubmits: 1,
        faults: FaultPlan::none(),
    };
    open_schedule(&load).map_err(err("load config"))
}

impl DoorOverload {
    fn new(seed: u64) -> Result<DoorOverload, String> {
        let t0 = Instant::now();
        let (frames, schedule) = to_wire(&door_schedule(seed)?)?;
        socket_setup(door_config(), SimBackend::new())?;
        let setup = SetupFacts { total_s: t0.elapsed().as_secs_f64(), ..Default::default() };
        Ok(DoorOverload { schedule, frames, setup })
    }
}

impl Workload for DoorOverload {
    fn facts(&self) -> String {
        format!(
            "submissions={DOOR_SUBMISSIONS} arrivals=16000/s virtual capacity~11600/s conns={}",
            crate::drive::CONNS
        )
    }

    fn setup(&self) -> SetupFacts {
        self.setup
    }

    fn backend_layer(&self) -> BackendLayer {
        BackendLayer::Sim
    }

    fn trial(&self, tracer: &Tracer) -> Result<Trial, String> {
        if tracer.enabled() {
            let backend = TracedBackend::new(SimBackend::new(), tracer.clone());
            socket_trial(door_config(), backend, &self.schedule, &self.frames, tracer)
        } else {
            socket_trial(door_config(), SimBackend::new(), &self.schedule, &self.frames, tracer)
        }
    }

    fn oracle_trace(&self) -> Result<String, String> {
        oracle(door_config(), SimBackend::new(), &self.schedule)
    }

    fn probe_layers(&self, wall_ns_per_sub: f64, out: &mut Values) -> Result<Option<f64>, String> {
        let backend = |tracer: &Tracer| Ok(TracedBackend::new(SimBackend::new(), tracer.clone()));
        let config = door_config();
        probes::door_stages(&config, backend, &self.schedule, &self.frames, wall_ns_per_sub, out)
            .map(Some)
    }
}

// ---------------------------------------------------------------------------
// dlt_inproc
// ---------------------------------------------------------------------------

/// The paper's DLT criteria mix, all submitted at time zero (the paper's
/// DLT evaluation has no arrival process), in-process.
pub struct DltInproc {
    seed: u64,
    specs: Vec<rotary::dlt::DltJobSpec>,
    schedule: Schedule,
    setup: SetupFacts,
}

/// A trial's cost grows ~4× per doubling of jobs; 2000 keeps one at
/// about 1.5 s. The traced run also runs half of them, to fit the exponent.
const DLT_JOBS: usize = 2000;

fn dlt_backend(specs: &[rotary::dlt::DltJobSpec], seed: u64) -> DltServeBackend {
    let config =
        DltSystemConfig { seed, threads: THREADS, faults: FaultPlan::none(), ..Default::default() };
    let mut sys = DltSystem::new(config);
    sys.prepopulate_history(specs, seed);
    DltServeBackend::new(sys, DltPolicy::Rotary(Objective::Efficiency))
}

fn dlt_schedule(specs: &[rotary::dlt::DltJobSpec]) -> Schedule {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let i = i as u64;
            let payload = dlt_payload(spec);
            let sub = Submission {
                tenant: i % TENANTS,
                seq: i / TENANTS + 1,
                attempt: 0,
                // The criterion carries the job's own epoch budget; the
                // door's deadline only has to stay out of its way.
                deadline: SimTime::from_hours(24 * 365),
                cost_milli: 1000,
                bytes: payload.to_pretty().len() as u64,
                payload,
            };
            (SimTime::ZERO, sub)
        })
        .collect()
}

impl DltInproc {
    fn new(seed: u64) -> Result<DltInproc, String> {
        let t0 = Instant::now();
        let specs = DltWorkloadBuilder::paper().jobs(DLT_JOBS).seed(seed).build();
        let schedule = dlt_schedule(&specs);
        let th = Instant::now();
        drop(dlt_backend(&specs, seed));
        let history_s = th.elapsed().as_secs_f64();
        let setup =
            SetupFacts { total_s: t0.elapsed().as_secs_f64(), history_s, ..Default::default() };
        Ok(DltInproc { seed, specs, schedule, setup })
    }
}

impl Workload for DltInproc {
    fn facts(&self) -> String {
        format!("jobs={DLT_JOBS} arrivals=all at t=0 policy=rotary(efficiency)")
    }

    fn setup(&self) -> SetupFacts {
        self.setup
    }

    fn backend_layer(&self) -> BackendLayer {
        BackendLayer::Dlt
    }

    fn trial(&self, tracer: &Tracer) -> Result<Trial, String> {
        let backend = dlt_backend(&self.specs, self.seed);
        let config = open_door(DLT_JOBS);
        if tracer.enabled() {
            let backend = TracedBackend::new(backend, tracer.clone());
            inproc_trial(config, backend, &self.schedule, tracer)
        } else {
            inproc_trial(config, backend, &self.schedule, tracer)
        }
    }

    fn oracle_trace(&self) -> Result<String, String> {
        oracle(open_door(DLT_JOBS), dlt_backend(&self.specs, self.seed), &self.schedule)
    }

    fn probe_layers(&self, wall_ns_per_sub: f64, out: &mut Values) -> Result<Option<f64>, String> {
        // Fit wall ∝ jobs^k from the untraced trials of the full schedule
        // and one run of its first half.
        let specs = &self.specs[..DLT_JOBS / 2];
        let backend = dlt_backend(specs, self.seed);
        let half =
            inproc_trial(open_door(DLT_JOBS), backend, &dlt_schedule(specs), &Tracer::off())?
                .wall_s;
        let full = wall_ns_per_sub * DLT_JOBS as f64 / 1e9;
        if half > 0.0 && full > 0.0 {
            out.insert("dlt.scaling_exp", (full / half).log2());
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// aqp_durable_chaos
// ---------------------------------------------------------------------------

/// Table I jobs in-process under the chaos fault plan — epoch crashes,
/// stragglers, checkpoint failures, malformed/duplicate/oversized
/// submissions, damaged snapshots — with the durable loop driven from
/// here: snapshot every few terminals, then kill and restore.
///
/// A trial is several independent *lives* run back to back, each with its
/// own jobs, arrivals, system seed and fault plan derived from the run's
/// seed. One life is small by necessity — a restore costs seconds once
/// ~30 jobs are in the snapshot, and its cost differs 2× from seed to seed
/// — so the trial sums over lives what a single life cannot average out.
pub struct AqpDurableChaos {
    data: TpchData,
    lives: Vec<Life>,
    dir: PathBuf,
    setup: SetupFacts,
}

/// One daemon lifetime of the chaos workload.
struct Life {
    seed: u64,
    schedule: Schedule,
    faults: FaultPlan,
}

const CHAOS_SF: f64 = 0.02;
const CHAOS_LIVES: usize = 4;
const CHAOS_JOBS: usize = 60;
/// One kill per life, after the fifth snapshot (20 terminals in): late
/// enough that the restore has real state to replay, early enough that
/// four lives fit a trial of a few seconds.
const CHAOS_PLAN: DurablePlan = DurablePlan { every_terminals: 4, kill_after: 5 };
const OVERSIZE_BYTES: u64 = 1 << 20;

/// The chaos workload's submissions, with submission faults shaped the way
/// `open_schedule` shapes them: a duplicate resends the tenant's previous
/// accepted submission, garbage and oversize do not consume a sequence
/// number.
fn chaos_schedule(seed: u64, faults: &FaultPlan) -> Schedule {
    let mut schedule = Schedule::new();
    let mut last_seq = [0u64; TENANTS as usize];
    let mut ordinal = [0u64; TENANTS as usize];
    let mut previous: Vec<Option<Submission>> = vec![None; TENANTS as usize];
    for (i, spec) in aqp_specs(seed, CHAOS_JOBS).iter().enumerate() {
        let i = i as u64;
        let u = (i % TENANTS) as usize;
        let fault = faults.submission_fault(i % TENANTS, ordinal[u]);
        ordinal[u] += 1;
        let fresh = aqp_submission(i, last_seq[u] + 1, spec);
        let sub = match (fault, &previous[u]) {
            (SubmissionFault::Duplicate, Some(prev)) => prev.clone(),
            (SubmissionFault::Malformed, _) => Submission { payload: Json::Null, ..fresh },
            (SubmissionFault::Oversized, _) => Submission { bytes: OVERSIZE_BYTES, ..fresh },
            _ => {
                last_seq[u] += 1;
                previous[u] = Some(fresh.clone());
                fresh
            }
        };
        schedule.push((spec.arrival, sub));
    }
    schedule
}

impl AqpDurableChaos {
    fn new(seed: u64, scratch: PathBuf) -> Result<AqpDurableChaos, String> {
        let t0 = Instant::now();
        let mut setup = SetupFacts::default();
        let data = generate(seed, CHAOS_SF, &mut setup);
        let root = Rng::seed_from_u64(seed);
        let lives: Vec<Life> = (0..CHAOS_LIVES)
            .map(|k| {
                let seed = root.fork(&format!("e2e-life/{k}")).next_u64();
                let faults = FaultPlan::chaos(seed);
                Life { seed, schedule: chaos_schedule(seed, &faults), faults }
            })
            .collect();
        let th = Instant::now();
        drop(aqp_backend(&data, lives[0].seed, lives[0].faults.clone())?);
        setup.history_s = th.elapsed().as_secs_f64();
        let dir = scratch.join(format!("snapshots-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(err("create snapshot directory"))?;
        setup.total_s = t0.elapsed().as_secs_f64();
        Ok(AqpDurableChaos { data, lives, dir, setup })
    }

    /// Runs `one` on every life and folds the trials into one.
    fn over_lives(&self, one: impl Fn(&Life) -> Result<Trial, String>) -> Result<Trial, String> {
        let mut lives = self.lives.iter();
        let mut whole = one(lives.next().ok_or("the chaos workload has no lives")?)?;
        for life in lives {
            whole.absorb(one(life)?);
        }
        Ok(whole)
    }
}

impl Workload for AqpDurableChaos {
    fn facts(&self) -> String {
        format!(
            "sf={CHAOS_SF} lives={CHAOS_LIVES} jobs_per_life={CHAOS_JOBS} lineitem_rows={} \
             max_inflight={AQP_INFLIGHT} snapshot_every={} terminals kill_after_generation={} \
             faults=chaos(per-life seed)",
            self.setup.lineitem_rows, CHAOS_PLAN.every_terminals, CHAOS_PLAN.kill_after
        )
    }

    fn setup(&self) -> SetupFacts {
        self.setup
    }

    fn under_fault_plan(&self) -> bool {
        true
    }

    fn backend_layer(&self) -> BackendLayer {
        BackendLayer::Aqp
    }

    fn trial(&self, tracer: &Tracer) -> Result<Trial, String> {
        let config = open_door(AQP_INFLIGHT);
        self.over_lives(|life| {
            let plain = || aqp_backend(&self.data, life.seed, life.faults.clone());
            let (sched, faults, dir) = (&life.schedule, &life.faults, self.dir.as_path());
            if tracer.enabled() {
                let traced = || plain().map(|b| TracedBackend::new(b, tracer.clone()));
                durable_trial(&config, traced, sched, CHAOS_PLAN, faults, dir, tracer)
            } else {
                durable_trial(&config, plain, sched, CHAOS_PLAN, faults, dir, tracer)
            }
        })
    }

    fn oracle_trace(&self) -> Result<String, String> {
        let traces = self
            .lives
            .iter()
            .map(|life| {
                let backend = aqp_backend(&self.data, life.seed, life.faults.clone())?;
                oracle(open_door(AQP_INFLIGHT), backend, &life.schedule)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(traces.join(LEDGER_SEPARATOR))
    }

    fn probe_layers(&self, _wall_ns_per_sub: f64, out: &mut Values) -> Result<Option<f64>, String> {
        probes::engine(&self.data, self.lives[0].seed, out)?;
        probes::aqp_control_plane(self.lives[0].seed, CHAOS_JOBS, out)?;
        // Recovery counters live inside the arbitrator; an uninterrupted
        // in-process run ends with them readable through the snapshot seam.
        for life in &self.lives {
            let backend = aqp_backend(&self.data, life.seed, life.faults.clone())?;
            let mut daemon = rotary::serve::Daemon::new(open_door(AQP_INFLIGHT), backend)
                .map_err(err("daemon config"))?;
            for (at, sub) in &life.schedule {
                daemon.submit(*at, sub);
            }
            daemon.finish();
            recovery_counters(daemon.backend(), out)?;
        }
        Ok(None)
    }
}

impl Drop for AqpDurableChaos {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(schedule: &Schedule) -> Vec<Vec<u8>> {
        to_wire(schedule).expect("own frames round-trip").0
    }

    #[test]
    fn same_seed_gives_the_same_bytes() {
        assert_eq!(frames(&aqp_socket_schedule(33)), frames(&aqp_socket_schedule(33)));
        assert_ne!(frames(&aqp_socket_schedule(33)), frames(&aqp_socket_schedule(47)));
        let (a, b) = (door_schedule(33).unwrap(), door_schedule(33).unwrap());
        assert_eq!(frames(&a), frames(&b));
        assert_ne!(frames(&a), frames(&door_schedule(47).unwrap()));
        let chaos = |seed| chaos_schedule(seed, &FaultPlan::chaos(seed));
        assert_eq!(chaos(33), chaos(33));
        assert_ne!(chaos(33), chaos(47));
        let dlt = |seed| dlt_schedule(&DltWorkloadBuilder::paper().jobs(64).seed(seed).build());
        assert_eq!(dlt(33), dlt(33));
        assert_ne!(dlt(33), dlt(47));
    }

    #[test]
    fn wire_schedule_is_stamped_with_the_frame_payload_length() {
        let raw = aqp_socket_schedule(33);
        let (frames, stamped) = to_wire(&raw).unwrap();
        assert_eq!(frames.len(), raw.len());
        for ((frame, (at, seen)), (raw_at, sent)) in frames.iter().zip(&stamped).zip(&raw) {
            assert_eq!(at, raw_at);
            assert_eq!(seen.bytes as usize, frame.len() - 15, "header 11 + trailer 4");
            assert_eq!(Submission { bytes: sent.bytes, ..seen.clone() }, *sent);
        }
    }

    #[test]
    fn aqp_workload_holds_table_one_marginals_exactly() {
        for seed in [1, 33, 47] {
            let specs = aqp_specs(seed, 600);
            let of = |class| specs.iter().filter(|s| s.class() == class).count();
            assert_eq!(
                (of(QueryClass::Light), of(QueryClass::Medium), of(QueryClass::Heavy)),
                (240, 180, 180)
            );
            assert!(specs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
            for threshold in ACCURACY_SPACE {
                let n = specs.iter().filter(|s| s.threshold == threshold).count();
                assert!((66..=68).contains(&n), "threshold {threshold} drawn {n} times");
            }
            for spec in &specs {
                let secs = spec.deadline.as_millis() / 1000;
                assert!(deadline_space(spec.class()).contains(&secs));
            }
        }
    }

    #[test]
    fn chaos_schedule_carries_every_kind_of_garbage_somewhere() {
        // Over a handful of seeds the plan must produce each fault kind, or
        // the workload's reject paths are not being exercised at all.
        let (mut dup, mut bad, mut big) = (0, 0, 0);
        for seed in 1..=10 {
            let schedule = chaos_schedule(seed, &FaultPlan::chaos(seed));
            assert_eq!(schedule.len(), CHAOS_JOBS);
            let mut seen = std::collections::BTreeSet::new();
            for (_, sub) in &schedule {
                bad += usize::from(sub.payload == Json::Null);
                big += usize::from(sub.bytes == OVERSIZE_BYTES);
                let clean = sub.payload != Json::Null && sub.bytes != OVERSIZE_BYTES;
                dup += usize::from(clean && !seen.insert((sub.tenant, sub.seq)));
            }
        }
        assert!(dup > 0 && bad > 0 && big > 0, "dup={dup} malformed={bad} oversized={big}");
    }
}
