//! The three drivers of `rotary::arb` on the two real systems.
//!
//! Each property is one generic body, instantiated for AQP and for DLT:
//! a stream of admissions equals the batch run (the indexed control
//! plane's caches grow in place, and debug builds hold every pass to the
//! dense re-sort); a streaming run snapshotted mid-flight restores to
//! identical outcomes, from compact records and from the same records
//! re-indented; a durable
//! run — uninterrupted, or killed and resumed — reproduces the plain run
//! byte for byte; snapshots reusing earlier snapshots' text equal a cold
//! full encoding; a run restored at every event writes the uninterrupted
//! run's records; and a snapshot refuses to resume a different run. The
//! same drivers on a toy arbiter (every event boundary, corrupt-generation
//! fallback) are unit tests of the arbiter module itself.

use rotary::aqp::{AqpJobSpec, AqpPolicy, AqpRunResult, AqpSystem, AqpSystemConfig};
use rotary::arb::{self, Arbiter, Durable, Run};
use rotary::core::error::RotaryError;
use rotary::core::job::{JobState, JobStatus};
use rotary::core::progress::Objective;
use rotary::core::SimTime;
use rotary::dlt::DltWorkloadBuilder;
use rotary::dlt::{DltJobSpec, DltPolicy, DltRunResult, DltSystem, DltSystemConfig};
use rotary::engine::QueryId;
use rotary::faults::FaultPlan;
use rotary::sim::metrics::WorkloadSummary;
use rotary::store::{DurableConfig, DurableOutcome, SnapshotStore};
use rotary::tpch::{Generator, TpchData};
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Terminal outcomes in job-index order: `(job, status, finish time)`.
type Done = Vec<(usize, JobStatus, SimTime)>;

/// What the properties read off a finished run, whichever system ran it.
trait Trace {
    fn states(&self) -> Vec<&JobState>;
    fn trace(&self) -> (String, SimTime, &WorkloadSummary);
}

impl Trace for AqpRunResult {
    fn states(&self) -> Vec<&JobState> {
        self.jobs.iter().map(|(_, state)| state).collect()
    }
    fn trace(&self) -> (String, SimTime, &WorkloadSummary) {
        (self.metrics.to_json().expect("metrics json"), self.makespan, &self.summary)
    }
}

impl Trace for DltRunResult {
    fn states(&self) -> Vec<&JobState> {
        self.jobs.iter().map(|(_, state)| state).collect()
    }
    fn trace(&self) -> (String, SimTime, &WorkloadSummary) {
        (self.metrics.to_json().expect("metrics json"), self.makespan, &self.summary)
    }
}

fn drain_to_end<A: Arbiter>(sys: &mut A, run: &mut Run<A>, done: &mut Done) {
    while run.step(sys) {
        done.extend(run.drain_finished());
    }
    done.extend(run.drain_finished());
    done.sort_by_key(|&(i, _, _)| i);
}

/// Drives a streaming run: each spec is admitted just before the run's
/// clock reaches its arrival, then the queue drains.
fn stream_run<A: Arbiter>(sys: &mut A, arrivals: &[(SimTime, A::Spec)], policy: A::Policy) -> Done
where
    A::BindError: Debug,
{
    let mut run = Run::start(sys, &[], policy).expect("open an empty run");
    let mut done = Vec::new();
    for (at, spec) in arrivals {
        while run.peek().is_some_and(|t| t < *at) {
            run.step(sys);
            done.extend(run.drain_finished());
        }
        run.admit(sys, spec.clone(), *at).expect("admit");
    }
    drain_to_end(sys, &mut run, &mut done);
    done
}

/// A job admitted mid-run through the streaming seam must be arbitrated
/// from its admission instant on; the indexed control plane's caches grow
/// in place, and every pass is held to the dense re-sort in debug builds.
/// Where a batch run over the same arrivals exists, the job must also bind
/// and complete exactly as the same spec at the same index of that run.
fn check_stream<A: Arbiter>(
    make: &dyn Fn() -> A,
    arrivals: &[(SimTime, A::Spec)],
    policy: A::Policy,
    batch: Option<&[&JobState]>,
) where
    A::BindError: Debug,
{
    let streamed = stream_run(&mut make(), arrivals, policy);
    assert_eq!(streamed.len(), arrivals.len());
    for (i, status, at) in &streamed {
        assert!(status.is_terminal(), "job {i} ended {status:?}");
        assert!(*at >= arrivals[*i].0, "job {i} finished before it arrived");
        if let Some(batch) = batch {
            assert_eq!(*status, batch[*i].status, "job {i}");
            assert_eq!(Some(*at), batch[*i].finished_at, "job {i}");
        }
    }
}

/// A streaming run snapshotted after `steps` events restores — into a
/// fresh system — to a run whose remaining outcomes are identical, with
/// the terminals reported before the snapshot staying reported. Records
/// are written compact and read whitespace-insensitively: the same
/// snapshot with every record re-indented resumes to the same trace.
fn check_stream_snapshot<A: Durable>(
    make: &dyn Fn() -> A,
    arrivals: &[(SimTime, A::Spec)],
    policy: A::Policy,
    steps: usize,
) where
    A::BindError: Debug,
    A::Outcome: Trace,
{
    let mut sys = make();
    let mut run = Run::start(&mut sys, &[], policy).expect("open an empty run");
    for (at, spec) in arrivals {
        run.admit(&mut sys, spec.clone(), *at).expect("admit");
    }
    for _ in 0..steps {
        assert!(run.step(&mut sys), "run ended before the snapshot point");
    }
    let drained_before = run.drain_finished();
    let records = run.snapshot(&sys, 1).expect("snapshot");
    let kept_specs = run.specs().to_vec();
    let mut original_tail = Vec::new();
    drain_to_end(&mut sys, &mut run, &mut original_tail);

    let mut sys2 = make();
    let mut resumed =
        Run::restore(&mut sys2, kept_specs.clone(), policy, &records).expect("restore");
    assert_eq!(resumed.inflight(), arrivals.len() - drained_before.len());
    let mut resumed_tail = Vec::new();
    drain_to_end(&mut sys2, &mut resumed, &mut resumed_tail);
    assert_eq!(original_tail, resumed_tail, "resumed outcomes diverged");
    assert_eq!(original_tail.len() + drained_before.len(), arrivals.len());

    let reindented: Vec<(String, Vec<u8>)> = records
        .iter()
        .map(|(name, bytes)| {
            assert!(!bytes.contains(&b'\n'), "record '{name}' is not compact");
            let doc = rotary::store::record_json(&records, name).expect("record parses");
            (name.clone(), doc.to_pretty().into_bytes())
        })
        .collect();
    assert_ne!(reindented, records);
    let mut sys3 = make();
    let pretty = Run::restore(&mut sys3, kept_specs, policy, &reindented).expect("restore pretty");
    assert_eq!(pretty.finish(&mut sys3).trace(), resumed.finish(&mut sys2).trace());
}

/// The terminal outcomes a full scan of the run's jobs finds, read off a
/// snapshot so the oracle shares nothing with the drain: every job whose
/// recorded status is terminal, in job-index order.
fn terminal_jobs(snapshot: &[(String, Vec<u8>)]) -> Vec<(usize, JobStatus)> {
    let jobs = rotary::store::record_json(snapshot, "jobs").expect("jobs record");
    let status = |entry: &rotary::core::json::Json| {
        JobStatus::from_name(entry.get("core")?.get("status")?.as_str()?)
    };
    let statuses = jobs.as_arr().expect("jobs array").iter().map(|e| status(e).expect("status"));
    statuses.enumerate().filter(|(_, status)| status.is_terminal()).collect()
}

/// Draining after every admit and every step hands out exactly what a full
/// scan finds newly terminal — each job once, in job-index order — and
/// keeps doing so in a run restored from a snapshot taken mid-flight.
fn check_drain_equals_full_scan<A: Durable>(
    make: &dyn Fn() -> A,
    arrivals: &[(SimTime, A::Spec)],
    policy: A::Policy,
    restore_after: usize,
) where
    A::BindError: Debug,
{
    let mut sys = make();
    let mut run = Run::start(&mut sys, &[], policy).expect("open an empty run");
    let mut reported: Vec<usize> = Vec::new();
    let mut check = |sys: &A, run: &mut Run<A>| {
        let records = run.snapshot(sys, 1).expect("snapshot");
        let expected: Vec<(usize, JobStatus)> =
            terminal_jobs(&records).into_iter().filter(|(i, _)| !reported.contains(i)).collect();
        let drained: Vec<(usize, JobStatus)> =
            run.drain_finished().into_iter().map(|(i, status, _)| (i, status)).collect();
        assert_eq!(drained, expected);
        reported.extend(drained.iter().map(|&(i, _)| i));
        assert_eq!(run.inflight(), run.specs().len() - reported.len());
        records
    };

    let mut arrivals = arrivals.iter().peekable();
    let mut events = 0;
    loop {
        // Admit whatever is due before the next event, then take the event.
        while let Some((at, spec)) = arrivals.next_if(|(at, _)| run.peek().is_none_or(|t| *at <= t))
        {
            run.admit(&mut sys, spec.clone(), *at).expect("admit");
            check(&sys, &mut run);
        }
        if !run.step(&mut sys) {
            break;
        }
        events += 1;
        let records = check(&sys, &mut run);
        if events == restore_after {
            sys = make();
            run = Run::restore(&mut sys, run.specs().to_vec(), policy, &records).expect("restore");
            assert!(run.drain_finished().is_empty(), "restored terminals are already reported");
        }
    }
    assert!(events > restore_after, "run ended before the restore point");
    reported.sort_unstable();
    assert_eq!(reported, (0..run.specs().len()).collect::<Vec<_>>());
}

/// The snapshot memo changes no byte. A run snapshotted at every event
/// boundary — so most of each record is text reused from the previous
/// snapshot — writes, at sampled boundaries, exactly the records of a run
/// stepped in lockstep that snapshots there for the first time: its memo
/// is cold, so its records are the full encoding of every tree. A third of
/// the way in, the warm run is restored from its own records and goes on
/// snapshotting; the equality must hold through that too.
fn check_snapshot_memo_is_transparent<A: Durable>(
    make: &dyn Fn() -> A,
    specs: &[A::Spec],
    policy: A::Policy,
) where
    A::BindError: Debug,
{
    let start = |sys: &mut A| Run::start(sys, specs, policy).expect("start");
    let mut sys = make();
    let mut probe = start(&mut sys);
    let mut last = 0;
    while probe.step(&mut sys) {
        last += 1;
    }
    let samples = [1, last / 4, last / 2, 3 * last / 4, last];
    let restore_at = last / 3;
    assert!(restore_at > 1 && restore_at < last / 2, "run too short: {last} events");

    let mut fresh: Vec<(usize, A, Run<A>)> = samples
        .iter()
        .map(|&at| {
            let mut sys = make();
            let run = start(&mut sys);
            (at, sys, run)
        })
        .collect();
    sys = make();
    let mut warm = start(&mut sys);
    let mut events = 0;
    loop {
        let records = warm.snapshot(&sys, 1).expect("snapshot");
        fresh.retain(|(at, cold_sys, cold)| {
            let due = *at == events;
            if due {
                let first = cold.snapshot(cold_sys, 1).expect("snapshot");
                assert!(first == records, "the memo changed a byte at event {events}");
            }
            !due
        });
        if events == restore_at {
            sys = make();
            warm = Run::restore(&mut sys, specs.to_vec(), policy, &records).expect("restore");
        }
        if !warm.step(&mut sys) {
            break;
        }
        for (_, cold_sys, cold) in &mut fresh {
            assert!(cold.step(cold_sys), "lockstep run ended early");
        }
        events += 1;
    }
    assert!(fresh.is_empty() && events == last, "boundaries left unchecked");
}

/// A run restored from its own records at every event boundary writes,
/// at every boundary, exactly the records of the uninterrupted run stepped
/// in lockstep. The `metrics` record holds progress rows as stored, and a
/// restored run's first row re-reads every job where the uninterrupted
/// run reads only what its pass marked, so both rows must store the same
/// delta in the same order.
fn check_restore_at_every_event_writes_the_same_records<A: Durable>(
    make: &dyn Fn() -> A,
    specs: &[A::Spec],
    policy: A::Policy,
) where
    A::BindError: Debug,
{
    let start = |sys: &mut A| Run::start(sys, specs, policy).expect("start");
    let (mut plain_sys, mut sys) = (make(), make());
    let (mut plain, mut restored) = (start(&mut plain_sys), start(&mut sys));
    let mut events = 0;
    loop {
        let records = restored.snapshot(&sys, 1).expect("snapshot");
        let expected = plain.snapshot(&plain_sys, 1).expect("snapshot");
        assert!(records == expected, "a restore changed a byte at event {events}");
        sys = make();
        restored = Run::restore(&mut sys, specs.to_vec(), policy, &records).expect("restore");
        let stepped = restored.step(&mut sys);
        assert_eq!(stepped, plain.step(&mut plain_sys), "event {events}");
        if !stepped {
            break;
        }
        events += 1;
    }
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rotary-drivers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable run that is never halted, and one killed right after
/// generation `halt_after` and resumed in a fresh system, both reproduce
/// the plain run's trace byte for byte.
fn check_durable<A: Durable>(
    make: &dyn Fn() -> A,
    specs: &[A::Spec],
    policy: A::Policy,
    (every, halt_after): (u64, u64),
    tag: &str,
) where
    A::BindError: Debug,
    A::Outcome: Trace,
{
    let baseline = arb::run(&mut make(), specs, policy).expect("plain run");

    let dir = temp_store(&format!("{tag}-plain"));
    let unhalted = arb::run_durable(&mut make(), specs, policy, &DurableConfig::new(&dir, every))
        .expect("durable run")
        .completed()
        .expect("no halt requested");
    assert_eq!(unhalted.trace(), baseline.trace());
    let _ = std::fs::remove_dir_all(&dir);

    let dir = temp_store(&format!("{tag}-halt-resume"));
    let mut cfg = DurableConfig::new(&dir, every);
    cfg.halt_after = Some(halt_after);
    let halted = arb::run_durable(&mut make(), specs, policy, &cfg).expect("durable run");
    assert!(matches!(halted, DurableOutcome::Halted { generation } if generation == halt_after));
    cfg.halt_after = None;
    let resumed = arb::resume_durable(&mut make(), specs, policy, &cfg)
        .expect("resume")
        .completed()
        .expect("resume must run to completion");
    assert_eq!(resumed.trace(), baseline.trace());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot written by one run refuses to resume another (a different
/// workload or a different policy) with `InvalidConfig`.
fn check_resume_rejects<A: Durable>(
    make: &dyn Fn() -> A,
    written: (&[A::Spec], A::Policy),
    resumed: (&[A::Spec], A::Policy),
    tag: &str,
) where
    A::BindError: Debug,
{
    let dir = temp_store(tag);
    let mut cfg = DurableConfig::new(&dir, 1);
    cfg.halt_after = Some(1);
    arb::run_durable(&mut make(), written.0, written.1, &cfg).expect("durable run");
    cfg.halt_after = None;
    let err = arb::resume_durable(&mut make(), resumed.0, resumed.1, &cfg);
    assert!(matches!(err, Err(RotaryError::InvalidConfig(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// AQP
// ---------------------------------------------------------------------------

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| Generator::new(77, 0.002).generate())
}

fn aqp() -> AqpSystem<'static> {
    let config = AqpSystemConfig { seed: 42, ..Default::default() };
    AqpSystem::new(data(), config)
}

fn aqp_arrivals(specs: Vec<AqpJobSpec>) -> Vec<(SimTime, AqpJobSpec)> {
    specs.into_iter().map(|spec| (spec.arrival, spec)).collect()
}

/// Rotary reads the indexed control plane; RoundRobin ranks densely and
/// carries its cursor through every pass and every snapshot.
const AQP_STREAM_POLICIES: [AqpPolicy; 2] = [AqpPolicy::Rotary, AqpPolicy::RoundRobin];

#[test]
fn aqp_streaming_admission_matches_batch_run() {
    let secs = SimTime::from_secs;
    let specs = vec![
        AqpJobSpec::new(QueryId(6), 0.6, secs(900), SimTime::ZERO),
        AqpJobSpec::new(QueryId(1), 0.6, secs(900), secs(30)),
        AqpJobSpec::new(QueryId(14), 0.6, secs(1200), secs(70)),
    ];
    for policy in AQP_STREAM_POLICIES {
        let batch = aqp().run(&specs, policy).unwrap();
        check_stream(&aqp, &aqp_arrivals(specs.clone()), policy, Some(&batch.states()));
    }
}

#[test]
fn aqp_streaming_snapshot_restores_to_identical_outcomes() {
    let specs = vec![
        AqpJobSpec::new(QueryId(6), 0.6, SimTime::from_secs(600), SimTime::ZERO),
        AqpJobSpec::new(QueryId(14), 0.6, SimTime::from_secs(900), SimTime::from_secs(5)),
    ];
    for policy in AQP_STREAM_POLICIES {
        check_stream_snapshot(&aqp, &aqp_arrivals(specs.clone()), policy, 40);
    }
}

#[test]
fn aqp_drain_after_every_event_equals_the_full_scan() {
    let secs = SimTime::from_secs;
    let specs = vec![
        AqpJobSpec::new(QueryId(6), 0.6, secs(600), SimTime::ZERO),
        AqpJobSpec::new(QueryId(1), 0.6, secs(1), secs(2)),
        AqpJobSpec::new(QueryId(14), 0.6, secs(900), secs(5)),
    ];
    check_drain_equals_full_scan(&aqp, &aqp_arrivals(specs), AqpPolicy::Rotary, 20);
}

#[test]
fn aqp_durable_runs_match_the_plain_run() {
    let specs = rotary::aqp::WorkloadBuilder::paper().jobs(4).seed(21).build();
    check_durable(&aqp, &specs, AqpPolicy::Rotary, (2, 3), "aqp");
}

/// Terminal AQP jobs hand their data-plane memory back (`retire` frees
/// their aggregate groups and chunk scratch; a restore positions a terminal
/// job's stream without replaying it). The shared row order is not theirs
/// and stays. Nothing may read what was freed: the trace of a plain run and
/// of a run killed and resumed among terminal jobs equals, byte for byte,
/// the pinned trace (7 attained, 5 deadline misses).
#[test]
fn aqp_release_at_terminal_changes_no_byte() {
    const METRICS_FNV1A: u64 = 0x82cc_a1bb_fece_91ee;
    const MAKESPAN_MS: u64 = 4_034_000;
    let fnv1a = |s: &str| {
        s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let specs = rotary::aqp::WorkloadBuilder::paper().jobs(12).seed(21).build();
    let fingerprint = |result: &AqpRunResult| {
        (fnv1a(&result.metrics.to_json().expect("metrics json")), result.makespan.as_millis())
    };

    let plain = aqp().run(&specs, AqpPolicy::Rotary).unwrap();
    assert_eq!(fingerprint(&plain), (METRICS_FNV1A, MAKESPAN_MS));

    let dir = temp_store("aqp-release");
    let mut cfg = DurableConfig::new(&dir, 2);
    cfg.halt_after = Some(32);
    let halted = aqp().run_durable(&specs, AqpPolicy::Rotary, &cfg).unwrap();
    assert!(matches!(halted, DurableOutcome::Halted { .. }));
    // The kill lands among terminal jobs (3 attained, 1 missed) and live
    // ones, so the resume restores some of each.
    let (_, records) = SnapshotStore::open(&dir).and_then(|s| s.latest_valid()).unwrap().unwrap();
    let jobs = records.iter().find(|(name, _)| name == "jobs").expect("jobs record");
    let jobs = String::from_utf8_lossy(&jobs.1);
    for status in ["attained", "deadline-missed", "running"] {
        assert!(jobs.contains(&format!("\"status\":\"{status}\"")), "no {status} job at the kill");
    }
    cfg.halt_after = None;
    let resumed = aqp()
        .resume_durable(&specs, AqpPolicy::Rotary, &cfg)
        .unwrap()
        .completed()
        .expect("resume must run to completion");
    assert_eq!(fingerprint(&resumed), (METRICS_FNV1A, MAKESPAN_MS));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every run input is a config field: the library reads no environment
/// variable. This binary re-runs the pinned trace above with the chaos
/// seed and thread count a shell might export, and it must still match.
#[test]
fn the_pinned_trace_ignores_the_process_environment() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--exact", "aqp_release_at_terminal_changes_no_byte"])
        .env("ROTARY_FAULT_SEED", "7")
        .env("ROTARY_THREADS", "4")
        .output()
        .expect("re-run this test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success() && stdout.contains(" 1 passed"), "{stdout}");
}

/// Host threads are a start-up resource (DESIGN.md §5). Ten jobs arriving
/// at t = 0 make single arbitration passes launch several epochs — the case
/// the per-pass fan-out served until it was deleted. Launching them one
/// after another must reproduce, byte for byte, the pinned trace at any
/// `threads`, plain and killed/resumed.
#[test]
fn aqp_burst_launches_are_byte_identical_at_any_host_thread_count() {
    const METRICS_FNV1A: u64 = 0x9e4f_98cf_e7af_e0fd;
    const MAKESPAN_MS: u64 = 2_232_708;
    let fingerprint = |result: &AqpRunResult| {
        let json = result.metrics.to_json().expect("metrics json");
        let fnv1a = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (fnv1a, result.makespan.as_millis())
    };
    let specs =
        rotary::aqp::WorkloadBuilder::paper().jobs(10).mean_arrival_gap(0.0).seed(5).build();
    for threads in [1, 4] {
        let make =
            || AqpSystem::new(data(), AqpSystemConfig { seed: 42, threads, ..Default::default() });
        let plain = make().run(&specs, AqpPolicy::Rotary).unwrap();
        let at_zero = plain.metrics.spans().iter().filter(|s| s.start == SimTime::ZERO).count();
        assert!(at_zero >= 2, "the first pass must launch several epochs, launched {at_zero}");
        assert_eq!(fingerprint(&plain), (METRICS_FNV1A, MAKESPAN_MS), "threads={threads}");

        let dir = temp_store(&format!("aqp-burst-{threads}"));
        let mut cfg = DurableConfig::new(&dir, 2);
        cfg.halt_after = Some(3);
        let halted = make().run_durable(&specs, AqpPolicy::Rotary, &cfg).unwrap();
        assert!(matches!(halted, DurableOutcome::Halted { .. }));
        cfg.halt_after = None;
        let resumed = make()
            .resume_durable(&specs, AqpPolicy::Rotary, &cfg)
            .unwrap()
            .completed()
            .expect("resume must run to completion");
        assert_eq!(fingerprint(&resumed), (METRICS_FNV1A, MAKESPAN_MS), "threads={threads}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A burst of arrivals at t = 0 makes passes that move several jobs at
/// once, marked out of job order; the recorder stores them ascending, as
/// a restored run's first row lists them.
#[test]
fn aqp_restore_at_every_event_writes_the_uninterrupted_records() {
    let specs =
        rotary::aqp::WorkloadBuilder::paper().jobs(10).mean_arrival_gap(0.0).seed(5).build();
    check_restore_at_every_event_writes_the_same_records(&aqp, &specs, AqpPolicy::Rotary);
}

#[test]
fn aqp_snapshot_memo_is_transparent_clean_and_under_chaos() {
    let specs = rotary::aqp::WorkloadBuilder::paper().jobs(6).seed(21).build();
    check_snapshot_memo_is_transparent(&aqp, &specs, AqpPolicy::Rotary);
    let chaos = || {
        let config =
            AqpSystemConfig { seed: 42, faults: FaultPlan::chaos(42), ..Default::default() };
        AqpSystem::new(data(), config)
    };
    check_snapshot_memo_is_transparent(&chaos, &specs, AqpPolicy::Rotary);
}

#[test]
fn aqp_resume_rejects_mismatched_workload() {
    let written = rotary::aqp::WorkloadBuilder::paper().jobs(3).seed(9).build();
    let other = rotary::aqp::WorkloadBuilder::paper().jobs(3).seed(10).build();
    let policy = AqpPolicy::Rotary;
    check_resume_rejects(&aqp, (&written, policy), (&other, policy), "aqp-mismatch");
}

// ---------------------------------------------------------------------------
// DLT
// ---------------------------------------------------------------------------

const DLT_POLICY: DltPolicy = DltPolicy::Rotary(Objective::Threshold(0.5));

/// Rotary reads the indexed control plane; SRF ranks densely and carries
/// its round-robin cursor through every pass and every snapshot.
const DLT_STREAM_POLICIES: [DltPolicy; 2] = [DLT_POLICY, DltPolicy::Srf];

fn dlt() -> DltSystem {
    DltSystem::new(DltSystemConfig { seed: 5, ..Default::default() })
}

fn dlt_arrivals(jobs: usize, seed: u64) -> Vec<(SimTime, DltJobSpec)> {
    let specs = DltWorkloadBuilder::paper().jobs(jobs).seed(seed).build();
    specs.into_iter().map(|spec| (SimTime::ZERO, spec)).collect()
}

#[test]
fn dlt_streaming_admission_at_zero_matches_batch_run() {
    // Admitting the whole workload at t = 0 through the streaming seam
    // must reproduce the batch run exactly: same statuses, same finish
    // times (the Wake events it adds are no-ops).
    // Not for SRF: its round-robin cursor turns on every pass, the Wakes
    // included, so its stream is not the batch run; the mid-run test below
    // streams it.
    let arrivals = dlt_arrivals(6, 3);
    let specs: Vec<DltJobSpec> = arrivals.iter().map(|(_, spec)| spec.clone()).collect();
    let batch = dlt().run(&specs, DLT_POLICY);
    check_stream(&dlt, &arrivals, DLT_POLICY, Some(&batch.states()));
}

#[test]
fn dlt_mid_run_admission_grows_indexed_caches_consistently() {
    let mut arrivals = dlt_arrivals(5, 7);
    arrivals[3].0 = SimTime::from_secs(120);
    arrivals[4].0 = SimTime::from_secs(600);
    for policy in DLT_STREAM_POLICIES {
        check_stream(&dlt, &arrivals, policy, None);
    }
}

#[test]
fn dlt_streaming_snapshot_restores_to_identical_outcomes() {
    for policy in DLT_STREAM_POLICIES {
        check_stream_snapshot(&dlt, &dlt_arrivals(4, 13), policy, 30);
    }
}

#[test]
fn dlt_drain_after_every_event_equals_the_full_scan() {
    let mut arrivals = dlt_arrivals(7, 13);
    arrivals[5].0 = SimTime::from_secs(300);
    // A model no device can host ends at admission, before any event.
    let mut unplaceable = arrivals[0].1.clone();
    unplaceable.config.arch = rotary::dlt::Architecture::Bert;
    unplaceable.config.batch_size = 1 << 20;
    arrivals[6] = (SimTime::from_secs(300), unplaceable);
    check_drain_equals_full_scan(&dlt, &arrivals, DLT_POLICY, 25);
}

#[test]
fn dlt_durable_runs_match_the_plain_run() {
    let specs = DltWorkloadBuilder::paper().jobs(6).seed(17).build();
    check_durable(&dlt, &specs, DLT_POLICY, (3, 2), "dlt");
}

#[test]
fn dlt_restore_at_every_event_writes_the_uninterrupted_records() {
    let specs = DltWorkloadBuilder::paper().jobs(6).seed(17).build();
    check_restore_at_every_event_writes_the_same_records(&dlt, &specs, DLT_POLICY);
}

#[test]
fn dlt_snapshot_memo_is_transparent_clean_and_under_chaos() {
    let specs = DltWorkloadBuilder::paper().jobs(6).seed(17).build();
    check_snapshot_memo_is_transparent(&dlt, &specs, DLT_POLICY);
    let chaos = || {
        DltSystem::new(DltSystemConfig {
            seed: 5,
            faults: FaultPlan::chaos(5),
            ..Default::default()
        })
    };
    check_snapshot_memo_is_transparent(&chaos, &specs, DLT_POLICY);
}

#[test]
fn dlt_resume_rejects_mismatched_policy() {
    let specs = DltWorkloadBuilder::paper().jobs(4).seed(3).build();
    check_resume_rejects(&dlt, (&specs, DltPolicy::Srf), (&specs, DltPolicy::Bcf), "dlt-mismatch");
}
