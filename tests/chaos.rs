//! Chaos suite: both systems must survive arbitrary deterministic fault
//! plans. Properties (256 seeded cases by default, `ROTARY_CHECK_CASES`
//! overrides): every run terminates with every job in a terminal state and
//! never panics; fixed chaos plans stay bit-identical across
//! `ROTARY_THREADS` ∈ {1, 2, 4, 8}; an inert plan — regardless of its
//! seed — changes nothing at all relative to the fault-free default; a
//! durable run's snapshot memo changes no byte of any generation; and a
//! baseline-policy run killed at any generation resumes to its plain trace.

use rotary::aqp::{AqpPolicy, AqpSystem, AqpSystemConfig, WorkloadBuilder};
use rotary::arb::{self, Durable};
use rotary::core::json::Json;
use rotary::core::progress::Objective;
use rotary::core::SimTime;
use rotary::dlt::{DltPolicy, DltSystem, DltSystemConfig, DltWorkloadBuilder};
use rotary::faults::{FaultConfig, FaultPlan, RetryPolicy};
use rotary::sim::metrics::WorkloadSummary;
use rotary::store::{record_json, DurableConfig, DurableOutcome, SnapshotStore};
use rotary::tpch::{Generator, TpchData};
use rotary_check::{check, Source};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| Generator::new(7, 0.0005).generate())
}

/// Draws an arbitrary — possibly very hostile — fault configuration.
///
/// Memory-pressure probability stays below 1 so a pressure streak cannot
/// starve the cluster forever (each slot draws independently).
fn random_config(src: &mut Source) -> FaultConfig {
    let slowdown_lo = src.f64_in(1.0, 2.5);
    FaultConfig {
        seed: src.raw(),
        crash_prob: src.f64_in(0.0, 0.35),
        straggler_prob: src.f64_in(0.0, 0.35),
        straggler_slowdown: (slowdown_lo, slowdown_lo + src.f64_in(0.0, 2.5)),
        checkpoint_fail_prob: src.f64_in(0.0, 0.5),
        restore_fail_prob: src.f64_in(0.0, 0.5),
        snap_torn_prob: src.f64_in(0.0, 0.3),
        snap_bitflip_prob: src.f64_in(0.0, 0.3),
        mem_spike_prob: src.f64_in(0.0, 0.5),
        mem_spike_mb: src.u64_in(0, 6144),
        mem_spike_slot: SimTime::from_secs(src.u64_in(30, 1800)),
        retry: RetryPolicy {
            max_attempts: src.u64_in(1, 5) as u32,
            base_backoff: SimTime::from_secs(src.u64_in(1, 30)),
            max_backoff: SimTime::from_secs(src.u64_in(30, 300)),
        },
        submission: rotary::faults::SubmissionFaultConfig::none(),
        net: rotary::faults::NetFaultConfig::none(),
    }
}

fn assert_all_terminal(summary: &WorkloadSummary, total: usize) {
    assert_eq!(summary.unfinished, 0, "jobs left unfinished: {summary:?}");
    assert_eq!(
        summary.attained + summary.falsely_attained + summary.deadline_missed + summary.failed,
        total,
        "terminal states do not cover the workload: {summary:?}"
    );
}

#[test]
fn dlt_survives_arbitrary_fault_plans() {
    check("dlt_chaos", |src| {
        let config = random_config(src);
        let wl_seed = src.u64_in(0, 1 << 20);
        let specs = DltWorkloadBuilder::paper().jobs(4).seed(wl_seed).build();
        let mut sys = DltSystem::new(DltSystemConfig {
            seed: wl_seed ^ 0x5eed,
            threads: 1,
            faults: FaultPlan::new(config),
            ..Default::default()
        });
        let r = sys.run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5)));
        assert_all_terminal(&r.summary, specs.len());
        // The trace (spans + snapshots + recovery counters) still serialises.
        let json = r.metrics.to_json().unwrap();
        assert!(!json.contains("NaN"), "non-finite value leaked into the trace");
    });
}

#[test]
fn aqp_survives_arbitrary_fault_plans() {
    check("aqp_chaos", |src| {
        let config = random_config(src);
        let wl_seed = src.u64_in(0, 1 << 20);
        let specs = WorkloadBuilder::paper().jobs(3).seed(wl_seed).build();
        let mut sys = AqpSystem::new(
            data(),
            AqpSystemConfig {
                seed: wl_seed ^ 0xfa,
                threads: 1,
                faults: FaultPlan::new(config),
                ..Default::default()
            },
        );
        let r = sys.run(&specs, AqpPolicy::Rotary).unwrap();
        assert_all_terminal(&r.summary, specs.len());
        let json = r.metrics.to_json().unwrap();
        assert!(!json.contains("NaN"), "non-finite value leaked into the trace");
    });
}

fn dlt_chaos_run(seed: u64, threads: usize) -> (WorkloadSummary, String) {
    let specs = DltWorkloadBuilder::paper().jobs(6).seed(seed).build();
    let mut sys = DltSystem::new(DltSystemConfig {
        seed,
        threads,
        faults: FaultPlan::chaos(seed),
        ..Default::default()
    });
    sys.prepopulate_history(&specs, 5);
    let r = sys.run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5)));
    (r.summary, r.metrics.to_json().unwrap())
}

fn aqp_chaos_run(seed: u64, threads: usize) -> (WorkloadSummary, String) {
    let specs = WorkloadBuilder::paper().jobs(4).seed(seed).build();
    let mut sys = AqpSystem::new(
        data(),
        AqpSystemConfig { seed, threads, faults: FaultPlan::chaos(seed), ..Default::default() },
    );
    sys.prepopulate_history(seed).unwrap();
    let r = sys.run(&specs, AqpPolicy::Rotary).unwrap();
    (r.summary, r.metrics.to_json().unwrap())
}

#[test]
fn chaos_runs_are_bit_identical_across_thread_counts() {
    // Fault decisions are consulted only from the serial control-plane
    // passes, so even a fault-riddled run must not depend on pool width.
    // Comparing the full metrics JSON pins every span boundary and every
    // recovery counter, not just the summary statistics.
    let mut any_faults_fired = false;
    for seed in [11u64, 47] {
        let dlt_base = dlt_chaos_run(seed, 1);
        any_faults_fired |= dlt_base.1.contains("recovery");
        for threads in [2usize, 4, 8] {
            assert_eq!(
                dlt_base,
                dlt_chaos_run(seed, threads),
                "DLT chaos run diverged at seed={seed} threads={threads}"
            );
        }
        let aqp_base = aqp_chaos_run(seed, 1);
        any_faults_fired |= aqp_base.1.contains("recovery");
        for threads in [2usize, 4, 8] {
            assert_eq!(
                aqp_base,
                aqp_chaos_run(seed, threads),
                "AQP chaos run diverged at seed={seed} threads={threads}"
            );
        }
    }
    // The sweep only proves something if the chaos profile actually fired.
    assert!(any_faults_fired, "no fault fired in any swept run; the chaos profile is inert");
}

#[test]
fn inert_plans_change_nothing_regardless_of_seed() {
    // Pay-for-what-you-use: an all-zero plan must leave the run — summary,
    // spans, snapshots, serialized trace — byte-identical to the fault-free
    // default, even when its seed differs. No "recovery" key may appear.
    let dlt_run = |plan: FaultPlan| {
        let specs = DltWorkloadBuilder::paper().jobs(6).seed(9).build();
        let mut sys = DltSystem::new(DltSystemConfig {
            seed: 9,
            threads: 1,
            faults: plan,
            ..Default::default()
        });
        sys.prepopulate_history(&specs, 5);
        let r = sys.run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5)));
        assert!(r.metrics.recovery().is_empty());
        (r.summary, r.metrics.to_json().unwrap())
    };
    let dlt_default = dlt_run(FaultPlan::none());
    let dlt_seeded =
        dlt_run(FaultPlan::new(FaultConfig { seed: 0xDEAD_BEEF, ..FaultConfig::none() }));
    assert_eq!(dlt_default, dlt_seeded);
    assert!(!dlt_default.1.contains("recovery"));

    let aqp_run = |plan: FaultPlan| {
        let specs = WorkloadBuilder::paper().jobs(4).seed(9).build();
        let mut sys = AqpSystem::new(
            data(),
            AqpSystemConfig { seed: 9, threads: 1, faults: plan, ..Default::default() },
        );
        sys.prepopulate_history(9).unwrap();
        let r = sys.run(&specs, AqpPolicy::Rotary).unwrap();
        assert!(r.metrics.recovery().is_empty());
        (r.summary, r.metrics.to_json().unwrap())
    };
    let aqp_default = aqp_run(FaultPlan::none());
    let aqp_seeded =
        aqp_run(FaultPlan::new(FaultConfig { seed: 0xDEAD_BEEF, ..FaultConfig::none() }));
    assert_eq!(aqp_default, aqp_seeded);
    assert!(!aqp_default.1.contains("recovery"));
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rotary-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn aqp_durable_system(threads: usize, faults: FaultPlan) -> AqpSystem<'static> {
    AqpSystem::new(data(), AqpSystemConfig { seed: 33, threads, faults, ..Default::default() })
}

fn dlt_durable_system(threads: usize, faults: FaultPlan) -> DltSystem {
    DltSystem::new(DltSystemConfig { seed: 33, threads, faults, ..Default::default() })
}

/// Drives an AQP workload to completion while killing the "process" at
/// every snapshot generation: halt right after generation 1, build a
/// brand-new system, resume and halt after generation 2, and so on until
/// the run completes. Nothing survives in memory between steps, so every
/// byte of run state must round-trip through the store. Returns the final
/// trace and the number of kill/restore cycles performed.
fn aqp_kill_chain(threads: usize, faults: impl Fn() -> FaultPlan, dir: &Path) -> (String, u64) {
    let specs = WorkloadBuilder::paper().jobs(2).seed(33).build();
    let mut halt = 1u64;
    loop {
        let mut durable = DurableConfig::new(dir, 1);
        durable.halt_after = Some(halt);
        let mut sys = aqp_durable_system(threads, faults());
        let outcome = if halt == 1 {
            sys.run_durable(&specs, AqpPolicy::Rotary, &durable)
        } else {
            sys.resume_durable(&specs, AqpPolicy::Rotary, &durable)
        };
        match outcome.unwrap() {
            DurableOutcome::Completed(r) => {
                return (r.metrics.to_json().unwrap(), halt - 1);
            }
            DurableOutcome::Halted { .. } => halt += 1,
        }
    }
}

/// DLT counterpart of [`aqp_kill_chain`].
fn dlt_kill_chain(threads: usize, faults: impl Fn() -> FaultPlan, dir: &Path) -> (String, u64) {
    let specs = DltWorkloadBuilder::paper().jobs(4).seed(33).build();
    let policy = DltPolicy::Rotary(Objective::Threshold(0.5));
    let mut halt = 1u64;
    loop {
        let mut durable = DurableConfig::new(dir, 1);
        durable.halt_after = Some(halt);
        let mut sys = dlt_durable_system(threads, faults());
        let outcome = if halt == 1 {
            sys.run_durable(&specs, policy, &durable)
        } else {
            sys.resume_durable(&specs, policy, &durable)
        };
        match outcome.unwrap() {
            DurableOutcome::Completed(r) => {
                return (r.metrics.to_json().unwrap(), halt - 1);
            }
            DurableOutcome::Halted { .. } => halt += 1,
        }
    }
}

#[test]
fn aqp_kill_and_resume_at_every_generation_is_byte_identical() {
    // A run that is killed and restored from disk after *every* snapshot
    // generation must produce the same trace — span for span — as an
    // uninterrupted run, at every supported thread count.
    for threads in [1usize, 2, 4, 8] {
        let specs = WorkloadBuilder::paper().jobs(2).seed(33).build();
        let expected = aqp_durable_system(threads, FaultPlan::none())
            .run(&specs, AqpPolicy::Rotary)
            .unwrap()
            .metrics
            .to_json()
            .unwrap();
        let dir = temp_store(&format!("aqp-kill-{threads}"));
        let (resumed, kills) = aqp_kill_chain(threads, FaultPlan::none, &dir);
        assert_eq!(resumed, expected, "AQP kill chain diverged at threads={threads}");
        assert!(kills >= 2, "workload too short to exercise resume (kills={kills})");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn dlt_kill_and_resume_at_every_generation_is_byte_identical() {
    for threads in [1usize, 2, 4, 8] {
        let specs = DltWorkloadBuilder::paper().jobs(4).seed(33).build();
        let expected = dlt_durable_system(threads, FaultPlan::none())
            .run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5)))
            .metrics
            .to_json()
            .unwrap();
        let dir = temp_store(&format!("dlt-kill-{threads}"));
        let (resumed, kills) = dlt_kill_chain(threads, FaultPlan::none, &dir);
        assert_eq!(resumed, expected, "DLT kill chain diverged at threads={threads}");
        assert!(kills >= 2, "workload too short to exercise resume (kills={kills})");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_and_resume_under_chaos_faults_is_byte_identical() {
    // Crash/straggler/checkpoint faults and durable snapshots compose: the
    // fault plan is a pure function of (seed, stream), and every fault
    // counter lives in the snapshot, so a kill chain under the full chaos
    // profile (which also corrupts ~10% of snapshots on the way to disk)
    // still reproduces the uninterrupted run exactly.
    let aqp_expected = aqp_durable_system(1, FaultPlan::chaos(33))
        .run(&WorkloadBuilder::paper().jobs(2).seed(33).build(), AqpPolicy::Rotary)
        .unwrap()
        .metrics
        .to_json()
        .unwrap();
    let dir = temp_store("aqp-chaos-kill");
    let (aqp_resumed, _) = aqp_kill_chain(1, || FaultPlan::chaos(33), &dir);
    assert_eq!(aqp_resumed, aqp_expected, "AQP chaos kill chain diverged");
    let _ = std::fs::remove_dir_all(&dir);

    let dlt_expected = dlt_durable_system(1, FaultPlan::chaos(33))
        .run(
            &DltWorkloadBuilder::paper().jobs(4).seed(33).build(),
            DltPolicy::Rotary(Objective::Threshold(0.5)),
        )
        .metrics
        .to_json()
        .unwrap();
    let dir = temp_store("dlt-chaos-kill");
    let (dlt_resumed, _) = dlt_kill_chain(1, || FaultPlan::chaos(33), &dir);
    assert_eq!(dlt_resumed, dlt_expected, "DLT chaos kill chain diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_falls_back_past_corrupt_generations() {
    // Aggressive snapshot corruption (torn writes and bit flips on most
    // generations) must never panic or poison the run: each resume skips
    // corrupt generations, restarts from the newest valid one, and the
    // finished trace still matches an uninterrupted fault-free run —
    // snapshot faults are invisible to the simulation itself.
    let snap_faults = || {
        FaultPlan::new(FaultConfig {
            seed: 0x00C0_FFEE,
            snap_torn_prob: 0.45,
            snap_bitflip_prob: 0.35,
            ..FaultConfig::none()
        })
    };
    let specs = WorkloadBuilder::paper().jobs(2).seed(33).build();
    let expected = aqp_durable_system(1, FaultPlan::none())
        .run(&specs, AqpPolicy::Rotary)
        .unwrap()
        .metrics
        .to_json()
        .unwrap();
    let dir = temp_store("aqp-corrupt");
    let (resumed, kills) = aqp_kill_chain(1, snap_faults, &dir);
    assert_eq!(resumed, expected, "corruption fallback changed the trace");
    assert!(kills >= 2, "workload too short to exercise resume (kills={kills})");
    // The sweep only proves fallback if corruption actually landed on disk.
    let store = SnapshotStore::open(&dir).unwrap();
    let corrupt =
        store.generations().unwrap().into_iter().filter(|g| store.load(*g).is_err()).count();
    assert!(corrupt > 0, "no snapshot generation was corrupted; pick a hotter seed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The records of the `k`-th durable boundary (cadence: `every` completed
/// epochs), written two ways: by a durable run that snapshotted at every
/// earlier boundary and so reuses their text, and by a fresh run in
/// lockstep whose cadence is `k × every` — the same event, and its first
/// snapshot, so its memo is cold. Only `meta.generation` may differ. A run
/// with fewer boundaries is compared at its last one.
fn check_memo_at_durable_boundary<A: Durable>(
    make: &dyn Fn() -> A,
    specs: &[A::Spec],
    policy: A::Policy,
    (every, k): (u64, u64),
    dir: &Path,
) {
    let commit = |every: u64, halt_after: u64| {
        let _ = std::fs::remove_dir_all(dir);
        let mut durable = DurableConfig::new(dir, every);
        durable.halt_after = Some(halt_after);
        arb::run_durable(&mut make(), specs, policy, &durable).unwrap();
        let store = SnapshotStore::open(dir).unwrap();
        let generation = store.generations().unwrap().into_iter().max();
        let records = generation.map(|g| (g, store.load(g).unwrap()));
        let _ = std::fs::remove_dir_all(dir);
        records
    };
    let Some((generation, warm)) = commit(every, k) else {
        return;
    };
    let (first, cold) = commit(generation * every, 1).expect("the same boundary");
    assert_eq!(first, 1);
    let meta = |records: &[(String, Vec<u8>)]| {
        let mut meta = record_json(records, "meta").unwrap();
        if let Json::Obj(fields) = &mut meta {
            fields.retain(|(key, _)| key != "generation");
        }
        meta
    };
    assert_eq!(meta(&warm), meta(&cold), "not the same boundary");
    assert!(warm[1..] == cold[1..], "the memo changed a byte of generation {generation}");
}

#[test]
fn snapshot_memo_is_transparent_at_durable_boundaries_under_arbitrary_fault_plans() {
    let dir = temp_store("memo");
    check("snapshot_memo", |src| {
        // Snapshot damage only hits the disk copy this reads back.
        let config =
            FaultConfig { snap_torn_prob: 0.0, snap_bitflip_prob: 0.0, ..random_config(src) };
        let wl_seed = src.u64_in(0, 1 << 20);
        let cadence = (src.u64_in(1, 4), src.u64_in(1, 12));
        let aqp = || {
            let faults = FaultPlan::new(config.clone());
            AqpSystem::new(
                data(),
                AqpSystemConfig { seed: wl_seed, threads: 1, faults, ..Default::default() },
            )
        };
        let specs = WorkloadBuilder::paper().jobs(3).seed(wl_seed).build();
        check_memo_at_durable_boundary(&aqp, &specs, AqpPolicy::Rotary, cadence, &dir);
        let dlt = || {
            let faults = FaultPlan::new(config.clone());
            DltSystem::new(DltSystemConfig {
                seed: wl_seed,
                threads: 1,
                faults,
                ..Default::default()
            })
        };
        let specs = DltWorkloadBuilder::paper().jobs(4).seed(wl_seed).build();
        let policy = DltPolicy::Rotary(Objective::Threshold(0.5));
        check_memo_at_durable_boundary(&dlt, &specs, policy, cadence, &dir);
    });
}

/// Runs `specs` under `policy` plainly, then durably — a generation every
/// `every` completed epochs, killed after generation `halt` and resumed in
/// a fresh system — and returns both metrics traces. A run too short to
/// reach the halt completes in its first leg.
fn plain_and_resumed<A: Durable>(
    make: &dyn Fn() -> A,
    specs: &[A::Spec],
    policy: A::Policy,
    (every, halt): (u64, u64),
    dir: &Path,
    trace: fn(&A::Outcome) -> (WorkloadSummary, String),
) -> ((WorkloadSummary, String), String)
where
    A::BindError: std::fmt::Debug,
{
    let plain = trace(&arb::run(&mut make(), specs, policy).unwrap());
    let _ = std::fs::remove_dir_all(dir);
    let mut durable = DurableConfig::new(dir, every);
    durable.halt_after = Some(halt);
    let resumed = match arb::run_durable(&mut make(), specs, policy, &durable).unwrap() {
        DurableOutcome::Completed(outcome) => outcome,
        DurableOutcome::Halted { .. } => {
            durable.halt_after = None;
            let outcome = arb::resume_durable(&mut make(), specs, policy, &durable).unwrap();
            outcome.completed().expect("resume runs to completion")
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    (plain, trace(&resumed).1)
}

#[test]
fn baselines_survive_arbitrary_fault_plans_and_resume_identically() {
    // The baselines rank densely and keep rank-time state (AQP's cursor
    // and random estimates, DLT's cursor) yet share the change tracking,
    // the candidate-only pause and the sparse progress rows with Rotary:
    // under any plan every job must end, and a run killed at any
    // generation must resume to the plain run's trace.
    let dir = temp_store("baselines");
    check("baseline_chaos", |src| {
        let config = random_config(src);
        let wl_seed = src.u64_in(0, 1 << 20);
        let kill = (src.u64_in(2, 8), src.u64_in(1, 4));
        let ((summary, plain), resumed, jobs) = if src.bool(0.5) {
            let policies = [
                AqpPolicy::Edf,
                AqpPolicy::Laf,
                AqpPolicy::RoundRobin,
                AqpPolicy::RotaryRandomEstimator,
            ];
            let policy = *src.pick(&policies);
            let specs = WorkloadBuilder::paper().jobs(3).seed(wl_seed).build();
            let make = || {
                let faults = FaultPlan::new(config.clone());
                let config =
                    AqpSystemConfig { seed: wl_seed, threads: 1, faults, ..Default::default() };
                AqpSystem::new(data(), config)
            };
            let trace =
                |r: &rotary::aqp::AqpRunResult| (r.summary.clone(), r.metrics.to_json().unwrap());
            let (plain, resumed) = plain_and_resumed(&make, &specs, policy, kill, &dir, trace);
            (plain, resumed, specs.len())
        } else {
            let policy = *src.pick(&[DltPolicy::Srf, DltPolicy::Bcf, DltPolicy::Laf]);
            let specs = DltWorkloadBuilder::paper().jobs(4).seed(wl_seed).build();
            let make = || {
                let faults = FaultPlan::new(config.clone());
                DltSystem::new(DltSystemConfig {
                    seed: wl_seed,
                    threads: 1,
                    faults,
                    ..Default::default()
                })
            };
            let trace =
                |r: &rotary::dlt::DltRunResult| (r.summary.clone(), r.metrics.to_json().unwrap());
            let (plain, resumed) = plain_and_resumed(&make, &specs, policy, kill, &dir, trace);
            (plain, resumed, specs.len())
        };
        assert_all_terminal(&summary, jobs);
        assert_eq!(
            resumed, plain,
            "a run killed at {kill:?} (every, generation) resumed differently"
        );
    });
}

#[test]
fn recovery_survives_every_policy() {
    // Baseline policies share the arbitration loop, so fault handling must
    // hold for all of them, not just Rotary's.
    let specs = DltWorkloadBuilder::paper().jobs(4).seed(21).build();
    for policy in DltPolicy::all() {
        let mut sys = DltSystem::new(DltSystemConfig {
            seed: 21,
            threads: 1,
            faults: FaultPlan::chaos(21),
            ..Default::default()
        });
        let r = sys.run(&specs, policy);
        assert_all_terminal(&r.summary, specs.len());
    }
}
