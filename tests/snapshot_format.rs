//! Pins the on-disk snapshot formats (`rotary-aqp-run/v2`,
//! `rotary-dlt-run/v1`).
//!
//! `tests/fixtures/snapshots/` holds generations written from exactly the
//! specs and configs below. Each current one must still restore, and the
//! resumed run must end in the same trace as an uninterrupted one — so a
//! later change that bends a record name, a key, or an event encoding
//! fails here instead of stranding snapshots in the field. To replace a
//! fixture after a deliberate format bump, write it with `run_durable`
//! (`halt_after` = the generation in the file name, `every` as in the
//! test) and bump the format tag.
//!
//! * `dlt/snap-5.rsnp` and `aqp/snap-3.rsnp` were written by commit
//!   423b626, before the arbitration loop was unified.
//! * `aqp-v2/snap-3.rsnp` is the AQP fixture of format v2, the first in
//!   which every job reads its fact table's shared row order from its own
//!   offset. `aqp/snap-3.rsnp` (v1) records delivered prefixes of per-job
//!   permutations that no longer exist, so it must be refused with a typed
//!   error, never resumed into a run that reads another order.
//! * `aqp-v2-delta-rows/snap-18.rsnp` is a later generation of the same v2
//!   run, written after the `metrics` record began storing progress rows
//!   as they are held in memory (one full row, then `changed` deltas) and
//!   terminal jobs stopped carrying an estimator. The reader takes both row
//!   shapes, so `aqp-v2` and `dlt` (every row full) must still resume too.

use rotary::aqp::{AqpJobSpec, AqpPolicy, AqpSystem, AqpSystemConfig};
use rotary::core::criteria::{CompletionCriterion, Deadline, Metric};
use rotary::core::job::JobStatus;
use rotary::core::json::Json;
use rotary::core::resources::GpuPoolSpec;
use rotary::core::{Objective, RotaryError, SimTime};
use rotary::dlt::{Architecture, DltJobSpec, DltPolicy, DltSystem, DltSystemConfig};
use rotary::dlt::{Optimizer, TrainingConfig};
use rotary::engine::QueryId;
use rotary::faults::{FaultConfig, FaultPlan};
use rotary::store::{record_json, record_text, DurableConfig, SnapshotStore};
use rotary::tpch::Generator;
use std::path::PathBuf;

/// A scratch store holding only the checked-in generation, which the store
/// must accept — otherwise `resume_durable` would quietly start from
/// scratch and the comparison below would prove nothing.
fn store_with(fixture: &str, generation: u64, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rotary-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch store");
    let source =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/snapshots").join(fixture);
    let name = source.file_name().expect("fixture file name");
    std::fs::copy(&source, dir.join(name)).expect("copy fixture");
    let newest = SnapshotStore::open(&dir).and_then(|store| store.latest_valid());
    assert_eq!(newest.expect("scan").map(|(g, _)| g), Some(generation), "{fixture} is unreadable");
    dir
}

fn aqp_specs() -> Vec<AqpJobSpec> {
    let secs = SimTime::from_secs;
    vec![
        AqpJobSpec::new(QueryId(6), 0.6, secs(900), SimTime::ZERO),
        AqpJobSpec::new(QueryId(1), 0.6, secs(900), secs(30)),
        AqpJobSpec::new(QueryId(14), 0.6, secs(1200), secs(70)),
        AqpJobSpec::new(QueryId(7), 0.9, secs(40), secs(5)),
    ]
}

fn aqp_config() -> AqpSystemConfig {
    AqpSystemConfig { seed: 42, faults: FaultPlan::none(), threads: 1, ..Default::default() }
}

/// Resumes the AQP run of [`aqp_specs`] from a checked-in generation
/// (written snapshotting every 2 epochs) and checks that it ends in the
/// uninterrupted run's trace. Returns the generation's records.
fn aqp_fixture_resumes_to_the_same_trace(
    fixture: &str,
    generation: u64,
    tag: &str,
) -> Vec<(String, Vec<u8>)> {
    let specs = aqp_specs();
    let data = Generator::new(77, 0.002).generate();
    let expected = AqpSystem::new(&data, aqp_config()).run(&specs, AqpPolicy::Rotary).unwrap();

    let dir = store_with(fixture, generation, tag);
    let records = SnapshotStore::open(&dir).and_then(|store| store.load(generation)).unwrap();
    let resumed = AqpSystem::new(&data, aqp_config())
        .resume_durable(&specs, AqpPolicy::Rotary, &DurableConfig::new(&dir, 2))
        .unwrap_or_else(|e| panic!("{fixture} must restore: {e}"))
        .completed()
        .expect("no halt requested");
    assert!(resumed.summary.attained > 0 && resumed.summary.deadline_missed > 0);
    assert_eq!(resumed.metrics.to_json().unwrap(), expected.metrics.to_json().unwrap());
    assert_eq!(resumed.makespan, expected.makespan);
    let _ = std::fs::remove_dir_all(&dir);
    records
}

#[test]
fn aqp_v2_snapshot_resumes_to_the_same_trace() {
    // Generation 3: three jobs running, one still pending its arrival,
    // deadline checks queued; every progress row written full.
    let records = aqp_fixture_resumes_to_the_same_trace("aqp-v2/snap-3.rsnp", 3, "aqp-v2");
    assert!(!record_text(&records, "metrics").unwrap().contains("\"changed\""));
}

#[test]
fn aqp_v2_delta_row_snapshot_resumes_to_the_same_trace() {
    // Generation 18: one full progress row, then deltas; two jobs ended
    // (their entries carry no estimator) beside two running ones.
    let records =
        aqp_fixture_resumes_to_the_same_trace("aqp-v2-delta-rows/snap-18.rsnp", 18, "aqp-v2-delta");
    let metrics = record_text(&records, "metrics").unwrap();
    assert_eq!(metrics.matches("\"progress\"").count(), 1, "{metrics}");
    assert!(metrics.contains("\"changed\""));
    let jobs = record_json(&records, "jobs").unwrap();
    let entries: Vec<(bool, bool)> = jobs
        .as_arr()
        .expect("jobs array")
        .iter()
        .map(|entry| {
            let status = entry.get("core").and_then(|core| core.get("status"));
            let status = status.and_then(Json::as_str).and_then(JobStatus::from_name);
            (status.expect("job status").is_terminal(), entry.get("estimator").is_some())
        })
        .collect();
    assert_eq!(entries, [(true, false), (false, true), (false, true), (true, false)]);
}

#[test]
fn aqp_v1_snapshot_is_refused_with_a_typed_error() {
    let data = Generator::new(77, 0.002).generate();
    let dir = store_with("aqp/snap-3.rsnp", 3, "aqp-v1");
    let refused = AqpSystem::new(&data, aqp_config()).resume_durable(
        &aqp_specs(),
        AqpPolicy::Rotary,
        &DurableConfig::new(&dir, 2),
    );
    let Err(err) = refused else { panic!("a v1 AQP snapshot must be refused, not resumed") };
    assert!(
        matches!(&err, RotaryError::SnapshotCorrupt { detail }
            if detail == "rotary-aqp-run/v2: unknown meta.format"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dlt_snapshot_written_by_the_parent_commit_resumes_to_the_same_trace() {
    let job = |arch, batch_size, optimizer, learning_rate, criterion| DltJobSpec {
        config: TrainingConfig { arch, batch_size, optimizer, learning_rate, pretrained: false },
        criterion,
    };
    let specs = vec![
        job(
            Architecture::ResNet18,
            64,
            Optimizer::Adam,
            0.001,
            CompletionCriterion::Accuracy {
                metric: Metric::Accuracy,
                threshold: 0.8,
                deadline: Deadline::Epochs(20),
            },
        ),
        job(
            Architecture::MobileNet,
            32,
            Optimizer::Sgd,
            0.01,
            CompletionCriterion::Convergence {
                metric: Metric::Accuracy,
                delta: 0.01,
                deadline: Deadline::Epochs(15),
            },
        ),
        job(
            Architecture::Lstm,
            64,
            Optimizer::Momentum,
            0.01,
            CompletionCriterion::Runtime { runtime: Deadline::Epochs(6) },
        ),
        job(
            Architecture::LeNet,
            128,
            Optimizer::Adagrad,
            0.1,
            CompletionCriterion::Runtime { runtime: Deadline::Time(SimTime::from_secs(1800)) },
        ),
    ];
    // A crash-heavy plan, so the fixture carries lost epochs, retries and
    // two pending `epoch-failed` events (written in the parent's key order).
    let config = || DltSystemConfig {
        seed: 5,
        pool: GpuPoolSpec::homogeneous(2, 8 * 1024),
        faults: FaultPlan::new(FaultConfig { seed: 9, crash_prob: 0.3, ..FaultConfig::none() }),
        threads: 1,
        ..Default::default()
    };
    let policy = DltPolicy::Rotary(Objective::Threshold(0.5));
    let expected = DltSystem::new(config()).run(&specs, policy);

    let dir = store_with("dlt/snap-5.rsnp", 5, "dlt");
    let resumed = DltSystem::new(config())
        .resume_durable(&specs, policy, &DurableConfig::new(&dir, 3))
        .expect("the v1 DLT fixture must restore")
        .completed()
        .expect("no halt requested");
    assert!(resumed.jobs.iter().any(|(_, state)| state.retries > 0));
    assert_eq!(resumed.metrics.to_json().unwrap(), expected.metrics.to_json().unwrap());
    assert_eq!(resumed.makespan, expected.makespan);
    let _ = std::fs::remove_dir_all(&dir);
}
