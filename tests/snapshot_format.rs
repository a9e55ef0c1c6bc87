//! Pins the v1 on-disk snapshot format (`rotary-aqp-run/v1`,
//! `rotary-dlt-run/v1`).
//!
//! `tests/fixtures/snapshots/` holds one generation per system, written
//! by the commit *before* the arbitration loop was unified (PR 11,
//! 423b626) from exactly the specs and configs below. Each must still
//! restore, and the resumed run must end in the same trace as an
//! uninterrupted one — so a later change that bends a record name, a key,
//! or an event encoding fails here instead of stranding snapshots in the
//! field. To replace a fixture after a deliberate format bump, write it
//! with `run_durable` (`halt_after` = the generation in the file name,
//! `every` as in the test) and bump the format tag.

use rotary::aqp::{AqpJobSpec, AqpPolicy, AqpSystem, AqpSystemConfig};
use rotary::core::criteria::{CompletionCriterion, Deadline, Metric};
use rotary::core::resources::GpuPoolSpec;
use rotary::core::{Objective, SimTime};
use rotary::dlt::{Architecture, DltJobSpec, DltPolicy, DltSystem, DltSystemConfig};
use rotary::dlt::{Optimizer, TrainingConfig};
use rotary::engine::QueryId;
use rotary::faults::{FaultConfig, FaultPlan};
use rotary::store::{DurableConfig, SnapshotStore};
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

#[test]
fn aqp_snapshot_written_by_the_parent_commit_resumes_to_the_same_trace() {
    let secs = SimTime::from_secs;
    let specs = vec![
        AqpJobSpec::new(QueryId(6), 0.6, secs(900), SimTime::ZERO),
        AqpJobSpec::new(QueryId(1), 0.6, secs(900), secs(30)),
        AqpJobSpec::new(QueryId(14), 0.6, secs(1200), secs(70)),
        AqpJobSpec::new(QueryId(7), 0.9, secs(40), secs(5)),
    ];
    let config = || AqpSystemConfig {
        seed: 42,
        faults: FaultPlan::none(),
        threads: 1,
        ..Default::default()
    };
    let data = Generator::new(77, 0.002).generate();
    let expected = AqpSystem::new(&data, config()).run(&specs, AqpPolicy::Rotary).unwrap();

    // Generation 3 of a run snapshotting every 2 epochs: two jobs running,
    // one still pending its arrival, deadline checks queued.
    let dir = store_with("aqp/snap-3.rsnp", 3, "aqp");
    let resumed = AqpSystem::new(&data, config())
        .resume_durable(&specs, AqpPolicy::Rotary, &DurableConfig::new(&dir, 2))
        .expect("the v1 AQP fixture must restore")
        .completed()
        .expect("no halt requested");
    assert!(resumed.summary.attained > 0 && resumed.summary.deadline_missed > 0);
    assert_eq!(resumed.metrics.to_json().unwrap(), expected.metrics.to_json().unwrap());
    assert_eq!(resumed.makespan, expected.makespan);
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
