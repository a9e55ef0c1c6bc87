//! Control-plane strong-scaling benchmark + regression gate.
//!
//! Measures the arbitration cost per control-plane event (arrival, epoch
//! completion, wake, deadline check) for both systems at 100 / 1k / 10k /
//! 100k concurrent jobs, stepping the shared run handle
//! (`rotary_faults::arbiter::Run`) one event at a time through the real
//! event loop. Each scale's ns/event lands in `BENCH_arbitration.json`; on
//! top of the per-scale ±tolerance comparison the gate fits a 1k→100k
//! scaling exponent `ln(cost_100k / cost_1k) / ln(100)` and fails — in
//! every mode — unless both systems stay sub-linear (exponent below
//! [`SUBLINEAR_CEILING`]). A full per-epoch re-sort would put the exponent
//! near 1; the indexed control plane (incremental refits, standing orders)
//! keeps per-event cost near-flat, so the exponent hovers around 0. Measure release
//! builds only: debug builds check every indexed pass against a full
//! re-sort.
//!
//! Two more costs sit on the serve path beside the event step, and each gets
//! the same treatment (keys, exponent, ceiling): **admission** into a run
//! whose system already holds 1k / 10k historical records
//! (`*_admit_ns_{1k,10k}` — the history is one fixed job mix archived over
//! and over, what a long-running arbiter accumulates, so an admission that
//! scans records instead of feature classes shows an exponent near 1), and
//! the **completion drain** the serve backend issues after every event
//! (`drain_ns_{1k,100k}`, timer overhead included — a drain that scans the
//! run's jobs costs microseconds per job-thousand).
//!
//! Workloads are synthetic but run the production code path end to end:
//! AQP jobs are q6 instances over a deliberately tiny TPC-H table (jobs
//! share one row order, so it is kept tiny for a low, unchanged per-event
//! data-plane floor, not for memory) all arriving at t = 0;
//! DLT jobs are small epoch-budget training trials. Fault injection is
//! disabled and the data plane runs single-threaded so the measurement
//! isolates control-plane work plus a constant per-event data-plane floor
//! — a floor that still separates O(log n) from O(n) arbitration.
//!
//! Modes (mirroring `bench_engine`):
//!
//! * (default)      — measure and print, no file I/O;
//! * `--write [p]`  — measure and (over)write the baseline file;
//! * `--check [p]`  — measure and compare against the baseline with a
//!   ±tolerance, exiting non-zero on regression (`ci.sh --bench`).
//!
//! The sub-linearity assertion runs in all three modes.

use std::collections::BTreeMap;
use std::time::Instant;

use rotary_aqp::{AqpJobSpec, AqpPolicy, AqpSystem, AqpSystemConfig};
use rotary_bench::must;
use rotary_bench::timing::black_box;
use rotary_core::criteria::{CompletionCriterion, Deadline};
use rotary_core::history::{HistoryRepository, JobRecord};
use rotary_core::json;
use rotary_core::progress::Objective;
use rotary_core::SimTime;
use rotary_dlt::{
    Architecture, DltJobSpec, DltPolicy, DltSystem, DltSystemConfig, DltWorkloadBuilder, Optimizer,
    TrainingConfig,
};
use rotary_engine::QueryId;
use rotary_faults::arbiter::Run;
use rotary_faults::FaultPlan;
use rotary_tpch::Generator;

/// Default baseline location (repo root, where `ci.sh` runs).
const BASELINE: &str = "BENCH_arbitration.json";

/// Relative slack on per-scale ns/event. Wider than the engine gate's:
/// individual event timings at the small scales are microseconds, where
/// scheduler noise bites harder than in bulk-throughput loops.
const TOLERANCE: f64 = 0.35;

/// Job counts swept, with the key suffix used in the baseline.
const SCALES: [(usize, &str); 4] =
    [(100, "100"), (1_000, "1k"), (10_000, "10k"), (100_000, "100k")];

/// History sizes swept by the admission benches.
const HISTORY_SCALES: [(usize, &str); 2] = [(1_000, "1k"), (10_000, "10k")];

/// Distinct jobs in the mix the admission benches archive repeatedly.
const HISTORY_MIX: usize = 250;

/// Every fitted exponent: `(key, metric stem, small scale, large scale,
/// size ratio between the two)`.
const EXPONENTS: [(&str, &str, &str, &str, f64); 5] = [
    ("aqp_scaling_exponent", "aqp_epoch_ns", "1k", "100k", 100.0),
    ("dlt_scaling_exponent", "dlt_epoch_ns", "1k", "100k", 100.0),
    ("aqp_admit_scaling_exponent", "aqp_admit_ns", "1k", "10k", 10.0),
    ("dlt_admit_scaling_exponent", "dlt_admit_ns", "1k", "10k", 10.0),
    ("drain_scaling_exponent", "drain_ns", "1k", "100k", 100.0),
];

/// Ceiling on the fitted 1k→100k scaling exponent. 0 is flat per-event
/// cost, 1 is a linear-per-event (quadratic-per-epoch-sweep) control
/// plane; 0.5 leaves headroom for cache effects at 100k jobs while still
/// rejecting any re-introduced full re-sort by a wide margin.
const SUBLINEAR_CEILING: f64 = 0.5;

/// Events stepped after all arrivals before timing starts, letting the
/// pool fill and the estimators leave their cold-start phase.
const WARMUP_EVENTS: usize = 256;

/// Events per timed window.
const WINDOW_EVENTS: usize = 256;

/// Timed windows per scale; the minimum ns/event across complete windows
/// is reported. Generous on purpose: the minimum over many short windows
/// discards scheduler preemptions and page-reclaim stalls that a single
/// long window would average in, which matters on busy single-core hosts.
const WINDOWS: usize = 6;

/// Times `step` over up to [`WINDOWS`] windows of [`WINDOW_EVENTS`] events
/// and returns the best (minimum) ns/event. At the smallest scale the run
/// can drain mid-window; completed windows suffice, but at least one must
/// finish.
fn ns_per_event(mut step: impl FnMut() -> bool, label: &str) -> f64 {
    let mut best = f64::INFINITY;
    let mut complete = 0;
    for _ in 0..WINDOWS {
        let start = Instant::now();
        let mut n = 0;
        while n < WINDOW_EVENTS && step() {
            n += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        if n < WINDOW_EVENTS {
            break;
        }
        complete += 1;
        best = best.min(elapsed * 1e9 / WINDOW_EVENTS as f64);
    }
    assert!(complete >= 1, "{label}: run drained before one full measurement window");
    best
}

fn aqp_config() -> AqpSystemConfig {
    AqpSystemConfig {
        // Small batches stretch each job over many epochs, guaranteeing
        // event budget at the smallest scale and keeping the per-event
        // data-plane floor low.
        batch_fraction: 0.002,
        seed: 11,
        faults: FaultPlan::none(),
        threads: 1,
        ..Default::default()
    }
}

fn bench_aqp(metrics: &mut BTreeMap<String, f64>) {
    // Tiny fact table: kept at the size the baseline keys were recorded at
    // (jobs share one row order of it, so memory no longer needs it small).
    let data = Generator::new(1, 0.0005).generate();
    // Far enough out that no deadline fires during measurement.
    let deadline = SimTime::from_millis(30 * 24 * 3_600_000);
    for (jobs, tag) in SCALES {
        let mut sys = AqpSystem::new(&data, aqp_config());
        let specs: Vec<AqpJobSpec> = (0..jobs)
            .map(|i| {
                AqpJobSpec::new(QueryId(6), 0.55 + 0.05 * (i % 8) as f64, deadline, SimTime::ZERO)
            })
            .collect();
        let mut run = must("aqp start", Run::start(&mut sys, &specs, AqpPolicy::Rotary));
        // Drain every t = 0 arrival plus a settling margin: the steady
        // state under measurement is "full queue, busy pool".
        for _ in 0..jobs + WARMUP_EVENTS {
            assert!(run.step(&mut sys), "aqp {tag}: drained in warmup");
        }
        let ns = ns_per_event(|| run.step(&mut sys), "aqp");
        black_box(&run);
        report(metrics, format!("arbitration/aqp_epoch_ns_{tag}"), ns);
    }
}

/// Streaming admissions into an AQP system whose repository holds the 22
/// prepopulated query records archived round-robin up to the scale.
fn bench_aqp_admit(metrics: &mut BTreeMap<String, f64>) {
    let data = Generator::new(1, 0.0005).generate();
    let deadline = SimTime::from_millis(30 * 24 * 3_600_000);
    for (records, tag) in HISTORY_SCALES {
        let mut sys = AqpSystem::new(&data, aqp_config());
        must("prepopulate", sys.prepopulate_history(11));
        let queries: Vec<JobRecord> = sys.history().iter().cloned().collect();
        let mut history = HistoryRepository::new();
        for record in queries.iter().cycle().take(records) {
            history.insert(record.clone());
        }
        sys.set_history(history);
        let mut run = must("aqp start", Run::start(&mut sys, &[], AqpPolicy::Rotary));
        let mut i = 0u8;
        let admit = || {
            i = i % 22 + 1;
            let spec = AqpJobSpec::new(QueryId(i), 0.6, deadline, SimTime::ZERO);
            must("admit", run.admit(&mut sys, spec, SimTime::ZERO));
            true
        };
        let ns = ns_per_event(admit, "aqp admit");
        black_box(&run);
        report(metrics, format!("arbitration/aqp_admit_ns_{tag}"), ns);
    }
}

/// Streaming admissions into a DLT system whose repository holds a fixed
/// Table II job mix archived round-robin up to the scale.
fn bench_dlt_admit(metrics: &mut BTreeMap<String, f64>) {
    let mix = DltWorkloadBuilder::paper().jobs(HISTORY_MIX).seed(11).build();
    for (records, tag) in HISTORY_SCALES {
        let mut sys = DltSystem::new(DltSystemConfig {
            seed: 11,
            faults: FaultPlan::none(),
            threads: 1,
            ..Default::default()
        });
        let archived: Vec<DltJobSpec> = mix.iter().cycle().take(records).cloned().collect();
        sys.prepopulate_history(&archived, 11);
        let policy = DltPolicy::Rotary(Objective::Threshold(0.5));
        let mut run = must("dlt start", Run::start(&mut sys, &[], policy));
        let mut admitted = 0;
        let admit = || {
            let spec = mix[admitted % mix.len()].clone();
            admitted += 1;
            must("admit", run.admit(&mut sys, spec, SimTime::ZERO));
            true
        };
        let ns = ns_per_event(admit, "dlt admit");
        black_box(&run);
        report(metrics, format!("arbitration/dlt_admit_ns_{tag}"), ns);
    }
}

/// One `drain_finished` after each of `WINDOW_EVENTS` steps, as the serve
/// backend issues them; only the drains are timed (their `Instant` pair
/// included). Best of [`WINDOWS`] windows.
fn drain_ns(run: &mut Run<DltSystem>, sys: &mut DltSystem) -> f64 {
    run.drain_finished();
    let mut best = f64::INFINITY;
    for _ in 0..WINDOWS {
        let mut spent = 0.0;
        for _ in 0..WINDOW_EVENTS {
            assert!(run.step(sys), "dlt: drained while timing the drain");
            let start = Instant::now();
            black_box(run.drain_finished());
            spent += start.elapsed().as_secs_f64();
        }
        best = best.min(spent * 1e9 / WINDOW_EVENTS as f64);
    }
    best
}

fn bench_dlt(metrics: &mut BTreeMap<String, f64>) {
    for (jobs, tag) in SCALES {
        let mut sys = DltSystem::new(DltSystemConfig {
            seed: 11,
            faults: FaultPlan::none(),
            threads: 1,
            ..Default::default()
        });
        // Small trials: LeNet fits any device, and epoch-count budgets keep
        // every priority key clock-free (no dynamic re-key work inflating
        // the baseline — regressions there show up as real regressions).
        let specs: Vec<DltJobSpec> = (0..jobs)
            .map(|i| DltJobSpec {
                config: TrainingConfig {
                    arch: Architecture::LeNet,
                    batch_size: 32,
                    optimizer: Optimizer::Sgd,
                    learning_rate: [0.1, 0.03, 0.01, 0.003][i % 4],
                    pretrained: false,
                },
                criterion: CompletionCriterion::Runtime {
                    runtime: Deadline::Epochs(8 + (i % 13) as u64),
                },
            })
            .collect();
        let policy = DltPolicy::Rotary(Objective::Threshold(0.5));
        let mut run = must("dlt start", Run::start(&mut sys, &specs, policy));
        for _ in 0..WARMUP_EVENTS {
            assert!(run.step(&mut sys), "dlt {tag}: drained in warmup");
        }
        let ns = ns_per_event(|| run.step(&mut sys), "dlt");
        black_box(&run);
        report(metrics, format!("arbitration/dlt_epoch_ns_{tag}"), ns);
        if matches!(tag, "1k" | "100k") {
            let ns = drain_ns(&mut run, &mut sys);
            report(metrics, format!("arbitration/drain_ns_{tag}"), ns);
        }
    }
}

fn report(metrics: &mut BTreeMap<String, f64>, key: String, value: f64) {
    println!("{key:<38} {value:>14.1}");
    metrics.insert(key, value);
}

/// Fits each of [`EXPONENTS`] from the measured per-scale costs:
/// `ln(cost_large / cost_small) / ln(size ratio)`.
fn report_exponents(metrics: &mut BTreeMap<String, f64>) {
    for (key, stem, small, large, ratio) in EXPONENTS {
        let cost = |tag: &str| metrics[&format!("arbitration/{stem}_{tag}")];
        let e = (cost(large) / cost(small)).ln() / ratio.ln();
        report(metrics, format!("arbitration/{key}"), e);
    }
}

/// The structural gate, enforced in every mode: per-event arbitration
/// cost, admission cost and drain cost must each grow sub-linearly in the
/// size they are swept over.
fn assert_sublinear(metrics: &BTreeMap<String, f64>) -> Result<(), String> {
    let mut failures = Vec::new();
    for (key, ..) in EXPONENTS {
        let key = format!("arbitration/{key}");
        let e = metrics[&key];
        if !(e.is_finite() && e < SUBLINEAR_CEILING) {
            failures.push(format!(
                "{key}: exponent {e:.3} is not sub-linear (ceiling {SUBLINEAR_CEILING})"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Exponents carry the structural [`assert_sublinear`] gate, not the
/// relative-tolerance one: they sit near zero, where a relative band is
/// meaningless.
fn info_only(key: &str) -> bool {
    key.ends_with("_exponent")
}

fn measure() -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    bench_aqp(&mut metrics);
    bench_dlt(&mut metrics);
    bench_aqp_admit(&mut metrics);
    bench_dlt_admit(&mut metrics);
    report_exponents(&mut metrics);
    metrics
}

fn check(current: &BTreeMap<String, f64>, baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = json::num_map_from_json(&json::parse(&text)?)?;
    let mut failures = Vec::new();
    for (key, &base) in &baseline {
        if info_only(key) {
            continue;
        }
        let Some(&now) = current.get(key) else {
            failures.push(format!("{key}: present in baseline but not measured"));
            continue;
        };
        // All gated keys are ns timings: lower is better.
        if now > base * (1.0 + TOLERANCE) {
            failures.push(format!(
                "{key}: {now:.1} vs baseline {base:.1} (>{:.0}% regression)",
                TOLERANCE * 100.0
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "arbitration gate: all {} metrics within +{:.0}%",
            baseline.len(),
            TOLERANCE * 100.0
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("");
    let path = args.get(1).cloned().unwrap_or_else(|| BASELINE.to_string());

    let mut metrics = measure();
    if let Err(e) = assert_sublinear(&metrics) {
        // Structural failure: re-measure once (same courtesy as the
        // tolerance gate), then fail hard.
        eprintln!("arbitration gate: sub-linearity failed, re-measuring once:\n{e}");
        metrics = measure();
        if let Err(e) = assert_sublinear(&metrics) {
            eprintln!("arbitration gate FAILED (both passes):\n{e}");
            std::process::exit(1);
        }
    }

    match mode {
        "--write" => {
            let body = json::num_map_to_json(&metrics).to_pretty();
            std::fs::write(&path, body + "\n").expect("write baseline");
            println!("wrote {} metrics to {path}", metrics.len());
        }
        "--check" => {
            // One full re-measurement before failing: a transiently noisy
            // process should not fail the gate, while a real regression
            // fails both passes.
            if let Err(first) = check(&metrics, &path) {
                eprintln!("arbitration gate: first pass failed, re-measuring once:\n{first}");
                let retry = measure();
                if let Err(e) = assert_sublinear(&retry) {
                    eprintln!("arbitration gate FAILED (sub-linearity on retry):\n{e}");
                    std::process::exit(1);
                }
                if let Err(e) = check(&retry, &path) {
                    eprintln!("arbitration gate FAILED (both passes):\n{e}");
                    std::process::exit(1);
                }
            }
        }
        "" => {}
        other => {
            eprintln!("unknown mode {other}; use --write [path] or --check [path]");
            std::process::exit(2);
        }
    }
}
