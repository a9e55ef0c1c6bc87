//! Engine-throughput benchmark + regression gate.
//!
//! Measures batch-execution throughput (rows/sec) for one query per class:
//! the retired row-at-a-time oracle (`rowwise`, kept to quantify the
//! columnar speedup) and the sequential columnar engine (`seq`) — together
//! with the estimator-fit timings that bound arbitration overhead and the
//! advisory `recovery/*` fault-recovery cost metrics. Results go to
//! `BENCH_engine.json`. An advisory per-plan profile (all 22 plans: the
//! once-per-dataset verdict build in µs; at the workload's real batch size,
//! the epoch path's `ns/row` split into selection + projection and the
//! aggregate fold; rows kept; and the share of modelled probes an epoch
//! actually looks up) is printed after them and never gated.
//!
//! Modes:
//!
//! * (default)      — measure and print, no file I/O;
//! * `--write [p]`  — measure and (over)write the baseline file;
//! * `--check [p]`  — measure and compare against the baseline with a ±25%
//!   tolerance, exiting non-zero on regression (`ci.sh --bench`).
//!
//! `ROTARY_BENCH_SAMPLES=n` shrinks the sample count for smoke tests.

use std::collections::BTreeMap;
use std::time::Instant;

use rotary_bench::timing::{black_box, measure};
use rotary_core::estimate::wlr::{LinearFit, WeightedPoint};
use rotary_core::estimate::{CurveBasis, JointCurveEstimator};
use rotary_core::json;
use rotary_core::progress::Objective;
use rotary_dlt::{DltPolicy, DltSystem, DltSystemConfig, DltWorkloadBuilder};
use rotary_engine::{query, Executor, IndexCache, QueryId};
use rotary_faults::FaultPlan;
use rotary_tpch::{BatchSource, Generator};

/// Default baseline location (repo root, where `ci.sh` runs).
const BASELINE: &str = "BENCH_engine.json";

/// Relative slack when comparing against the baseline.
const TOLERANCE: f64 = 0.25;

fn bench_throughput(metrics: &mut BTreeMap<String, f64>) {
    let data = Generator::new(1, 0.005).generate();
    // One representative per class: q6 light (no joins), q3 medium
    // (2 joins), q7 heavy (5 joins incl. double nation).
    for qid in [6u8, 3, 7] {
        let plan = query(QueryId(qid));
        let mut cache = IndexCache::new();
        // Pre-warm the shared indexes and the plan's row verdicts (both
        // paid once per dataset) so the bench isolates per-batch cost.
        Executor::bind(&plan, &data, &mut cache).unwrap().row_verdicts();
        // One large shuffled batch.
        let rows: Vec<u32> = {
            let n = data.lineitem.rows();
            let mut src = BatchSource::new(3, n, n);
            src.next_batch().unwrap().to_vec()
        };
        let per_sec = |secs: f64| rows.len() as f64 / secs.max(1e-12);

        // The row-at-a-time oracle: the pre-columnar engine, kept so the
        // columnar speedup stays measurable as seq/rowwise.
        let mut exec = Executor::bind(&plan, &data, &mut cache).unwrap();
        let stats = measure(|| {
            black_box(exec.process_rows_rowwise(black_box(&rows)));
        });
        report(metrics, format!("q{qid}/rows_per_sec/rowwise"), per_sec(stats.min.as_secs_f64()));

        // The sequential columnar engine (the `process_rows` default path).
        let mut exec = Executor::bind(&plan, &data, &mut cache).unwrap();
        let stats = measure(|| {
            black_box(exec.process_rows(black_box(&rows)));
        });
        report(metrics, format!("q{qid}/rows_per_sec/seq"), per_sec(stats.min.as_secs_f64()));
    }
}

/// Advisory profile, printed only: per plan, the one-off verdict build scan
/// (paid once per dataset), then one shuffled scan in 1 % batches — the
/// size an arbitration epoch actually hands the engine — split into
/// survivor selection + projection and the `AggState::update` fold, so the
/// next engine idea starts from where the time is, per plan.
fn print_plan_profile() {
    let data = Generator::new(1, 0.005).generate();
    let mut cache = IndexCache::new();
    println!("epoch path, ns per scanned row:");
    println!(
        "{:<6} {:>9} {:>11} {:>9} {:>9} {:>16}",
        "plan", "build µs", "sel+proj", "update", "kept %", "lookups/probes %"
    );
    for q in QueryId::all() {
        let plan = query(q);
        let Ok(mut exec) = Executor::bind(&plan, &data, &mut cache) else {
            println!("{:<6} does not bind", plan.label);
            continue;
        };
        let n = exec.fact_rows();
        let started = Instant::now();
        let kept = exec.row_verdicts().kept();
        let build_us = started.elapsed().as_secs_f64() * 1e6;
        let batch = (n / 100).max(1);
        let order = BatchSource::new(3, n, n).next_batch().map(<[u32]>::to_vec).unwrap_or_default();
        let lookups = exec.probe_lookups(&order);
        let probes = exec.process_rows(&order).probes;
        let epochs = |exec: &mut Executor, fold: bool| {
            measure(|| {
                for rows in order.chunks(batch) {
                    black_box(if fold {
                        exec.process_rows(black_box(rows))
                    } else {
                        exec.project_rows(black_box(rows))
                    });
                }
            })
        };
        let ns_per_row = |secs: f64| secs * 1e9 / n as f64;
        let selected = ns_per_row(epochs(&mut exec, false).min.as_secs_f64());
        let folded = ns_per_row(epochs(&mut exec, true).min.as_secs_f64());
        let update = (folded - selected).max(0.0);
        let kept = 100.0 * kept as f64 / n as f64;
        let looked_up = match probes {
            0 => "-".to_string(),
            probes => format!("{:.1}", 100.0 * lookups as f64 / probes as f64),
        };
        println!(
            "{:<6} {build_us:>9.0} {selected:>11.2} {update:>9.2} {kept:>9.3} {looked_up:>16}",
            plan.label
        );
    }
}

fn bench_estimator_fits(metrics: &mut BTreeMap<String, f64>) {
    // Nanosecond-scale timings swing with CPU frequency states across
    // processes, so the raw `_ns` values are informational; the gate
    // compares the `_rel` ratios against a floating-point probe measured in
    // the same process, which cancels clock-speed differences.
    let probe = measure(|| {
        black_box((0..4096).fold(1.0f64, |a, i| a + black_box(i as f64).sqrt()));
    });
    let probe_ns = (probe.min.as_nanos() as f64).max(1.0);
    report(metrics, "estimator/probe_ns".into(), probe_ns);

    let points: Vec<WeightedPoint> =
        (0..64).map(|i| WeightedPoint::new(i as f64, 0.2 + 0.1 * i as f64, 1.0)).collect();
    let stats = measure(|| {
        black_box(LinearFit::fit(black_box(&points)).unwrap());
    });
    report(metrics, "estimator/wlr_fit64_ns".into(), stats.min.as_nanos() as f64);
    report(metrics, "estimator/wlr_fit64_rel".into(), stats.min.as_nanos() as f64 / probe_ns);

    let historical: Vec<(f64, f64)> =
        (0..100).map(|i| (i as f64, 0.2 + 0.15 * (1.0 + i as f64).ln())).collect();
    let mut est = JointCurveEstimator::new(CurveBasis::LogShifted, historical);
    for i in 0..10 {
        est.observe(i as f64, 0.2 + 0.15 * (1.0 + i as f64).ln());
    }
    let stats = measure(|| {
        black_box(est.solve_for_x(black_box(0.8)).unwrap());
    });
    report(metrics, "estimator/joint_solve_ns".into(), stats.min.as_nanos() as f64);
    report(metrics, "estimator/joint_solve_rel".into(), stats.min.as_nanos() as f64 / probe_ns);
}

/// Advisory recovery-overhead metrics (`recovery/*`, never gated): the
/// virtual-makespan cost of the default chaos profile on an 8-job DLT
/// workload, plus the fault volume behind it. Fully deterministic — these
/// track how expensive recovery *policy* is, not host speed.
fn bench_recovery(metrics: &mut BTreeMap<String, f64>) {
    let run = |faults: FaultPlan| {
        let specs = DltWorkloadBuilder::paper().jobs(8).seed(17).build();
        let mut sys =
            DltSystem::new(DltSystemConfig { seed: 17, threads: 1, faults, ..Default::default() });
        sys.prepopulate_history(&specs, 5);
        sys.run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5)))
    };
    let base = run(FaultPlan::none());
    let chaos = run(FaultPlan::chaos(17));
    let base_s = base.makespan.as_secs_f64();
    let chaos_s = chaos.makespan.as_secs_f64();
    report(metrics, "recovery/dlt_makespan_base_s".into(), base_s);
    report(metrics, "recovery/dlt_makespan_chaos_s".into(), chaos_s);
    report(metrics, "recovery/dlt_makespan_rel".into(), chaos_s / base_s.max(1e-9));
    report(metrics, "recovery/dlt_epochs_lost".into(), chaos.summary.epochs_lost as f64);
    report(metrics, "recovery/dlt_retries".into(), chaos.summary.retries as f64);
}

/// Advisory durable-snapshot metrics (`snapshot/*`, never gated): encode
/// and commit cost plus on-disk size for a representative record set (eight
/// 16 KB records, the order of a mid-run AQP/DLT snapshot). Host-time
/// measurements — tracked, not gated.
fn bench_snapshot(metrics: &mut BTreeMap<String, f64>) {
    use rotary_store::{encode, SnapshotStore};
    let records: Vec<(String, Vec<u8>)> =
        (0..8).map(|i| (format!("record-{i}"), vec![b'x'; 16 * 1024])).collect();
    let stats = measure(|| {
        black_box(encode(black_box(&records)).ok());
    });
    report(metrics, "snapshot/encode128k_ns".into(), stats.min.as_nanos() as f64);
    let bytes = encode(&records).map(|b| b.len()).unwrap_or(0);
    report(metrics, "snapshot/encoded_bytes".into(), bytes as f64);

    let dir = std::env::temp_dir().join(format!("rotary-bench-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let Ok(store) = SnapshotStore::open(&dir) else {
        eprintln!("snapshot bench: cannot open a store under {}; skipping", dir.display());
        return;
    };
    let stats = measure(|| {
        black_box(store.commit(1, black_box(&records), None).is_ok());
    });
    report(metrics, "snapshot/commit128k_ns".into(), stats.min.as_nanos() as f64);
    let _ = std::fs::remove_dir_all(&dir);
}

fn report(metrics: &mut BTreeMap<String, f64>, key: String, value: f64) {
    println!("{key:<34} {value:>14.1}");
    metrics.insert(key, value);
}

/// Lower-is-better metrics are timings/ratios; everything else is a
/// throughput.
fn lower_is_better(key: &str) -> bool {
    key.ends_with("_ns") || key.ends_with("_rel")
}

/// Raw nanosecond timings are informational only (see
/// [`bench_estimator_fits`]); their `_rel` ratios carry the gate. The
/// `recovery/*` family is advisory too: it reports fault-recovery cost in
/// virtual time, which shifts whenever the chaos profile or the recovery
/// policy is retuned — tracked, not gated. `snapshot/*` reports durable
/// snapshot store costs, which move with disk speed — also advisory.
fn info_only(key: &str) -> bool {
    key.ends_with("_ns") || key.starts_with("recovery/") || key.starts_with("snapshot/")
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
        let regressed = if lower_is_better(key) {
            now > base * (1.0 + TOLERANCE)
        } else {
            now < base * (1.0 - TOLERANCE)
        };
        if regressed {
            failures.push(format!(
                "{key}: {now:.1} vs baseline {base:.1} (>{:.0}% regression)",
                TOLERANCE * 100.0
            ));
        }
    }
    if failures.is_empty() {
        println!("bench gate: all {} metrics within ±{:.0}%", baseline.len(), TOLERANCE * 100.0);
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("");
    let path = args.get(1).cloned().unwrap_or_else(|| BASELINE.to_string());

    let mut metrics = BTreeMap::new();
    bench_throughput(&mut metrics);
    bench_estimator_fits(&mut metrics);
    bench_recovery(&mut metrics);
    bench_snapshot(&mut metrics);
    print_plan_profile();

    match mode {
        "--write" => {
            let body = json::num_map_to_json(&metrics).to_pretty();
            std::fs::write(&path, body + "\n").expect("write baseline");
            println!("wrote {} metrics to {path}", metrics.len());
        }
        "--check" => {
            // One full re-measurement before failing: a transiently noisy
            // process (CPU frequency transitions, co-tenant load) should not
            // fail the gate, while a real regression fails both passes.
            if let Err(first) = check(&metrics, &path) {
                eprintln!("bench gate: first pass failed, re-measuring once:\n{first}");
                let mut retry = BTreeMap::new();
                bench_throughput(&mut retry);
                bench_estimator_fits(&mut retry);
                bench_recovery(&mut retry);
                bench_snapshot(&mut retry);
                if let Err(e) = check(&retry, &path) {
                    eprintln!("bench gate FAILED (both passes):\n{e}");
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
