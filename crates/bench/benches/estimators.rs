//! Microbenchmarks of the estimation hot paths: weighted linear regression,
//! joint historical+real-time fitting, envelope updates, and top-k
//! similarity search — bare, and as the estimator builders every admission
//! runs against a populated history repository. These run on every
//! arbitration round or bind, so their cost is the framework's overhead
//! budget (Table III).

use rotary_aqp::{build_estimator, AqpSystem, AqpSystemConfig, QueryFeatures};
use rotary_bench::timing::{bench, black_box};
use rotary_core::estimate::similarity::{scalar_similarity, top_k_by};
use rotary_core::estimate::wlr::{LinearFit, WeightedPoint};
use rotary_core::estimate::{CurveBasis, EnvelopeDetector, JointCurveEstimator};
use rotary_core::history::{HistoryRepository, JobRecord};
use rotary_dlt::{
    build_tee, DltJobSpec, DltSystem, DltSystemConfig, DltWorkloadBuilder, Tme, TrainingConfig,
};
use rotary_engine::{query, QueryId};
use rotary_tpch::Generator;

fn bench_wlr() {
    for n in [16usize, 64, 256] {
        let points: Vec<WeightedPoint> =
            (0..n).map(|i| WeightedPoint::new(i as f64, 0.2 + 0.1 * i as f64, 1.0)).collect();
        bench(&format!("wlr_fit/{n}"), || {
            black_box(LinearFit::fit(black_box(&points)).unwrap());
        });
    }
}

fn bench_joint_estimator() {
    let historical: Vec<(f64, f64)> =
        (0..100).map(|i| (i as f64, 0.2 + 0.15 * (1.0 + i as f64).ln())).collect();
    let mut est = JointCurveEstimator::new(CurveBasis::LogShifted, historical);
    for i in 0..10 {
        est.observe(i as f64, 0.2 + 0.15 * (1.0 + i as f64).ln());
    }
    bench("joint_estimator_predict", || {
        black_box(est.predict(black_box(42.0)).unwrap());
    });
    bench("joint_estimator_solve", || {
        black_box(est.solve_for_x(black_box(0.8)).unwrap());
    });
}

fn bench_envelope() {
    let mut env = EnvelopeDetector::new(5);
    let mut x = 0.0f64;
    bench("envelope_observe_and_progress", || {
        x += 1.0;
        env.observe(black_box(100.0 - 50.0 / (1.0 + x)));
        black_box(env.progress());
    });
}

fn bench_top_k() {
    for n in [22usize, 220, 2200] {
        let sizes: Vec<f64> = (0..n).map(|i| (i % 140) as f64 + 1.0).collect();
        bench(&format!("top_k_by/{n}"), || {
            black_box(top_k_by(black_box(&sizes), 5, |&s| scalar_similarity(42.0, s)));
        });
    }
}

/// TEE and TME against the Table II workload's own history at two sizes:
/// the cost follows the feature classes (at most 2120 for this workload)
/// whose bucket can still reach the top k, not the records. Each line is
/// followed by that count — rows scored per call, mean over one pass of
/// the workload's own jobs — which reads no clock.
fn bench_dlt_estimators() {
    for n in [2_000usize, 20_000] {
        let specs = DltWorkloadBuilder::paper().jobs(n).seed(33).build();
        let mut sys = DltSystem::new(DltSystemConfig::default());
        sys.prepopulate_history(&specs, 33);
        let history = sys.history_mut();
        let classes = history.class_count();
        let mut targets = specs.iter().cycle();
        bench(&format!("build_tee/{n}_records_{classes}_classes"), || {
            let config = &targets.next().expect("cycle never ends").config;
            black_box(build_tee(black_box(config), history, 5));
        });
        print_rows_scored(history, &specs, |config, history| {
            black_box(build_tee(config, history, 5));
        });
        let tme = Tme::default();
        bench(&format!("tme_estimate_mb/{n}_records_{classes}_classes"), || {
            let config = &targets.next().expect("cycle never ends").config;
            black_box(tme.estimate_mb(black_box(config), history));
        });
        print_rows_scored(history, &specs, |config, history| {
            black_box(tme.estimate_mb(config, history));
        });
    }
}

/// Prints the rows `query` scores per call, the mean over one call per
/// spec: a count, not a timing.
fn print_rows_scored(
    history: &mut HistoryRepository,
    specs: &[DltJobSpec],
    mut query: impl FnMut(&TrainingConfig, &mut HistoryRepository),
) {
    let before = history.rows_scored();
    for spec in specs {
        query(&spec.config, history);
    }
    let per_call = (history.rows_scored() - before) as f64 / specs.len() as f64;
    let classes = history.class_count();
    println!("{:<40} {per_call:.1} of {classes} classes", "  rows scored per call");
}

/// The AQP estimator against the 22 query records archived round-robin.
fn bench_aqp_estimator() {
    let data = Generator::new(1, 0.0005).generate();
    let mut sys = AqpSystem::new(&data, AqpSystemConfig::default());
    sys.prepopulate_history(33).expect("built-in plans bind");
    let queries: Vec<JobRecord> = sys.history().iter().cloned().collect();
    let own = QueryFeatures::of(&query(QueryId(5)), sys.memory_estimate(QueryId(5)));
    for n in [22usize, 2_200] {
        let mut history = HistoryRepository::new();
        for record in queries.iter().cycle().take(n) {
            history.insert(record.clone());
        }
        bench(&format!("build_estimator/{n}_records_22_classes"), || {
            black_box(build_estimator(black_box(&own), &mut history, 3));
        });
    }
}

fn main() {
    bench_wlr();
    bench_joint_estimator();
    bench_envelope();
    bench_top_k();
    bench_dlt_estimators();
    bench_aqp_estimator();
}
