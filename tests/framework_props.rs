//! Property-based tests over the framework's cross-crate invariants.

use rotary::core::criteria::{CompletionCriterion, Deadline, Metric};
use rotary::core::estimate::{CurveBasis, EnvelopeDetector, JointCurveEstimator};
use rotary::core::parser::parse_criterion;
use rotary::core::progress::Progress;
use rotary::core::SimTime;
use rotary::tpch::BatchSource;
use rotary_check::{check, Source};

const METRICS: [Metric; 4] = [Metric::Accuracy, Metric::Loss, Metric::F1, Metric::Perplexity];

fn arb_metric(src: &mut Source) -> Metric {
    src.pick(&METRICS).clone()
}

fn arb_deadline(src: &mut Source) -> Deadline {
    if src.bool(0.5) {
        Deadline::Epochs(src.u64_in(1, 9_999))
    } else {
        Deadline::Time(SimTime::from_secs(src.u64_in(1, 99_999)))
    }
}

fn arb_criterion(src: &mut Source) -> CompletionCriterion {
    match src.usize_in(0, 2) {
        0 => {
            let metric = arb_metric(src);
            let t = src.f64_in(0.0, 1.0);
            // Ratio metrics carry thresholds in [0, 1]; others any value.
            let threshold = match metric {
                Metric::Accuracy | Metric::F1 => t,
                _ => t * 100.0,
            };
            CompletionCriterion::Accuracy { metric, threshold, deadline: arb_deadline(src) }
        }
        1 => CompletionCriterion::Convergence {
            metric: arb_metric(src),
            delta: src.f64_in(0.00001, 0.2),
            deadline: arb_deadline(src),
        },
        _ => CompletionCriterion::Runtime { runtime: arb_deadline(src) },
    }
}

/// Every criterion the model can express renders to text that parses
/// back to an equivalent criterion (round-trip through the DSL).
#[test]
fn criterion_display_parse_round_trip() {
    check("criterion_display_parse_round_trip", |src| {
        let c = arb_criterion(src);
        let text = c.to_string();
        let parsed =
            parse_criterion(&text).unwrap_or_else(|e| panic!("{text:?} failed to reparse: {e}"));
        // Time deadlines may re-render in a coarser unit; compare semantics.
        assert_eq!(parsed.kind_tag(), c.kind_tag());
        assert_eq!(parsed.metric(), c.metric());
    });
}

/// Progress is always clamped to the unit interval — for *any* f64 bit
/// pattern, including NaN and the infinities.
#[test]
fn progress_always_unit_interval() {
    check("progress_always_unit_interval", |src| {
        let v = src.any_f64();
        let p = Progress::new(v).value();
        assert!((0.0..=1.0).contains(&p), "Progress::new({v}) gave {p}");
    });
}

/// The envelope invariant p ≤ q holds for any observation stream, and
/// progress stays in [0, 1].
#[test]
fn envelope_p_le_q() {
    check("envelope_p_le_q", |src| {
        let values = src.vec_of(1, 199, |s| s.f64_in(-1e9, 1e9));
        let window = src.usize_in(1, 19);
        let mut env = EnvelopeDetector::new(window);
        for v in values {
            env.observe(v);
            let (p, q) = (env.least().unwrap(), env.largest().unwrap());
            assert!(p <= q);
            let prog = env.progress().unwrap();
            assert!((0.0..=1.0).contains(&prog));
        }
    });
}

/// The joint estimator recovers a noise-free line exactly, regardless
/// of how observations are split between history and real-time.
#[test]
fn joint_estimator_recovers_lines() {
    check("joint_estimator_recovers_lines", |src| {
        let intercept = src.f64_in(-10.0, 10.0);
        let slope = src.f64_in(0.1, 5.0);
        let split = src.usize_in(2, 17);
        let points: Vec<(f64, f64)> =
            (0..20).map(|i| (i as f64, intercept + slope * (1.0 + i as f64).ln())).collect();
        let (hist, realtime) = points.split_at(split);
        let mut est = JointCurveEstimator::new(CurveBasis::LogShifted, hist.to_vec());
        for &(x, y) in realtime {
            est.observe(x, y);
        }
        let predicted = est.predict(30.0).unwrap();
        let truth = intercept + slope * 31.0f64.ln();
        assert!((predicted - truth).abs() < 1e-6, "{predicted} vs {truth}");
    });
}

/// A batch source is a permutation: every row exactly once, any batch
/// size.
#[test]
fn batch_source_partitions() {
    check("batch_source_partitions", |src| {
        let rows = src.usize_in(0, 1999);
        let batch = src.usize_in(1, 255);
        let seed = src.raw();
        let mut bs = BatchSource::new(seed, rows, batch);
        let mut seen = vec![false; rows];
        while let Some(b) = bs.next_batch() {
            for &r in b {
                assert!(!seen[r as usize], "row {r} twice");
                seen[r as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(bs.is_exhausted());
    });
}

/// SimTime arithmetic never panics and stays ordered.
#[test]
fn simtime_arithmetic_total() {
    check("simtime_arithmetic_total", |src| {
        let a = src.u64_in(0, u64::MAX / 2 - 1);
        let b = src.u64_in(0, u64::MAX / 2 - 1);
        let ta = SimTime::from_millis(a);
        let tb = SimTime::from_millis(b);
        assert_eq!(ta + tb, tb + ta);
        assert!(ta + tb >= ta);
        assert!(ta.saturating_sub(tb) <= ta);
    });
}
