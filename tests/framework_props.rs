//! Property-based tests over the framework's cross-crate invariants.

use rotary::core::criteria::{CompletionCriterion, Deadline, Metric};
use rotary::core::estimate::{CurveBasis, EnvelopeDetector, JointCurveEstimator};
use rotary::core::job::JobId;
use rotary::core::parser::parse_criterion;
use rotary::core::progress::Progress;
use rotary::core::SimTime;
use rotary::sim::{PlacementSpan, WorkloadMetrics};
use rotary::tpch::{BatchSource, RowOrder};
use rotary_check::{check, Source};
use std::sync::Mutex;

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

/// Pearson's χ² statistic of `observed` counts against a uniform spread of
/// their total over the cells.
fn chi_square(observed: &[u32]) -> f64 {
    let expected = observed.iter().sum::<u32>() as f64 / observed.len() as f64;
    observed.iter().map(|&o| (o as f64 - expected).powi(2) / expected).sum()
}

/// A job's stream over its table's shared order is a uniform sample (the
/// P∘rot_b argument of DESIGN.md §5). Each case is one run over a 7-row
/// table: a run seed shuffles the order, a job seed draws the offset, and
/// the stream must serve every row once. Over the cases (256 by default,
/// pinned by `ci.sh`), the row served at positions 0, 3 and 6 must be
/// uniform over the 7 rows, and the first two rows uniform over the 42
/// ordered pairs: χ² below its p = 0.001 critical value (22.458 at 6
/// degrees of freedom, 74.745 at 41). With fewer than five expected
/// samples a pair cell (a lowered case count, or a one-case replay), the
/// χ² approximation does not hold and only the per-case check runs.
#[test]
fn shared_order_streams_are_uniform() {
    const ROWS: usize = 7;
    const POSITIONS: [usize; 3] = [0, 3, 6];
    // Per position, the count of each row served there; then the count of
    // each (first, second) pair, indexed first × ROWS + second.
    let counts = Mutex::new(([[0u32; ROWS]; 3], [0u32; ROWS * ROWS]));
    check("shared_order_streams_are_uniform", |src| {
        let order = RowOrder::shuffled(src.raw(), ROWS);
        let mut stream = BatchSource::at_offset(&order, src.raw(), src.usize_in(1, ROWS));
        let mut served = Vec::new();
        while let Some(batch) = stream.next_batch() {
            served.extend_from_slice(batch);
        }
        let mut sorted = served.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ROWS as u32).collect::<Vec<_>>(), "served {served:?}");
        let mut counts = counts.lock().unwrap();
        for (k, &pos) in POSITIONS.iter().enumerate() {
            counts.0[k][served[pos] as usize] += 1;
        }
        counts.1[served[0] as usize * ROWS + served[1] as usize] += 1;
    });
    let (positions, pairs) = counts.into_inner().unwrap();
    let cases = positions[0].iter().sum::<u32>();
    if (cases as usize) < 5 * ROWS * (ROWS - 1) {
        return;
    }
    for (pos, observed) in POSITIONS.iter().zip(&positions) {
        let chi2 = chi_square(observed);
        assert!(chi2 < 22.458, "row at position {pos}: χ² {chi2:.2} over {observed:?}");
    }
    // Cell first × ROWS + second: the diagonal is a row served twice.
    let twice = |cell: usize| cell / ROWS == cell % ROWS;
    assert!(pairs.iter().enumerate().all(|(cell, &n)| !twice(cell) || n == 0));
    let distinct: Vec<u32> =
        pairs.iter().enumerate().filter(|&(cell, _)| !twice(cell)).map(|(_, &n)| n).collect();
    let chi2 = chi_square(&distinct);
    assert!(chi2 < 74.745, "first two rows: χ² {chi2:.2} over {distinct:?}");
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

/// One step of a progress trace's life in a run.
enum TraceOp {
    /// A row from candidate `(job, φ)` pairs (a superset of what moved).
    Row(Vec<(JobId, f64)>),
    Span(PlacementSpan),
    /// A fault fired against the job: one of its recovery counters grows.
    Touch(JobId, usize),
}

fn arb_trace_op(src: &mut Source, jobs: u64, start: u64) -> TraceOp {
    let job = |src: &mut Source| JobId(src.u64_in(0, jobs - 1));
    match src.usize_in(0, 5) {
        0..=2 => TraceOp::Row(src.vec_of(0, 2 * jobs as usize, |s| {
            // A small palette, so rows often repeat what the trace holds.
            // φ stays in [0, 1]: JSON writes −0 as 0.
            let phi = if s.bool(0.5) { *s.pick(&[0.0, 0.5, 1.0]) } else { s.unit_f64() };
            (job(s), phi)
        })),
        3 | 4 => TraceOp::Span(PlacementSpan {
            job: job(src),
            resource: src.pick(&["cpu", "gpu0", "gpu\"1"]).to_string(),
            start: SimTime::from_millis(start),
            end: SimTime::from_millis(start + src.u64_in(0, 5_000)),
            attained_at_end: src.bool(0.3),
        }),
        _ => TraceOp::Touch(job(src), src.usize_in(0, 5)),
    }
}

fn apply_trace_op(m: &mut WorkloadMetrics, op: &TraceOp, at: SimTime) {
    match op {
        TraceOp::Row(candidates) => m.record_snapshot_sparse(at, candidates),
        TraceOp::Span(span) => m.record_span(span.clone()),
        TraceOp::Touch(job, counter) => {
            let c = m.recovery_of(*job);
            *[
                &mut c.crashes,
                &mut c.stragglers,
                &mut c.checkpoint_failures,
                &mut c.restore_failures,
                &mut c.retries,
                &mut c.epochs_lost,
            ][*counter] += 1;
        }
    }
}

fn same_trace(a: &WorkloadMetrics, b: &WorkloadMetrics) {
    assert_eq!(a.snapshots(), b.snapshots());
    assert_eq!(a.spans(), b.spans());
    assert_eq!(a.recovery(), b.recovery());
}

/// A trace reloads from the text a durable snapshot stores of it
/// (`to_compact`: full rows and delta rows as they are stored) to the same
/// trace, and the reload goes on exactly as the original: the same next
/// rows, spans and recovery touches give byte-identical snapshot text and
/// the same dense export. The dense export loads to the same trace too.
/// Traces are built through every path a run takes — sparse rows, spans,
/// recovery touches, clones, and reloads from either text; a reload from
/// the dense export stores every row full, as a snapshot written before
/// rows were stored as deltas does — with the snapshot memo warmed at
/// random points.
#[test]
fn a_trace_reloads_from_its_snapshot_text() {
    check("trace_reloads_from_snapshot_text", |src| {
        let jobs = src.u64_in(1, 6);
        let mut m = WorkloadMetrics::new();
        let mut at = 0;
        for _ in 0..src.usize_in(0, 24) {
            at += src.u64_in(0, 3) * 500;
            match src.usize_in(0, 9) {
                0 => m = m.clone(),
                1 => m = WorkloadMetrics::from_json(&m.to_compact()).unwrap(),
                2 => m = WorkloadMetrics::from_json(&m.to_json().unwrap()).unwrap(),
                3 => {
                    m.to_compact();
                }
                _ => apply_trace_op(&mut m, &arb_trace_op(src, jobs, at), SimTime::from_millis(at)),
            }
        }

        let text = m.to_compact();
        let mut reloaded = WorkloadMetrics::from_json(&text).unwrap();
        same_trace(&reloaded, &m);
        assert_eq!(reloaded.to_compact(), text);
        same_trace(&WorkloadMetrics::from_json(&m.to_json().unwrap()).unwrap(), &m);

        for _ in 0..src.usize_in(1, 8) {
            at += src.u64_in(0, 3) * 500;
            let op = arb_trace_op(src, jobs, at);
            apply_trace_op(&mut m, &op, SimTime::from_millis(at));
            apply_trace_op(&mut reloaded, &op, SimTime::from_millis(at));
            assert_eq!(reloaded.to_compact(), m.to_compact());
        }
        assert_eq!(reloaded.to_json().unwrap(), m.to_json().unwrap());
        same_trace(&WorkloadMetrics::from_json(&m.to_compact()).unwrap(), &m);
    });
}
