//! Property-based tests of the framework core: regression invariances,
//! criteria coherence, and similarity-order properties.

use rotary_check::check;
use rotary_core::criteria::{CompletionCriterion, CriterionCheck, Deadline, Metric};
use rotary_core::estimate::similarity::{scalar_similarity, top_k_by};
use rotary_core::estimate::wlr::{LinearFit, WeightedPoint};
use rotary_core::history::{ClassRow, HistoryRepository, JobRecord};
use rotary_core::job::{IntermediateState, JobKind};
use rotary_core::SimTime;
use std::collections::BTreeMap;

/// Scaling every weight by the same positive constant leaves the fit
/// unchanged (weights are relative).
#[test]
fn wlr_weight_scale_invariance() {
    check("wlr_weight_scale_invariance", |src| {
        let points = src.vec_of(3, 39, |s| {
            (s.f64_in(-100.0, 100.0), s.f64_in(-100.0, 100.0), s.f64_in(0.1, 10.0))
        });
        let scale = src.f64_in(0.01, 100.0);
        let base: Vec<WeightedPoint> =
            points.iter().map(|&(x, y, w)| WeightedPoint::new(x, y, w)).collect();
        let scaled: Vec<WeightedPoint> =
            points.iter().map(|&(x, y, w)| WeightedPoint::new(x, y, w * scale)).collect();
        match (LinearFit::fit(&base), LinearFit::fit(&scaled)) {
            (Ok(a), Ok(b)) => {
                assert!((a.slope - b.slope).abs() < 1e-6 * a.slope.abs().max(1.0));
                assert!((a.intercept - b.intercept).abs() < 1e-6 * a.intercept.abs().max(1.0));
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("fit feasibility diverged: {a:?} vs {b:?}"),
        }
    });
}

/// Shifting x by a constant shifts only the intercept: slope invariant.
#[test]
fn wlr_translation_invariance() {
    check("wlr_translation_invariance", |src| {
        let points = src.vec_of(3, 29, |s| (s.f64_in(-50.0, 50.0), s.f64_in(-50.0, 50.0)));
        let dx = src.f64_in(-100.0, 100.0);
        let base: Vec<WeightedPoint> =
            points.iter().map(|&(x, y)| WeightedPoint::new(x, y, 1.0)).collect();
        let shifted: Vec<WeightedPoint> =
            points.iter().map(|&(x, y)| WeightedPoint::new(x + dx, y, 1.0)).collect();
        if let (Ok(a), Ok(b)) = (LinearFit::fit(&base), LinearFit::fit(&shifted)) {
            assert!(
                (a.slope - b.slope).abs() < 1e-6 * a.slope.abs().max(1.0),
                "slope changed under translation: {} vs {}",
                a.slope,
                b.slope
            );
        }
    });
}

/// The residual-orthogonality property of weighted least squares:
/// Σ wᵢ rᵢ = 0 and Σ wᵢ rᵢ xᵢ = 0.
#[test]
fn wlr_residuals_are_weight_orthogonal() {
    check("wlr_residuals_are_weight_orthogonal", |src| {
        let points = src
            .vec_of(3, 29, |s| (s.f64_in(-50.0, 50.0), s.f64_in(-50.0, 50.0), s.f64_in(0.1, 5.0)));
        let pts: Vec<WeightedPoint> =
            points.iter().map(|&(x, y, w)| WeightedPoint::new(x, y, w)).collect();
        if let Ok(fit) = LinearFit::fit(&pts) {
            let r0: f64 = pts.iter().map(|p| p.weight * (p.y - fit.predict(p.x))).sum();
            let r1: f64 = pts.iter().map(|p| p.weight * p.x * (p.y - fit.predict(p.x))).sum();
            let scale: f64 = pts.iter().map(|p| p.weight * p.y.abs()).sum::<f64>().max(1.0);
            assert!(r0.abs() < 1e-7 * scale, "Σwr = {r0}");
            assert!(r1.abs() < 1e-5 * scale * 100.0, "Σwrx = {r1}");
        }
    });
}

/// Criterion coherence: an accuracy criterion that reports `Attained`
/// really has metric ≥ threshold (higher-is-better) or ≤ (lower), and
/// `DeadlineMissed` really is past the deadline.
#[test]
fn accuracy_criterion_coherent() {
    check("accuracy_criterion_coherent", |src| {
        let threshold = src.f64_in(0.0, 1.0);
        let value = src.f64_in(0.0, 1.5);
        let deadline_s = src.u64_in(1, 9_999);
        let elapsed_s = src.u64_in(0, 19_999);
        let higher = src.bool(0.5);
        let metric = if higher { Metric::Accuracy } else { Metric::Loss };
        let c = CompletionCriterion::Accuracy {
            metric: metric.clone(),
            threshold,
            deadline: Deadline::Time(SimTime::from_secs(deadline_s)),
        };
        let state = IntermediateState {
            epoch: 1,
            at: SimTime::from_secs(elapsed_s),
            metric_value: value,
            progress: 0.0,
        };
        match c.check(&state, None, SimTime::from_secs(elapsed_s)) {
            CriterionCheck::Attained => {
                if higher {
                    assert!(value >= threshold);
                } else {
                    assert!(value <= threshold);
                }
            }
            CriterionCheck::DeadlineMissed => {
                assert!(elapsed_s >= deadline_s);
                if higher {
                    assert!(value < threshold);
                } else {
                    assert!(value > threshold);
                }
            }
            CriterionCheck::Continue => {
                assert!(elapsed_s < deadline_s);
            }
        }
    });
}

/// Convergence attainment implies the observed delta was within bounds.
#[test]
fn convergence_criterion_coherent() {
    check("convergence_criterion_coherent", |src| {
        let delta = src.f64_in(0.0001, 0.2);
        let prev_v = src.f64_in(0.0, 1.0);
        let curr_v = src.f64_in(0.0, 1.0);
        let epoch = src.u64_in(2, 99);
        let max_epochs = src.u64_in(2, 99);
        let c = CompletionCriterion::Convergence {
            metric: Metric::Accuracy,
            delta,
            deadline: Deadline::Epochs(max_epochs),
        };
        let prev = IntermediateState {
            epoch: epoch - 1,
            at: SimTime::ZERO,
            metric_value: prev_v,
            progress: 0.0,
        };
        let curr =
            IntermediateState { epoch, at: SimTime::ZERO, metric_value: curr_v, progress: 0.0 };
        if c.check(&curr, Some(&prev), SimTime::ZERO) == CriterionCheck::Attained {
            assert!((curr_v - prev_v).abs() <= delta);
        }
    });
}

/// scalar_similarity is symmetric, bounded, and 1 iff equal (positives).
#[test]
fn similarity_axioms() {
    check("similarity_axioms", |src| {
        let x = src.f64_in(0.001, 1e9);
        let y = src.f64_in(0.001, 1e9);
        let s = scalar_similarity(x, y);
        assert!((0.0..=1.0).contains(&s));
        assert!((s - scalar_similarity(y, x)).abs() < 1e-12);
        if (x - y).abs() < 1e-15 {
            assert!((s - 1.0).abs() < 1e-12);
        }
    });
}

/// top_k returns scores in non-increasing order and at most k items.
#[test]
fn top_k_sorted_and_bounded() {
    check("top_k_sorted_and_bounded", |src| {
        let items = src.vec_of(0, 49, |s| s.f64_in(0.0, 1e6));
        let k = src.usize_in(0, 19);
        let picked = top_k_by(&items, k, |&x| scalar_similarity(500.0, x));
        assert!(picked.len() <= k.min(items.len()));
        for pair in picked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    });
}

/// The bucketed, bounded top-k of the history repository equals the linear
/// reference (`top_k_by` over every record of the kind) in members, order
/// and score bits, across duplicate classes, tied, NaN and ±0.0 scores,
/// every bucketing with honest bounds (NaN buckets, bounds tied exactly
/// with scores, a zero bound of the other sign, one `+∞` bucket), k = 0
/// and k past the record count, removals, clones and JSON round-trips.
#[test]
fn indexed_top_k_equals_the_linear_scan() {
    /// What the score reads of a record — a pure function of the
    /// class-defining fields — filed under bucketing `B`: 0 puts every
    /// class in one bucket, 1 files each distinct score under its own, 2
    /// groups classes by tag count alone.
    #[derive(Clone, Copy)]
    struct Row<const B: u8> {
        poisoned: bool,
        tags: usize,
        x: f64,
    }
    impl<const B: u8> ClassRow for Row<B> {
        type Bucket = (bool, usize, u64);
        fn bucket(&self) -> Self::Bucket {
            match B {
                0 => (false, 0, 0),
                1 => (self.poisoned, self.tags, self.x.to_bits()),
                _ => (self.poisoned, self.tags, 0),
            }
        }
    }
    fn row<const B: u8>(r: &JobRecord) -> Row<B> {
        Row { poisoned: r.label == "nan", tags: r.tags.len(), x: r.feature("x").unwrap_or(7.0) }
    }
    /// Few distinct values, so ties are the common case; `x = -0.0`
    /// scores `-0.0`, which ties `+0.0`.
    fn score<const B: u8>(query: f64, r: Row<B>) -> f64 {
        if r.poisoned {
            return f64::NAN;
        }
        r.x * query - r.tags as f64 * 0.5
    }
    /// The least honest bound of each bucketing, for `query ≥ 0`: exact
    /// for bucketing 1, with the sign of a zero flipped when `flip` (equal
    /// under `<=`, so still a bound); `x ≤ 7` for bucketing 2.
    fn bound<const B: u8>(
        query: f64,
        flip: bool,
        &(poisoned, tags, x): &(bool, usize, u64),
    ) -> f64 {
        if B == 0 {
            return f64::INFINITY;
        }
        if poisoned {
            return f64::NAN;
        }
        let x = if B == 1 { f64::from_bits(x) } else { 7.0 };
        let exact = score::<B>(query, Row { poisoned, tags, x });
        if flip && exact == 0.0 {
            -exact
        } else {
            exact
        }
    }

    check("indexed_top_k_equals_the_linear_scan", |src| {
        let mut repo = HistoryRepository::new();
        for _ in 0..src.usize_in(1, 60) {
            match src.usize_in(0, 9) {
                0 => {
                    let doomed = *src.pick(&["a", "b", "nan"]);
                    repo.remove_where(|r| r.label == doomed);
                }
                1 => {
                    let json = repo.to_json().expect("to_json");
                    repo = HistoryRepository::from_json(&json).expect("from_json");
                }
                2 => repo = repo.clone(),
                _ => {
                    let x = *src.pick(&[-0.0, 0.0, 1.0, 2.0]);
                    let features = if src.bool(0.9) {
                        BTreeMap::from([("x".to_string(), x)])
                    } else {
                        BTreeMap::new()
                    };
                    repo.insert(JobRecord {
                        kind: *src.pick(&[JobKind::Aqp, JobKind::Dlt]),
                        label: src.pick(&["a", "b", "nan"]).to_string(),
                        tags: vec!["t".to_string(); src.usize_in(0, 2)],
                        numeric_features: features,
                        // Not class-defining: members of a class differ here.
                        curve: vec![(1.0, src.unit_f64())],
                        final_metric: src.unit_f64(),
                        epochs: src.u64_in(0, 9),
                    });
                }
            }

            let kind = *src.pick(&[JobKind::Aqp, JobKind::Dlt]);
            let k = *src.pick(&[0, 1, 2, 3, 5, 8, 1000, usize::MAX]);
            let query = *src.pick(&[0.0, 1.0, 2.5]);
            let flip = src.bool(0.5);
            let all: Vec<&JobRecord> = repo.of_kind(kind).collect();
            let expected: Vec<(*const JobRecord, u64)> =
                top_k_by(&all, k, |r| score(query, row::<0>(r)))
                    .into_iter()
                    .map(|(r, s)| (std::ptr::from_ref(*r), s.to_bits()))
                    .collect();
            let identity = |picked: Vec<(&JobRecord, f64)>| -> Vec<(*const JobRecord, u64)> {
                picked.into_iter().map(|(r, s)| (std::ptr::from_ref(r), s.to_bits())).collect()
            };
            let picked = match src.usize_in(0, 2) {
                0 => repo.top_k_rows(
                    kind,
                    k,
                    row::<0>,
                    |b| bound::<0>(query, flip, b),
                    |&r| score(query, r),
                ),
                1 => repo.top_k_rows(
                    kind,
                    k,
                    row::<1>,
                    |b| bound::<1>(query, flip, b),
                    |&r| score(query, r),
                ),
                _ => repo.top_k_rows(
                    kind,
                    k,
                    row::<2>,
                    |b| bound::<2>(query, flip, b),
                    |&r| score(query, r),
                ),
            };
            assert_eq!(identity(picked), expected, "k = {k}, query = {query}");
        }
    });
}
