//! Joint historical + real-time curve fitting (paper §IV-A and §IV-B).
//!
//! Both Rotary-AQP's accuracy-progress estimator and Rotary-DLT's training
//! epoch estimator (TEE) fit a curve through two data sources:
//!
//! * **historical** points, extracted from the top-k most similar completed
//!   jobs in the repository — these bootstrap the first estimate (avoiding
//!   the cold-start problem the paper criticises ReLAQS for);
//! * **real-time** points recorded from the running job itself.
//!
//! The paper's weighting rule: *"each recorded real-time result and the
//! combination of all the historical data will share equal weight"* — with
//! `r` real-time points, each real-time point gets weight `1/(r+1)` and the
//! historical points share the remaining `1/(r+1)` equally. With zero
//! real-time points the historical data carries everything.
//!
//! Progress curves exhibit diminishing returns (Fig. 1), so a straight line
//! in `(x, y)` space is a poor model. The estimator therefore fits the line
//! in a transformed basis chosen by the caller: `y = a + b·ln(1+x)` captures
//! the concave saturating shape while remaining a *weighted linear
//! regression* exactly as the paper prescribes.

use super::wlr::{LinearFit, WeightedPoint, WlrStats};
use crate::error::Result;
use crate::json::Json;

/// The x-axis transformation under the linear fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CurveBasis {
    /// `y = a + b·x` — plain line (used for batch-size→memory, which is
    /// genuinely affine: activations scale linearly with batch size on top
    /// of a fixed parameter footprint).
    Linear,
    /// `y = a + b·ln(1+x)` — concave saturating curve (progress-vs-runtime,
    /// accuracy-vs-epoch).
    #[default]
    LogShifted,
}

impl CurveBasis {
    /// Applies the basis transform to a raw x value.
    pub fn transform(self, x: f64) -> f64 {
        match self {
            CurveBasis::Linear => x,
            CurveBasis::LogShifted => (1.0 + x.max(0.0)).ln(),
        }
    }

    /// Inverts the basis transform.
    pub fn invert(self, t: f64) -> f64 {
        match self {
            CurveBasis::Linear => t,
            CurveBasis::LogShifted => t.exp() - 1.0,
        }
    }

    /// Stable name used by durable snapshots.
    pub fn name(self) -> &'static str {
        match self {
            CurveBasis::Linear => "linear",
            CurveBasis::LogShifted => "log-shifted",
        }
    }

    /// Inverse of [`CurveBasis::name`].
    pub fn from_name(name: &str) -> Option<CurveBasis> {
        match name {
            "linear" => Some(CurveBasis::Linear),
            "log-shifted" => Some(CurveBasis::LogShifted),
            _ => None,
        }
    }
}

fn points_json(points: &[(f64, f64)]) -> Json {
    Json::Arr(points.iter().map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)])).collect())
}

fn points_from(doc: &Json) -> Option<Vec<(f64, f64)>> {
    let mut out = Vec::new();
    for p in doc.as_arr()? {
        let pair = p.as_arr()?;
        if pair.len() != 2 {
            return None;
        }
        out.push((pair.first()?.as_f64()?, pair.get(1)?.as_f64()?));
    }
    Some(out)
}

/// Fits `y = f(x)` through historical and real-time observations with the
/// paper's equal-share weighting.
///
/// The fit is maintained *incrementally*: the equal-share weights (each of
/// `r` real-time points at `1/(r+1)`, the historical block sharing the last
/// `1/(r+1)`) are globally proportional to the fixed per-point weights
/// "historical `1/h` each, real-time `1` each" — and a weighted
/// least-squares line is invariant under scaling every weight by the same
/// factor. So the estimator folds each point into [`WlrStats`] once, at
/// construction or [`observe`](Self::observe) time, and [`fit`](Self::fit)
/// solves from the accumulated moments in O(1) instead of re-reading all
/// `h + r` points. [`fit_dense`](Self::fit_dense) keeps the original
/// full-pass solve as the oracle the property suite compares against.
#[derive(Debug, Clone)]
pub struct JointCurveEstimator {
    basis: CurveBasis,
    historical: Vec<(f64, f64)>,
    realtime: Vec<(f64, f64)>,
    stats: WlrStats,
}

impl JointCurveEstimator {
    /// Creates an estimator with the given basis and historical points
    /// (possibly empty — the estimator then needs ≥ 2 real-time points
    /// before it can predict).
    pub fn new(basis: CurveBasis, mut historical: Vec<(f64, f64)>) -> Self {
        // Repositories populated under fault injection may carry poisoned
        // entries; a single NaN here would make every later fit unusable.
        historical.retain(|&(x, y)| x.is_finite() && y.is_finite());
        let mut stats = WlrStats::new();
        if !historical.is_empty() {
            let each = 1.0 / historical.len() as f64;
            for &(x, y) in &historical {
                // Finite by the retain above, positive finite weight: add
                // cannot fail.
                let _ = stats.add(basis.transform(x), y, each);
            }
        }
        JointCurveEstimator { basis, historical, realtime: Vec::new(), stats }
    }

    /// Records a real-time observation from the running job.
    ///
    /// Non-finite observations (a crashed epoch reporting NaN progress, an
    /// overflowed runtime) are dropped rather than stored: one poisoned point
    /// would otherwise turn every subsequent fit into NaN. The remaining
    /// points simply re-share the weight — skip-and-reweight, never panic.
    pub fn observe(&mut self, x: f64, y: f64) {
        if !(x.is_finite() && y.is_finite()) {
            return;
        }
        self.realtime.push((x, y));
        // Finite by the guard above: add cannot fail.
        let _ = self.stats.add(self.basis.transform(x), y, 1.0);
    }

    /// Durable-snapshot form: the basis and both point sets. The fitted
    /// moments are not stored — [`JointCurveEstimator::from_json`] re-folds
    /// the points in their original order, which reproduces them bit for bit.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("basis", Json::Str(self.basis.name().to_string())),
            ("historical", points_json(&self.historical)),
            ("realtime", points_json(&self.realtime)),
        ])
    }

    /// Rebuilds an estimator written by [`JointCurveEstimator::to_json`];
    /// `None` on any structural damage.
    pub fn from_json(doc: &Json) -> Option<JointCurveEstimator> {
        let basis = CurveBasis::from_name(doc.get("basis")?.as_str()?)?;
        let mut estimator = JointCurveEstimator::new(basis, points_from(doc.get("historical")?)?);
        for (x, y) in points_from(doc.get("realtime")?)? {
            estimator.observe(x, y);
        }
        Some(estimator)
    }

    /// Number of real-time observations recorded so far.
    pub fn realtime_len(&self) -> usize {
        self.realtime.len()
    }

    /// The basis the estimator fits in. Captured by durable snapshots.
    pub fn basis(&self) -> CurveBasis {
        self.basis
    }

    /// The historical points backing the estimator, post-filtering. Captured
    /// by durable snapshots so a restored estimator fits identical curves.
    pub fn historical_points(&self) -> &[(f64, f64)] {
        &self.historical
    }

    /// The real-time observations recorded so far, in observation order.
    /// Captured by durable snapshots.
    pub fn realtime_points(&self) -> &[(f64, f64)] {
        &self.realtime
    }

    /// Number of historical points backing the estimator.
    pub fn historical_len(&self) -> usize {
        self.historical.len()
    }

    /// The weight granted to *each* real-time point (and to the historical
    /// combination as a whole): `1/(r+1)` for `r` real-time points, or 1.0
    /// when only historical data exists.
    pub fn realtime_weight(&self) -> f64 {
        1.0 / (self.realtime.len() as f64 + 1.0)
    }

    /// Assembles the weighted point set in the transformed basis.
    fn weighted_points(&self) -> Vec<WeightedPoint> {
        let r = self.realtime.len();
        let h = self.historical.len();
        let mut points = Vec::with_capacity(r + h);
        if h > 0 {
            // The historical *combination* gets one share, split equally.
            let share = if r == 0 { 1.0 } else { 1.0 / (r as f64 + 1.0) };
            let each = share / h as f64;
            points.extend(
                self.historical
                    .iter()
                    .map(|&(x, y)| WeightedPoint::new(self.basis.transform(x), y, each)),
            );
        }
        if r > 0 {
            let each = if h == 0 { 1.0 } else { 1.0 / (r as f64 + 1.0) };
            points.extend(
                self.realtime
                    .iter()
                    .map(|&(x, y)| WeightedPoint::new(self.basis.transform(x), y, each)),
            );
        }
        points
    }

    /// Fits the current curve. Errors when fewer than two usable points
    /// exist (distinct x after transformation).
    ///
    /// O(1): solves from the incrementally maintained moments rather than
    /// re-reading the point set. Numerically this is the raw-moment solve of
    /// the same weighted least-squares problem as [`fit_dense`](Self::fit_dense)
    /// (up to the global weight scale, which cancels), so the two agree to
    /// fitting precision but not bit-for-bit.
    pub fn fit(&self) -> Result<FittedCurve> {
        let fit = self.stats.fit()?;
        Ok(FittedCurve { basis: self.basis, fit })
    }

    /// The original full-pass fit over the materialized equal-share point
    /// set. Kept as the oracle for the control-plane property suite; the
    /// production path is the O(1) [`fit`](Self::fit).
    pub fn fit_dense(&self) -> Result<FittedCurve> {
        let fit = LinearFit::fit(&self.weighted_points())?;
        Ok(FittedCurve { basis: self.basis, fit })
    }

    /// Predicts `ŷ` at raw `x` (fitting on demand).
    pub fn predict(&self, x: f64) -> Result<f64> {
        Ok(self.fit()?.predict(x))
    }

    /// Solves for the raw `x` at which the curve reaches `y` (e.g. "how many
    /// epochs until accuracy 0.9"). `Err` when no data; `Ok(None)` when the
    /// curve is flat or moving away from the target — the paper's erroneous-
    /// estimation scenario (Fig. 11b) emerges naturally from this path.
    pub fn solve_for_x(&self, y: f64) -> Result<Option<f64>> {
        let curve = self.fit()?;
        Ok(curve.solve_for_x(y))
    }
}

/// An immutable fitted curve: the basis plus the line in transformed space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedCurve {
    basis: CurveBasis,
    fit: LinearFit,
}

impl FittedCurve {
    /// Predicts `ŷ` at raw `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.fit.predict(self.basis.transform(x))
    }

    /// Inverse prediction in raw x space; `None` if the line is flat or the
    /// solution is negative (target already passed / unreachable).
    pub fn solve_for_x(&self, y: f64) -> Option<f64> {
        let t = self.fit.solve_for_x(y)?;
        let x = self.basis.invert(t);
        (x.is_finite() && x >= 0.0).then_some(x)
    }

    /// Slope in transformed space: positive means the metric still improves.
    pub fn slope(&self) -> f64 {
        self.fit.slope
    }
}

/// Convenience: builds an estimator whose historical points come from several
/// completed jobs' curves concatenated together (the paper treats "the
/// combination of all the historical data" as one pool).
pub fn pool_historical_curves(curves: &[Vec<(f64, f64)>]) -> Vec<(f64, f64)> {
    curves.iter().flatten().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground truth: y = 0.2 + 0.15·ln(1+x).
    fn truth(x: f64) -> f64 {
        0.2 + 0.15 * (1.0 + x).ln()
    }

    fn historical() -> Vec<(f64, f64)> {
        (0..20).map(|i| (i as f64 * 10.0, truth(i as f64 * 10.0))).collect()
    }

    #[test]
    fn historical_only_prediction() {
        let est = JointCurveEstimator::new(CurveBasis::LogShifted, historical());
        let y = est.predict(50.0).unwrap();
        assert!((y - truth(50.0)).abs() < 1e-9, "got {y}, want {}", truth(50.0));
    }

    #[test]
    fn equal_share_weighting_matches_paper_example() {
        // Paper: with one recorded real-time result, it gets 0.5 and the
        // historical data as a whole gets 0.5; with three, 0.25 each.
        let mut est = JointCurveEstimator::new(CurveBasis::LogShifted, historical());
        assert_eq!(est.realtime_weight(), 1.0);
        est.observe(5.0, truth(5.0));
        assert_eq!(est.realtime_weight(), 0.5);
        est.observe(10.0, truth(10.0));
        est.observe(15.0, truth(15.0));
        assert_eq!(est.realtime_weight(), 0.25);

        let pts = est.weighted_points();
        let hist_total: f64 = pts.iter().take(est.historical_len()).map(|p| p.weight).sum();
        let rt_weights: Vec<f64> =
            pts.iter().skip(est.historical_len()).map(|p| p.weight).collect();
        assert!((hist_total - 0.25).abs() < 1e-12);
        assert_eq!(rt_weights, vec![0.25, 0.25, 0.25]);
    }

    #[test]
    fn realtime_data_corrects_biased_history() {
        // History claims a much slower job (bias), real-time tells the truth.
        let biased: Vec<(f64, f64)> =
            (0..20).map(|i| (i as f64 * 10.0, truth(i as f64 * 10.0) * 0.5)).collect();
        let mut est = JointCurveEstimator::new(CurveBasis::LogShifted, biased);
        let before = est.predict(100.0).unwrap();
        for i in 1..=8 {
            let x = i as f64 * 10.0;
            est.observe(x, truth(x));
        }
        let after = est.predict(100.0).unwrap();
        let target = truth(100.0);
        assert!(
            (after - target).abs() < (before - target).abs() / 2.0,
            "real-time data should pull the estimate toward truth: before={before}, after={after}, truth={target}"
        );
    }

    #[test]
    fn realtime_only_needs_two_points() {
        let mut est = JointCurveEstimator::new(CurveBasis::LogShifted, Vec::new());
        assert!(est.predict(10.0).is_err());
        est.observe(1.0, truth(1.0));
        assert!(est.predict(10.0).is_err());
        est.observe(4.0, truth(4.0));
        assert!(est.predict(10.0).is_ok());
    }

    #[test]
    fn solve_for_x_inverts_prediction() {
        let est = JointCurveEstimator::new(CurveBasis::LogShifted, historical());
        let target = truth(42.0);
        let x = est.solve_for_x(target).unwrap().unwrap();
        assert!((x - 42.0).abs() < 1e-6, "got {x}");
    }

    #[test]
    fn flat_curve_yields_no_solution() {
        let flat: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 0.5)).collect();
        let est = JointCurveEstimator::new(CurveBasis::LogShifted, flat);
        assert_eq!(est.solve_for_x(0.9).unwrap(), None);
    }

    #[test]
    fn linear_basis_is_identity() {
        assert_eq!(CurveBasis::Linear.transform(7.0), 7.0);
        assert_eq!(CurveBasis::Linear.invert(7.0), 7.0);
        let t = CurveBasis::LogShifted.transform(9.0);
        assert!((CurveBasis::LogShifted.invert(t) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn poisoned_observations_are_skipped_and_reweighted() {
        let mut est = JointCurveEstimator::new(CurveBasis::LogShifted, historical());
        est.observe(5.0, truth(5.0));
        est.observe(f64::NAN, 0.9); // crashed epoch reporting garbage
        est.observe(10.0, f64::INFINITY);
        est.observe(10.0, truth(10.0));
        assert_eq!(est.realtime_len(), 2, "poisoned points never enter the set");
        // Weights re-share over the two surviving points: 1/(2+1) each.
        assert!((est.realtime_weight() - 1.0 / 3.0).abs() < 1e-12);
        let y = est.predict(50.0).unwrap();
        assert!(y.is_finite());
        assert!((y - truth(50.0)).abs() < 0.05, "fit stays sane: got {y}");
    }

    #[test]
    fn poisoned_history_is_filtered_at_construction() {
        let mut hist = historical();
        hist.push((f64::NAN, 0.5));
        hist.push((30.0, f64::NEG_INFINITY));
        let est = JointCurveEstimator::new(CurveBasis::LogShifted, hist);
        assert_eq!(est.historical_len(), 20);
        assert!(est.predict(50.0).unwrap().is_finite());
    }

    #[test]
    fn incremental_fit_matches_dense_oracle() {
        let mut est = JointCurveEstimator::new(CurveBasis::LogShifted, historical());
        for i in 1..=6 {
            let x = i as f64 * 7.0;
            est.observe(x, truth(x) + if i % 2 == 0 { 0.01 } else { -0.01 });
        }
        let inc = est.fit().unwrap();
        let dense = est.fit_dense().unwrap();
        assert!((inc.slope() - dense.slope()).abs() < 1e-9);
        assert!((inc.predict(33.0) - dense.predict(33.0)).abs() < 1e-9);
        // Replaying the same points through a fresh estimator performs the
        // identical fold, so an incremental fit is bit-identical to a full
        // re-fit — the invariant durable snapshot restore relies on.
        let mut rebuilt = JointCurveEstimator::new(CurveBasis::LogShifted, historical());
        for &(x, y) in est.realtime_points() {
            rebuilt.observe(x, y);
        }
        let re = rebuilt.fit().unwrap();
        assert_eq!(re.predict(33.0).to_bits(), inc.predict(33.0).to_bits());
        assert_eq!(re.slope().to_bits(), inc.slope().to_bits());
    }

    #[test]
    fn pooling_concatenates() {
        let pooled = pool_historical_curves(&[vec![(0.0, 0.1), (1.0, 0.2)], vec![(0.0, 0.15)]]);
        assert_eq!(pooled.len(), 3);
    }
}
