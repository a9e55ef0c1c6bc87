//! The accuracy-progress estimator of Rotary-AQP (paper §IV-A).
//!
//! The estimator predicts the accuracy a job would reach if granted
//! resources for another epoch. It fits a progress curve through two pools:
//!
//! * **historical** — `(fraction processed, accuracy)` observations from
//!   the top-k completed jobs most similar to the target, where similarity
//!   combines query features: the referenced tables/columns (Jaccard) and
//!   the estimated memory footprint (the paper also lists batch size, which
//!   is uniform in our workload);
//! * **real-time** — the job's own per-epoch observations, with the
//!   equal-share weighting of [`JointCurveEstimator`].
//!
//! The x-axis is the fraction of the fact table processed rather than raw
//! runtime: the two are proportional for a fixed thread count, and the
//! fraction axis keeps historical curves comparable across jobs that ran
//! with different grants (a choice documented in `DESIGN.md`).
//!
//! [`RandomEstimator`] is the Fig. 9 ablation: "their accuracy progress
//! estimator will randomly return the estimated progress following a
//! uniform distribution from 0 to 1".

use rotary_core::estimate::similarity::{jaccard_sorted, scalar_similarity};
use rotary_core::estimate::{CurveBasis, JointCurveEstimator};
use rotary_core::history::{ClassRow, HistoryRepository, JobRecord};
use rotary_core::job::JobKind;
use rotary_engine::QueryPlan;
use rotary_sim::rng::Rng;

/// Query features used for similarity search.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFeatures {
    /// Query label (`"q5"`).
    pub label: String,
    /// Tables the plan references (fact + joined).
    pub tables: Vec<String>,
    /// Columns the plan references.
    pub columns: Vec<String>,
    /// Estimated memory footprint in MB (proxy for plan size).
    pub memory_mb: u64,
}

impl QueryFeatures {
    /// Extracts features from a plan.
    pub fn of(plan: &QueryPlan, memory_mb: u64) -> QueryFeatures {
        let mut tables = vec![plan.fact.clone()];
        tables.extend(plan.joins.iter().map(|j| j.table.clone()));
        tables.sort();
        tables.dedup();
        let mut columns: Vec<String> =
            plan.referenced_columns().iter().map(|c| c.column.clone()).collect();
        columns.sort();
        columns.dedup();
        QueryFeatures { label: plan.label.clone(), tables, columns, memory_mb }
    }

    /// Similarity to a historical record in `[0, 1]`: identical queries
    /// score 1; otherwise a weighted blend of table overlap, column overlap,
    /// and memory-footprint similarity.
    pub fn similarity(&self, record: &JobRecord) -> f64 {
        FeatureSets::of(self).score(&HistoryRow::of(record))
    }

    /// The tag set a completed job stores in the repository.
    pub fn tags(&self) -> Vec<String> {
        self.tables
            .iter()
            .map(|t| format!("table:{t}"))
            .chain(self.columns.iter().map(|c| format!("col:{c}")))
            .collect()
    }
}

/// `names` as a set: strictly ascending.
fn sorted_set<'a>(names: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut set: Vec<&str> = names.collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// What [`QueryFeatures::similarity`] reads of a historical record,
/// extracted once per feature class of the repository.
struct HistoryRow {
    label: String,
    /// Referenced tables and columns, strictly ascending.
    tables: Vec<String>,
    columns: Vec<String>,
    memory_mb: f64,
}

impl HistoryRow {
    fn of(record: &JobRecord) -> HistoryRow {
        let tagged = |prefix: &str| {
            sorted_set(record.tags.iter().filter_map(|t| t.strip_prefix(prefix)))
                .into_iter()
                .map(String::from)
                .collect()
        };
        HistoryRow {
            label: record.label.clone(),
            tables: tagged("table:"),
            columns: tagged("col:"),
            memory_mb: record.feature("memory_mb").unwrap_or(0.0),
        }
    }
}

/// One bucket: with 22 classes there is nothing worth bounding.
impl ClassRow for HistoryRow {
    type Bucket = ();
    fn bucket(&self) {}
}

/// The job side of [`QueryFeatures::similarity`], computed once per query.
struct FeatureSets<'a> {
    features: &'a QueryFeatures,
    tables: Vec<&'a str>,
    columns: Vec<&'a str>,
}

impl<'a> FeatureSets<'a> {
    fn of(features: &'a QueryFeatures) -> FeatureSets<'a> {
        FeatureSets {
            features,
            tables: sorted_set(features.tables.iter().map(String::as_str)),
            columns: sorted_set(features.columns.iter().map(String::as_str)),
        }
    }

    fn score(&self, row: &HistoryRow) -> f64 {
        if row.label == self.features.label {
            return 1.0;
        }
        0.4 * jaccard_sorted(&self.tables, &row.tables)
            + 0.3 * jaccard_sorted(&self.columns, &row.columns)
            + 0.3 * scalar_similarity(self.features.memory_mb as f64, row.memory_mb)
    }
}

/// Builds the joint estimator for a job from the repository: pools the
/// progress curves of the `top_k` most similar completed AQP jobs as the
/// historical data. With an empty repository the estimator starts cold and
/// relies on real-time observations only (the cold-start condition the
/// paper contrasts with ReLAQS). Costs one similarity per feature class of
/// the repository — per distinct query, not per completed job.
pub fn build_estimator(
    features: &QueryFeatures,
    history: &mut HistoryRepository,
    top_k: usize,
) -> JointCurveEstimator {
    let own = FeatureSets::of(features);
    let similar = history.top_k_rows(
        JobKind::Aqp,
        top_k,
        HistoryRow::of,
        |_| f64::INFINITY,
        |row| own.score(row),
    );
    let historical: Vec<(f64, f64)> =
        similar.iter().flat_map(|(r, _)| r.curve.iter().copied()).collect();
    JointCurveEstimator::new(CurveBasis::LogShifted, historical)
}

/// The Fig. 9 ablation: uniform-random progress estimates.
#[derive(Debug, Clone)]
pub struct RandomEstimator {
    rng: Rng,
}

impl RandomEstimator {
    /// Seeded for reproducibility.
    pub fn new(seed: u64) -> RandomEstimator {
        RandomEstimator { rng: Rng::seed_from_u64(seed).fork("random-estimator") }
    }

    /// A uniform `[0, 1)` "estimate".
    pub fn estimate(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// The RNG position `(state, root)` — captured by durable snapshots.
    pub fn snapshot_state(&self) -> ([u64; 4], u64) {
        self.rng.snapshot_state()
    }

    /// Rebuilds an estimator mid-stream from a captured RNG position.
    pub fn from_snapshot(state: [u64; 4], root: u64) -> RandomEstimator {
        RandomEstimator { rng: Rng::from_snapshot(state, root) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_engine::{query, QueryId};
    use std::collections::BTreeMap;

    fn features(id: u8, mem: u64) -> QueryFeatures {
        QueryFeatures::of(&query(QueryId(id)), mem)
    }

    fn record_for(id: u8, mem: f64, curve: Vec<(f64, f64)>) -> JobRecord {
        let f = features(id, mem as u64);
        JobRecord {
            kind: JobKind::Aqp,
            label: f.label.clone(),
            tags: f.tags(),
            numeric_features: BTreeMap::from([("memory_mb".into(), mem)]),
            curve,
            final_metric: 1.0,
            epochs: 10,
        }
    }

    #[test]
    fn identical_query_is_most_similar() {
        let f = features(5, 1000);
        let same = record_for(5, 900.0, vec![]);
        let other = record_for(22, 100.0, vec![]);
        assert_eq!(f.similarity(&same), 1.0);
        assert!(f.similarity(&other) < 0.8);
    }

    #[test]
    fn related_queries_score_higher_than_unrelated() {
        // q3 and q18 share lineitem/orders/customer; q22 touches only
        // customer.
        let f = features(3, 2000);
        let close = record_for(18, 2500.0, vec![]);
        let far = record_for(22, 100.0, vec![]);
        assert!(f.similarity(&close) > f.similarity(&far), "q18 should be nearer to q3 than q22");
    }

    #[test]
    fn estimator_uses_similar_history() {
        let mut repo = HistoryRepository::new();
        // A "true" curve: accuracy = fraction^0.9-ish, monotone.
        let curve: Vec<(f64, f64)> =
            (1..=10).map(|i| (i as f64 / 10.0, (i as f64 / 10.0).powf(0.9))).collect();
        repo.insert(record_for(5, 1000.0, curve));
        // Noise record, dissimilar and with a misleading curve.
        repo.insert(record_for(22, 50.0, vec![(0.1, 0.99), (1.0, 1.0)]));

        let est = build_estimator(&features(5, 1000), &mut repo, 1);
        assert_eq!(est.historical_len(), 10, "only the similar job's curve is pooled");
        let predicted = est.predict(0.5).unwrap();
        assert!((predicted - 0.5f64.powf(0.9)).abs() < 0.1, "predicted {predicted}");
    }

    #[test]
    fn estimator_does_not_depend_on_how_often_unrelated_queries_repeat() {
        let curve = |bend: f64| -> Vec<(f64, f64)> {
            (1..=5).map(|i| (f64::from(i) / 5.0, (f64::from(i) / 5.0).powf(bend))).collect()
        };
        let mut small = HistoryRepository::new();
        small.insert(record_for(5, 1000.0, curve(0.9)));
        small.insert(record_for(3, 2000.0, curve(0.7)));
        small.insert(record_for(22, 50.0, curve(0.2)));
        // Ten times the records, no new class: q22 completes over and over.
        let mut large = small.clone();
        for i in 0..27 {
            large.insert(record_for(22, 50.0, curve(0.2 + f64::from(i) / 100.0)));
        }
        assert_eq!((small.len(), large.len()), (3, 30));
        assert_eq!(small.class_count(), large.class_count());
        let own = features(5, 1000);
        let build = |history: &mut HistoryRepository| build_estimator(&own, history, 2).to_json();
        assert_eq!(build(&mut small), build(&mut large));
    }

    #[test]
    fn cold_start_estimator_is_empty() {
        let est = build_estimator(&features(1, 500), &mut HistoryRepository::new(), 3);
        assert_eq!(est.historical_len(), 0);
        assert!(est.predict(0.5).is_err());
    }

    #[test]
    fn random_estimator_is_uniform_and_seeded() {
        let mut a = RandomEstimator::new(7);
        let mut b = RandomEstimator::new(7);
        let xs: Vec<f64> = (0..1000).map(|_| a.estimate()).collect();
        let ys: Vec<f64> = (0..1000).map(|_| b.estimate()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
