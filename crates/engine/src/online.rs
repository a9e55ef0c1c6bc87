//! Progressive (online-aggregation) execution of a bound query.
//!
//! An [`OnlineAggregation`] couples an [`Executor`] with a shuffled
//! [`BatchSource`] and a set of ground-truth final aggregates `α_f`. After
//! every epoch it reports the paper's accuracy (§IV-A):
//!
//! ```text
//! accuracy = (1/k) Σ_k  α_c^k / α_f^k
//! ```
//!
//! computed per aggregate column and averaged with equal weights ("based on
//! the assumption that all columns are of equal importance", which the
//! evaluation uses). Ratios are oriented
//! so accuracy lives in `[0, 1]`: running averages can overshoot their final
//! value, so each column contributes `min(|α_c|, |α_f|) / max(|α_c|, |α_f|)`
//! and mixed-sign estimates contribute 0.
//!
//! **Lifetime of the data-plane state.** The shuffled permutation, the
//! aggregate groups and the chunk scratch exist to run the *next* epoch.
//! The permutation is drawn by the first epoch (or the restore replay of a
//! delivered prefix), not at binding, so a query that never runs one never
//! pays its shuffle. A query that will never run another — its job reached
//! a terminal state — is [`OnlineAggregation::release`]d: those three are
//! freed (the permutation alone is 4 bytes per fact row per job) while the
//! accounting a finished job is still asked for (`fraction_processed`,
//! `rows_delivered`, `total_rows`, `is_exhausted`, `agg_funcs`) keeps
//! answering. A restore that finds the job terminal
//! ([`OnlineAggregation::restore_released`]) draws no permutation at all.

use rotary_core::RotaryError;
use rotary_tpch::{BatchSource, TpchData};

use crate::exec::{BatchStats, Executor, IndexCache};
use crate::plan::QueryPlan;

/// Ground-truth final aggregates for a plan on a dataset.
pub type GroundTruth = Vec<Option<f64>>;

/// Computes `α_f` for every aggregate column by running the plan to
/// completion.
pub fn compute_ground_truth(
    plan: &QueryPlan,
    data: &TpchData,
    cache: &mut IndexCache,
) -> rotary_core::Result<GroundTruth> {
    let mut exec = Executor::bind(plan, data, cache)?;
    exec.process_all();
    Ok(exec.state().combined_all())
}

/// The per-epoch intermediate result of a progressive query.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Fraction of the fact table processed so far, in `[0, 1]`.
    pub fraction_processed: f64,
    /// Current combined value per aggregate column.
    pub values: Vec<Option<f64>>,
    /// Accuracy `α_c / α_f` averaged over columns, in `[0, 1]`.
    pub accuracy: f64,
    /// Work performed this epoch.
    pub stats: BatchStats,
    /// True when the source is exhausted (the query is exact now).
    pub exhausted: bool,
}

/// A progressively executing query.
#[derive(Debug)]
pub struct OnlineAggregation<'a> {
    executor: Executor<'a>,
    source: BatchSource,
    ground_truth: GroundTruth,
    funcs: Vec<crate::agg::AggFunc>,
}

impl<'a> OnlineAggregation<'a> {
    /// Creates a progressive execution.
    ///
    /// `seed` shuffles the batch order (a different progressive sample per
    /// job, as with Kafka consumption order); `batch_rows` is the paper's
    /// fixed batch size.
    pub fn new(
        plan: &QueryPlan,
        data: &'a TpchData,
        cache: &mut IndexCache,
        ground_truth: GroundTruth,
        seed: u64,
        batch_rows: usize,
    ) -> rotary_core::Result<OnlineAggregation<'a>> {
        let executor = Executor::bind(plan, data, cache)?;
        if ground_truth.len() != plan.aggregates.len() {
            return Err(RotaryError::PlanBind {
                plan: plan.label.clone(),
                message: format!(
                    "ground truth has {} columns, plan has {}",
                    ground_truth.len(),
                    plan.aggregates.len()
                ),
            });
        }
        let source = BatchSource::new(seed, executor.fact_rows(), batch_rows);
        let funcs = plan.aggregates.iter().map(|a| a.func).collect();
        Ok(OnlineAggregation { executor, source, ground_truth, funcs })
    }

    /// The aggregate function of each output column, in order — schedulers
    /// use this to pick a per-column accuracy estimator (stream fraction for
    /// SUM/COUNT, envelope for AVG/MIN/MAX).
    pub fn agg_funcs(&self) -> &[crate::agg::AggFunc] {
        &self.funcs
    }

    /// Runs one epoch of `batches` batches. Returns `None` when the query
    /// has already consumed the entire table.
    pub fn process_epoch(&mut self, batches: usize) -> Option<EpochReport> {
        let OnlineAggregation { executor, source, .. } = self;
        let stats = executor.process_rows(source.next_batches(batches.max(1))?);
        let values = self.executor.state().combined_all();
        Some(EpochReport {
            fraction_processed: self.source.fraction_delivered(),
            accuracy: self.accuracy_of(&values),
            values,
            stats,
            exhausted: self.source.is_exhausted(),
        })
    }

    fn accuracy_of(&self, values: &[Option<f64>]) -> f64 {
        let (mut acc, mut columns) = (0.0, 0.0);
        for (current, truth) in values.iter().zip(&self.ground_truth) {
            acc += column_accuracy(*current, *truth);
            columns += 1.0;
        }
        acc / columns
    }

    /// Current accuracy without processing more data.
    pub fn current_accuracy(&self) -> f64 {
        self.accuracy_of(&self.executor.state().combined_all())
    }

    /// Fraction of the fact table processed so far.
    pub fn fraction_processed(&self) -> f64 {
        self.source.fraction_delivered()
    }

    /// True when the full table has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.source.is_exhausted()
    }

    /// The underlying executor (for inspection).
    pub fn executor(&self) -> &Executor<'a> {
        &self.executor
    }

    /// Rows delivered by the batch source so far. Captured by durable
    /// snapshots: the executor's aggregation state is a pure function of the
    /// delivered row sequence, so this one number (plus the seed) is enough
    /// to rebuild it.
    pub fn rows_delivered(&self) -> usize {
        self.source.delivered()
    }

    /// Total rows in the fact table — the upper bound a snapshot's delivered
    /// count must respect before [`OnlineAggregation::replay_delivered`].
    pub fn total_rows(&self) -> usize {
        self.source.total_rows()
    }

    /// Replays the first `rows` of the batch permutation through the
    /// executor — durable snapshot restore for a freshly bound query. It is
    /// the epoch path run once over the whole prefix: survivors selected
    /// from the plan's shared row verdicts, projected and folded in delivery
    /// order, so the state equals the one the epochs built, bit for bit.
    ///
    /// # Panics
    /// Panics if rows were already processed (restore targets a fresh
    /// binding) or if `rows` exceeds the table size (corrupt count — the
    /// caller validates snapshot integrity first).
    pub fn replay_delivered(&mut self, rows: usize) {
        assert_eq!(self.source.delivered(), 0, "replay requires a fresh binding");
        let OnlineAggregation { executor, source, .. } = self;
        executor.process_rows(source.replay_prefix(rows));
    }

    /// Frees what only a further epoch would need — the batch permutation,
    /// the aggregate groups and the chunk scratch. For a query whose job is
    /// terminal: no more epochs run and the running aggregates are no longer
    /// read, but the delivered/total accounting stays. Idempotent.
    pub fn release(&mut self) {
        self.source.release();
        self.executor.release();
    }

    /// [`OnlineAggregation::release`] for a freshly bound query whose
    /// snapshot says it is terminal with `rows` delivered: restore records
    /// the position and skips the replay nobody would read.
    ///
    /// # Panics
    /// Panics if `rows` exceeds the table size (the caller validates
    /// snapshot integrity first).
    pub fn restore_released(&mut self, rows: usize) {
        self.source.release_at(rows);
        self.executor.release();
    }

    /// Relative half-widths of the 95% confidence intervals: `1.96·SE /
    /// |mean|` per column, the quantity an error-bound completion criterion
    /// compares against its ε. `None` until measurable.
    pub fn relative_ci_half_widths(&self) -> Vec<Option<f64>> {
        (0..self.ground_truth.len())
            .map(|i| {
                let acc = self.executor.state().combined_accumulator(i)?;
                let se = acc.std_error()?;
                let mean = acc.value()?;
                (mean.abs() > 1e-12).then(|| 1.96 * se / mean.abs())
            })
            .collect()
    }
}

/// One column's accuracy contribution: orientation-corrected `α_c / α_f`.
fn column_accuracy(current: Option<f64>, truth: Option<f64>) -> f64 {
    match (current, truth) {
        // Nothing aggregated yet: zero accuracy.
        (None, Some(_)) => 0.0,
        // The final answer is NULL (no qualifying rows at all); a NULL
        // running answer is exactly right.
        (None, None) => 1.0,
        (Some(_), None) => 0.0,
        (Some(c), Some(t)) => {
            if c == 0.0 && t == 0.0 {
                return 1.0;
            }
            if c.signum() != t.signum() {
                return 0.0;
            }
            let (lo, hi) = (c.abs().min(t.abs()), c.abs().max(t.abs()));
            if hi == 0.0 {
                1.0
            } else {
                (lo / hi).clamp(0.0, 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{query, QueryId};
    use rotary_tpch::Generator;

    fn setup() -> (TpchData, IndexCache) {
        (Generator::new(33, 0.005).generate(), IndexCache::new())
    }

    #[test]
    fn accuracy_converges_to_one() {
        let (data, mut cache) = setup();
        let plan = query(QueryId(1));
        let truth = compute_ground_truth(&plan, &data, &mut cache).unwrap();
        let mut oa = OnlineAggregation::new(&plan, &data, &mut cache, truth, 9, 1000).unwrap();

        let mut last_report = None;
        let mut accuracies = Vec::new();
        while let Some(report) = oa.process_epoch(1) {
            accuracies.push(report.accuracy);
            last_report = Some(report);
        }
        let last = last_report.unwrap();
        assert!(last.exhausted);
        assert_eq!(last.fraction_processed, 1.0);
        assert!((last.accuracy - 1.0).abs() < 1e-9, "exact at 100%: {}", last.accuracy);
        // Early accuracy is already decent (progressive sampling) and the
        // trend is upward overall.
        assert!(accuracies[0] > 0.0);
        assert!(accuracies[0] < accuracies[accuracies.len() - 1] + 1e-12);
    }

    #[test]
    fn avg_columns_are_accurate_early() {
        // AVG converges much faster than SUM under uniform sampling; with
        // 10% of data, the q1 averages should be within a few percent.
        let (data, mut cache) = setup();
        let plan = query(QueryId(1));
        let truth = compute_ground_truth(&plan, &data, &mut cache).unwrap();
        let mut oa =
            OnlineAggregation::new(&plan, &data, &mut cache, truth.clone(), 10, 1000).unwrap();
        let report = oa.process_epoch(3).unwrap(); // ~10% of ~31k rows
                                                   // Column 4 is avg_qty.
        let avg_now = report.values[4].unwrap();
        let avg_truth = truth[4].unwrap();
        assert!((avg_now / avg_truth - 1.0).abs() < 0.05, "{avg_now} vs {avg_truth}");
    }

    #[test]
    fn column_accuracy_orientation() {
        assert_eq!(column_accuracy(Some(50.0), Some(100.0)), 0.5);
        assert_eq!(column_accuracy(Some(200.0), Some(100.0)), 0.5, "overshoot is symmetric");
        assert_eq!(column_accuracy(Some(-50.0), Some(-100.0)), 0.5);
        assert_eq!(column_accuracy(Some(-1.0), Some(1.0)), 0.0, "wrong sign");
        assert_eq!(column_accuracy(Some(0.0), Some(0.0)), 1.0);
        assert_eq!(column_accuracy(None, Some(5.0)), 0.0);
        assert_eq!(column_accuracy(None, None), 1.0);
        assert_eq!(column_accuracy(Some(5.0), None), 0.0);
    }

    #[test]
    fn ground_truth_arity_is_checked() {
        let (data, mut cache) = setup();
        let plan = query(QueryId(6));
        let err = OnlineAggregation::new(&plan, &data, &mut cache, vec![Some(1.0); 5], 1, 100)
            .unwrap_err();
        assert!(err.to_string().contains("ground truth"));
    }

    #[test]
    fn exhausted_source_returns_none() {
        let (data, mut cache) = setup();
        let plan = query(QueryId(22)); // fact = customer (small)
        let truth = compute_ground_truth(&plan, &data, &mut cache).unwrap();
        let mut oa = OnlineAggregation::new(&plan, &data, &mut cache, truth, 2, 10_000).unwrap();
        assert!(oa.process_epoch(1000).is_some());
        assert!(oa.is_exhausted());
        assert!(oa.process_epoch(1).is_none());
    }

    #[test]
    fn replay_delivered_rebuilds_identical_state() {
        let (data, mut cache) = setup();
        let plan = query(QueryId(6));
        let truth = compute_ground_truth(&plan, &data, &mut cache).unwrap();
        let mut oa =
            OnlineAggregation::new(&plan, &data, &mut cache, truth.clone(), 7, 500).unwrap();
        oa.process_epoch(2).unwrap();
        oa.process_epoch(3).unwrap();
        let delivered = oa.rows_delivered();

        let mut resumed = OnlineAggregation::new(&plan, &data, &mut cache, truth, 7, 500).unwrap();
        resumed.replay_delivered(delivered);
        assert_eq!(resumed.rows_delivered(), delivered);
        assert_eq!(resumed.current_accuracy().to_bits(), oa.current_accuracy().to_bits());
        assert_eq!(resumed.executor().state().combined_all(), oa.executor().state().combined_all());
        // And the next epoch is identical too.
        let a = oa.process_epoch(1).unwrap();
        let b = resumed.process_epoch(1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn release_keeps_the_accounting_and_is_idempotent() {
        let (data, mut cache) = setup();
        let plan = query(QueryId(1));
        let truth = compute_ground_truth(&plan, &data, &mut cache).unwrap();
        let mut oa =
            OnlineAggregation::new(&plan, &data, &mut cache, truth.clone(), 9, 1000).unwrap();
        oa.process_epoch(2).unwrap();
        let before = (oa.fraction_processed(), oa.rows_delivered(), oa.total_rows());
        oa.release();
        oa.release();
        assert_eq!((oa.fraction_processed(), oa.rows_delivered(), oa.total_rows()), before);
        assert!(!oa.is_exhausted());
        assert_eq!(oa.agg_funcs().len(), plan.aggregates.len());
        assert_eq!(oa.executor().state().group_count(), 0, "groups were not freed");
        assert!(oa.process_epoch(1).is_none(), "a released query runs no further epoch");

        // A restore that finds the job terminal never replays.
        let mut restored =
            OnlineAggregation::new(&plan, &data, &mut cache, truth, 9, 1000).unwrap();
        restored.restore_released(before.1);
        assert_eq!(
            (restored.fraction_processed(), restored.rows_delivered(), restored.total_rows()),
            before
        );
        assert_eq!(restored.executor().totals().rows_scanned, 0);
    }
}
