//! Memory-consumption estimation and the batch cost model.
//!
//! The paper's memory consumption estimator "predicts the memory
//! consumption of the AQP jobs based on each batch's table and column
//! statistics and query plans", implemented there via Spark's cost-based
//! optimizer. [`estimate_memory_mb`] is the corresponding estimator over
//! our engine's plans: a query must pin, for the duration of its run,
//!
//! * a hash index and the referenced columns of every joined dimension
//!   table (the engine's join state),
//! * its running group table, and
//! * a batch's worth of fact-table columns,
//!
//! scaled by an executor-overhead factor standing in for Spark's JVM object
//! overhead, so absolute numbers land in the same ballpark as the paper's
//! observations (heavy queries in the gigabytes).
//!
//! [`BatchCostModel`] converts executor work counters to virtual time: the
//! simulator runs at a small scale factor, so each simulated row represents
//! `1 / SF` real rows and costs proportionally more virtual time, making
//! virtual epoch durations comparable to the paper's wall-clock SF-1 runs
//! regardless of the simulated scale.

use rotary_core::SimTime;
use rotary_tpch::TpchData;

use crate::exec::BatchStats;
use crate::plan::QueryPlan;

/// Bytes per hash-index entry: the open-addressed `PkIndex` stores an `i64`
/// key and a `u32` row per slot at ≤50% load, so ≈2×12 bytes per key.
const INDEX_ENTRY_BYTES: usize = 24;
/// Bytes per materialised group (key vector + accumulators).
const GROUP_BYTES: usize = 96;
/// Executor object overhead multiplier (Spark/JVM stand-in).
const OVERHEAD_FACTOR: f64 = 12.0;

/// Estimates the resident memory a plan needs, in megabytes.
///
/// `batch_rows` is the number of fact rows processed per batch. The
/// estimate is intentionally conservative (it assumes whole dimension
/// columns are resident), as a real CBO would be.
pub fn estimate_memory_mb(plan: &QueryPlan, data: &TpchData, batch_rows: usize) -> u64 {
    let referenced = plan.referenced_columns();
    let mut bytes: f64 = 0.0;

    for join in &plan.joins {
        let Some(table) = data.table(&join.table) else { continue };
        // Hash index over the PK column(s).
        bytes += (table.rows() * INDEX_ENTRY_BYTES) as f64;
        // Referenced columns of this alias stay resident.
        for col_ref in &referenced {
            if col_ref.alias.as_deref() == Some(join.alias.as_str()) {
                if let Some(col) = table.column(&col_ref.column) {
                    bytes += column_bytes_per_row(col) * table.rows() as f64;
                }
            }
        }
    }

    // Fact-table batch buffers: referenced fact columns × batch rows.
    if let Some(fact) = data.table(&plan.fact) {
        for col_ref in &referenced {
            if col_ref.alias.is_none() {
                if let Some(col) = fact.column(&col_ref.column) {
                    bytes += column_bytes_per_row(col) * batch_rows as f64;
                }
            }
        }
    }

    // Group hash table: estimated group cardinality.
    bytes += (estimated_groups(plan, data) * GROUP_BYTES) as f64;

    // The dataset in this process may be generated at a small scale factor;
    // report the SF-1-equivalent footprint the paper's testbed would see.
    let sf_correction = 1.0 / data.scale_factor.min(1.0);
    let total = bytes * OVERHEAD_FACTOR * sf_correction;
    (total / (1024.0 * 1024.0)).ceil().max(1.0) as u64
}

fn column_bytes_per_row(col: &rotary_tpch::Column) -> f64 {
    match col {
        rotary_tpch::Column::Int(_) | rotary_tpch::Column::Float(_) => 8.0,
        rotary_tpch::Column::Date(_) | rotary_tpch::Column::Cat { .. } => 4.0,
    }
}

/// Rough upper bound on group-table cardinality: the product of per-key
/// distinct counts, capped at the fact-table size.
fn estimated_groups(plan: &QueryPlan, data: &TpchData) -> usize {
    if plan.group_by.is_empty() {
        return 1;
    }
    let fact_rows = data.table(&plan.fact).map(|t| t.rows()).unwrap_or(1);
    let mut product: usize = 1;
    for key in &plan.group_by {
        let distinct = match key {
            crate::plan::GroupKey::Year(_) => 7, // 1992–1998
            crate::plan::GroupKey::Raw(col_ref) => {
                // Dictionary cardinality for categories; a generic guess for
                // other types (real CBOs keep NDV statistics; ours derives
                // them from the dictionary where available).
                lookup_column(plan, data, col_ref)
                    .map(|c| match c {
                        rotary_tpch::Column::Cat { dict, .. } => dict.len(),
                        _ => 64,
                    })
                    .unwrap_or(64)
            }
        };
        product = product.saturating_mul(distinct.max(1)).min(fact_rows.max(1));
    }
    product
}

fn lookup_column<'a>(
    plan: &QueryPlan,
    data: &'a TpchData,
    col_ref: &crate::expr::ColRef,
) -> Option<&'a rotary_tpch::Column> {
    let table_name = match &col_ref.alias {
        None => plan.fact.as_str(),
        Some(alias) => &plan.joins.iter().find(|j| &j.alias == alias)?.table,
    };
    data.table(table_name)?.column(&col_ref.column)
}

/// Converts executor work counters into virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCostModel {
    /// Virtual seconds per row operation on one thread, already corrected
    /// for the simulated scale factor.
    pub secs_per_row_op: f64,
}

impl BatchCostModel {
    /// Base throughput of the paper's testbed: row operations per second per
    /// hardware thread at SF-1 data sizes. Calibrated so that reaching a
    /// mid-range accuracy threshold takes a deadline-scale amount of time —
    /// a light query needs ~5 minutes *with* a full four-thread grant and
    /// ~18 minutes on a single thread, heavy queries proportionally longer —
    /// which reproduces the paper's contention: Table I deadlines only bind
    /// when arbitration gives a job enough threads.
    pub const BASE_OPS_PER_SEC: f64 = 3_500.0;

    /// Fraction of each additional thread that turns into useful speedup
    /// (Amdahl-style parallel efficiency).
    const PARALLEL_EFFICIENCY: f64 = 0.85;

    /// A model for a dataset generated at `sim_scale_factor`: each simulated
    /// row stands for `1 / SF` real rows.
    ///
    /// # Panics
    /// Panics on non-positive scale factors.
    pub fn calibrated(sim_scale_factor: f64) -> BatchCostModel {
        assert!(sim_scale_factor > 0.0, "scale factor must be positive");
        BatchCostModel {
            secs_per_row_op: 1.0 / (Self::BASE_OPS_PER_SEC * sim_scale_factor.min(1.0)),
        }
    }

    /// How much faster a batch runs on `threads` hardware threads than on
    /// one.
    pub fn speedup(threads: u32) -> f64 {
        1.0 + (threads.max(1) - 1) as f64 * Self::PARALLEL_EFFICIENCY
    }

    /// Virtual time to process a batch with `threads` hardware threads.
    pub fn batch_time(&self, stats: BatchStats, threads: u32) -> SimTime {
        SimTime::from_secs_f64(
            stats.row_ops() as f64 * self.secs_per_row_op / Self::speedup(threads),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{query, QueryId};
    use rotary_tpch::Generator;

    #[test]
    fn heavy_queries_need_more_memory_than_light() {
        let data = Generator::new(5, 0.005).generate();
        let batch = data.lineitem.rows() / 100;
        let mem = |id: u8| estimate_memory_mb(&query(QueryId(id)), &data, batch);
        // q6 (no joins) < q3 (orders+customer) < q18-style heavy footprints.
        assert!(mem(6) < mem(3), "q6={} q3={}", mem(6), mem(3));
        assert!(mem(1) < mem(7), "q1={} q7={}", mem(1), mem(7));
        assert!(mem(22) < mem(9), "q22={} q9={}", mem(22), mem(9));
    }

    #[test]
    fn class_averages_are_ordered() {
        let data = Generator::new(5, 0.005).generate();
        let batch = data.lineitem.rows() / 100;
        let avg_of = |class: crate::plan::QueryClass| {
            let ids = QueryId::of_class(class);
            ids.iter().map(|&id| estimate_memory_mb(&query(id), &data, batch) as f64).sum::<f64>()
                / ids.len() as f64
        };
        let light = avg_of(crate::plan::QueryClass::Light);
        let medium = avg_of(crate::plan::QueryClass::Medium);
        let heavy = avg_of(crate::plan::QueryClass::Heavy);
        assert!(light < medium, "light {light} !< medium {medium}");
        assert!(medium < heavy, "medium {medium} !< heavy {heavy}");
    }

    #[test]
    fn memory_is_sf_invariant() {
        // The SF-1-equivalent footprint should be similar whether we
        // simulate at 0.002 or 0.004.
        let a = Generator::new(5, 0.002).generate();
        let b = Generator::new(5, 0.004).generate();
        let plan = query(QueryId(5));
        let ma = estimate_memory_mb(&plan, &a, a.lineitem.rows() / 100) as f64;
        let mb = estimate_memory_mb(&plan, &b, b.lineitem.rows() / 100) as f64;
        assert!((ma / mb - 1.0).abs() < 0.25, "ma={ma} mb={mb}");
    }

    #[test]
    fn cost_model_scales_with_threads_and_sf() {
        let m = BatchCostModel::calibrated(0.01);
        let stats = BatchStats { rows_scanned: 1000, probes: 2000, rows_aggregated: 500 };
        let t1 = m.batch_time(stats, 1);
        let t4 = m.batch_time(stats, 4);
        assert!(t4 < t1, "more threads must be faster");
        assert!(t4 > t1 / 4, "parallel efficiency < 1 means sublinear speedup");

        // Smaller simulated SF → each row is worth more virtual time; the
        // same simulated batch costs proportionally more.
        let coarse = BatchCostModel::calibrated(0.001);
        assert!(coarse.batch_time(stats, 1) > t1);
    }

    #[test]
    fn full_sf1_equivalent_scan_lands_in_paper_deadline_range() {
        // A full lineitem scan of a 1-join query on one thread should land
        // within the same order of magnitude as Table I's heavy deadlines
        // (hundreds to thousands of seconds).
        let sf = 0.005;
        let data = Generator::new(5, sf).generate();
        let plan = query(QueryId(3));
        let mut cache = crate::exec::IndexCache::new();
        let mut exec = crate::exec::Executor::bind(&plan, &data, &mut cache).unwrap();
        let stats = exec.process_all();
        let model = BatchCostModel::calibrated(sf);
        let t = model.batch_time(stats, 1);
        let secs = t.as_secs_f64();
        assert!(
            (100.0..10_000.0).contains(&secs),
            "full q3 scan = {secs}s, outside plausibility window"
        );
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn bad_calibration_panics() {
        let _ = BatchCostModel::calibrated(0.0);
    }
}
