//! Regression guard for the q7 merge-fold slowdown, pinned without wall
//! clock: `Executor::fold_cost` counts, deterministically, the serial
//! critical-path operations of the two parallel folds. The pre-columnar
//! merge fold built a full per-chunk `AggState` (a `BTreeMap` insert per
//! surviving row), which made `merge8` *slower* than sequential on q7;
//! the columnar fold merges one accumulator set per distinct group per
//! chunk, so its serial work must now be bounded by the replay fold's —
//! the structural fact behind `merge8 >= seq` throughput.
//!
//! The same counters gate filter-first evaluation (DESIGN.md §5), again
//! without a wall clock: `FoldCost::probe_lookups` counts the index lookups
//! the data plane performed, `BatchStats::probes` what the row loop would
//! have. The second must not move — it prices every virtual epoch — while
//! the first must stay well below it over the Table I mix.

use rotary_engine::agg::AggSpec;
use rotary_engine::{query, Executor, IndexCache, QueryClass, QueryId, PAR_CHUNK_ROWS};
use rotary_tpch::{BatchSource, Generator};

#[test]
fn merge_fold_serial_work_never_exceeds_replay_fold() {
    let data = Generator::new(1, 0.005).generate();
    let mut cache = IndexCache::new();
    let n = data.lineitem.rows();
    for qid in [3u8, 6, 7] {
        let exec = Executor::bind(&query(QueryId(qid)), &data, &mut cache).unwrap();
        // The bench harness's exact batch: one full shuffled scan.
        let mut src = BatchSource::new(3, n, n);
        let rows = src.next_batch().unwrap().to_vec();
        let cost = exec.fold_cost(&rows);

        assert_eq!(cost.chunks, n.div_ceil(PAR_CHUNK_ROWS), "q{qid}");
        assert!(cost.parallel_row_ops >= rows.len() as u64, "q{qid}");
        // The regression pin: per chunk the merge fold hands the control
        // plane one entry per *distinct group*, never one per surviving
        // row, so its serial ops are structurally <= the replay fold's.
        assert!(
            cost.merge_serial_ops <= cost.replay_serial_ops,
            "q{qid}: merge fold serial work {} exceeds replay fold {}",
            cost.merge_serial_ops,
            cost.replay_serial_ops,
        );
        // And the counts are a pure function of (plan, data, batch).
        assert_eq!(cost, exec.fold_cost(&rows), "q{qid}: fold_cost not deterministic");
    }
}

#[test]
fn q7_merge_fold_critical_path_beats_sequential_at_eight_lanes() {
    // Model the two schedules at 8 lanes: sequential executes all data-plane
    // row ops plus the replay fold serially; the merge fold runs the data
    // plane 8-wide and only the group merges serially. The pre-columnar
    // engine failed this (merge8 was 3.9M rows/s vs 6.7M sequential on q7).
    let data = Generator::new(1, 0.005).generate();
    let mut cache = IndexCache::new();
    let exec = Executor::bind(&query(QueryId(7)), &data, &mut cache).unwrap();
    let n = data.lineitem.rows();
    let mut src = BatchSource::new(3, n, n);
    let rows = src.next_batch().unwrap().to_vec();
    let cost = exec.fold_cost(&rows);

    let seq_ops = cost.parallel_row_ops + cost.replay_serial_ops;
    let merge8_ops = cost.parallel_row_ops / 8 + cost.merge_serial_ops;
    assert!(
        merge8_ops < seq_ops,
        "q7 merge fold critical path ({merge8_ops} ops) must undercut sequential ({seq_ops} ops)"
    );
}

#[test]
fn grouped_full_scan_merge_ops_are_far_below_replay_ops() {
    // q1 aggregates nearly every row into a handful of
    // (returnflag, linestatus) groups — the shape where the old per-row
    // chunk states hurt most. The merge fold must hand the control plane
    // orders of magnitude fewer serial ops than one per surviving row.
    let data = Generator::new(1, 0.005).generate();
    let mut cache = IndexCache::new();
    let exec = Executor::bind(&query(QueryId(1)), &data, &mut cache).unwrap();
    let n = data.lineitem.rows();
    let mut src = BatchSource::new(3, n, n);
    let rows = src.next_batch().unwrap().to_vec();
    let cost = exec.fold_cost(&rows);

    assert!(cost.replay_serial_ops > n as u64 / 2, "q1 should keep most rows");
    assert!(
        cost.merge_serial_ops < cost.replay_serial_ops / 50,
        "q1 merge serial ops {} not far below replay {}",
        cost.merge_serial_ops,
        cost.replay_serial_ops,
    );
}

/// `(query, rows_scanned, probes, rows_aggregated)` of one full shuffled scan
/// (`BatchSource::new(3, n, n)`) over `Generator::new(1, 0.005)`, recorded
/// from the join-then-filter engine this one replaced.
const PINNED_STATS: [(u8, u64, u64, u64); 22] = [
    (1, 30013, 0, 29613),
    (2, 4000, 16000, 4),
    (3, 30013, 60026, 134),
    (4, 30013, 30013, 809),
    (5, 30013, 180078, 25),
    (6, 30013, 0, 552),
    (7, 30013, 150065, 7),
    (8, 30013, 210091, 0),
    (9, 30013, 122429, 440),
    (10, 30013, 90039, 528),
    (11, 4000, 8000, 80),
    (12, 30013, 30013, 155),
    (13, 7500, 7500, 5928),
    (14, 30013, 30013, 386),
    (15, 30013, 60026, 1205),
    (16, 4000, 4000, 616),
    (17, 30013, 30013, 20),
    (18, 30013, 60026, 35),
    (19, 30013, 30013, 0),
    (20, 4000, 12000, 34),
    (21, 30013, 90039, 762),
    (22, 750, 0, 195),
];

#[test]
fn lookups_stay_far_below_probes_while_probes_do_not_move() {
    let data = Generator::new(1, 0.005).generate();
    let mut cache = IndexCache::new();
    // Table I draws 40/30/30 % of jobs from 13/5/4 queries: per-query
    // weights 0.4/13 : 0.3/5 : 0.3/4 = 80 : 156 : 195.
    let weight = |q: QueryId| match q.class() {
        QueryClass::Light => 80u64,
        QueryClass::Medium => 156,
        QueryClass::Heavy => 195,
    };
    let (mut lookups, mut probes) = (0u64, 0u64);
    for (qid, scanned, pinned_probes, aggregated) in PINNED_STATS {
        let q = QueryId(qid);
        let mut exec = Executor::bind(&query(q), &data, &mut cache).unwrap();
        let n = exec.fact_rows();
        let rows = BatchSource::new(3, n, n).next_batch().unwrap().to_vec();
        let cost = exec.fold_cost(&rows);
        let stats = exec.process_rows(&rows);
        assert_eq!(
            (stats.rows_scanned, stats.probes, stats.rows_aggregated),
            (scanned, pinned_probes, aggregated),
            "{q}: BatchStats moved"
        );
        assert!(cost.probe_lookups <= stats.probes, "{q}: more lookups than the row loop");
        lookups += weight(q) * cost.probe_lookups;
        probes += weight(q) * stats.probes;
    }
    assert!(
        lookups * 100 <= probes * 45,
        "filter-first lookups {lookups} exceed 45 % of the modelled probes {probes}"
    );
}

#[test]
fn q9_filters_only_after_the_edge_that_can_miss() {
    // `partsupp` has four suppliers per part, so most (l_partkey, l_suppkey)
    // pairs miss: the edge is not total, and q9's p_type conjunct — ready at
    // slot 1 — has to wait for it or `probes` would stop counting the rows
    // the joins alone keep alive.
    let data = Generator::new(1, 0.005).generate();
    let mut cache = IndexCache::new();
    let mut plan = query(QueryId(9));
    let n = data.lineitem.rows() as u64;
    let rows = BatchSource::new(3, n as usize, n as usize).next_batch().unwrap().to_vec();

    let mut exec = Executor::bind(&plan, &data, &mut cache).unwrap();
    let cost = exec.fold_cost(&rows);
    let stats = exec.process_rows(&rows);
    // Four edges probed for every row, the fifth (orders, total) only for
    // what the filter kept.
    assert_eq!(cost.probe_lookups, 4 * n + stats.rows_aggregated);
    assert!(stats.probes > cost.probe_lookups, "the orders edge should have been spared");

    // Cut the plan after the partsupp edge: nothing is left to spare.
    plan.joins.truncate(4);
    plan.group_by.clear();
    plan.aggregates = vec![AggSpec::count("n")];
    let mut exec = Executor::bind(&plan, &data, &mut cache).unwrap();
    let cost = exec.fold_cost(&rows);
    assert_eq!(cost.probe_lookups, exec.process_rows(&rows).probes);
    assert_eq!(cost.probe_lookups, 4 * n);
}
