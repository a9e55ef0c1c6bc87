//! Row verdicts (DESIGN.md §5), gated without a wall clock:
//! `BatchStats::probes` is what the row loop would have looked up and prices
//! every virtual epoch, so it must not move; `Executor::probe_lookups` counts
//! the index lookups the epoch path performs, which is exactly one per join
//! edge for each surviving row.

use rotary_engine::agg::AggSpec;
use rotary_engine::{query, Executor, IndexCache, QueryId};
use rotary_tpch::{BatchSource, Generator};

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
fn epochs_look_up_only_survivors_while_probes_do_not_move() {
    let data = Generator::new(1, 0.005).generate();
    let mut cache = IndexCache::new();
    for (qid, scanned, pinned_probes, aggregated) in PINNED_STATS {
        let q = QueryId(qid);
        let mut exec = Executor::bind(&query(q), &data, &mut cache).unwrap();
        let n = exec.fact_rows();
        let rows = BatchSource::new(3, n, n).next_batch().unwrap().to_vec();
        let lookups = exec.probe_lookups(&rows);
        let stats = exec.process_rows(&rows);
        assert_eq!(
            (stats.rows_scanned, stats.probes, stats.rows_aggregated),
            (scanned, pinned_probes, aggregated),
            "{q}: BatchStats moved"
        );
        assert_eq!(lookups, stats.rows_aggregated * exec.join_count() as u64, "{q}");
    }
}

#[test]
fn q9_filters_only_after_the_edge_that_can_miss() {
    // `partsupp` has four suppliers per part, so most (l_partkey, l_suppkey)
    // pairs miss: the edge is not total, and q9's p_type conjunct — ready at
    // slot 1 — has to wait for it in the build scan or the per-row probe
    // counts would stop counting the rows the joins alone keep alive.
    let data = Generator::new(1, 0.005).generate();
    let mut cache = IndexCache::new();
    let mut plan = query(QueryId(9));
    let n = data.lineitem.rows() as u64;
    let rows = BatchSource::new(3, n as usize, n as usize).next_batch().unwrap().to_vec();

    let mut exec = Executor::bind(&plan, &data, &mut cache).unwrap();
    let lookups = exec.probe_lookups(&rows);
    let stats = exec.process_rows(&rows);
    // An epoch resolves all five edges for the survivors and nothing else.
    assert_eq!(lookups, 5 * stats.rows_aggregated);
    assert!(stats.probes > lookups, "the orders edge should have been spared");

    // Cut the plan after the partsupp edge: the row loop probes four edges
    // for every row; an epoch looks up four for each row that joined.
    plan.joins.truncate(4);
    plan.group_by.clear();
    plan.aggregates = vec![AggSpec::count("n")];
    let mut exec = Executor::bind(&plan, &data, &mut cache).unwrap();
    let lookups = exec.probe_lookups(&rows);
    let stats = exec.process_rows(&rows);
    assert_eq!(stats.probes, 4 * n);
    assert_eq!(lookups, 4 * stats.rows_aggregated);
    assert!(lookups < stats.probes);
}
