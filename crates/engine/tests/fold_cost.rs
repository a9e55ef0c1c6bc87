//! Filter-first evaluation (DESIGN.md §5), gated without a wall clock:
//! `Executor::probe_lookups` counts the index lookups the data plane
//! performed, `BatchStats::probes` what the row loop would have. The second
//! must not move — it prices every virtual epoch — while the first must stay
//! well below it over the Table I mix.

use rotary_engine::agg::AggSpec;
use rotary_engine::{query, Executor, IndexCache, QueryClass, QueryId};
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
    let (mut weighted_lookups, mut probes) = (0u64, 0u64);
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
        assert!(lookups <= stats.probes, "{q}: more lookups than the row loop");
        weighted_lookups += weight(q) * lookups;
        probes += weight(q) * stats.probes;
    }
    assert!(
        weighted_lookups * 100 <= probes * 45,
        "filter-first lookups {weighted_lookups} exceed 45 % of the modelled probes {probes}"
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
    let lookups = exec.probe_lookups(&rows);
    let stats = exec.process_rows(&rows);
    // Four edges probed for every row, the fifth (orders, total) only for
    // what the filter kept.
    assert_eq!(lookups, 4 * n + stats.rows_aggregated);
    assert!(stats.probes > lookups, "the orders edge should have been spared");

    // Cut the plan after the partsupp edge: nothing is left to spare.
    plan.joins.truncate(4);
    plan.group_by.clear();
    plan.aggregates = vec![AggSpec::count("n")];
    let mut exec = Executor::bind(&plan, &data, &mut cache).unwrap();
    let lookups = exec.probe_lookups(&rows);
    assert_eq!(lookups, exec.process_rows(&rows).probes);
    assert_eq!(lookups, 4 * n);
}
