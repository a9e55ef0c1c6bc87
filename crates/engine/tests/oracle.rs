//! Property-based differential test: the columnar executor against a naive
//! row-at-a-time oracle, over randomly generated star-join aggregation
//! queries. Any divergence in join resolution, predicate evaluation, or
//! aggregate accounting shows up here.

use rotary_check::{check, Source};
use rotary_engine::agg::{AggFunc, AggSpec};
use rotary_engine::expr::{CmpOp, ColRef, Expr, Pred};
use rotary_engine::plan::{GroupKey, JoinEdge, QueryClass, QueryPlan};
use rotary_engine::{Executor, IndexCache};
use rotary_tpch::{date, Generator, TpchData};
use std::collections::HashMap;
use std::sync::OnceLock;

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| Generator::new(99, 0.001).generate())
}

/// Random fact-table predicates over lineitem columns.
fn arb_leaf(src: &mut Source) -> Pred {
    match src.usize_in(0, 5) {
        0 => {
            let lo = src.i64_in(1, 50);
            let span = src.i64_in(0, 25);
            Pred::IntRange { col: ColRef::fact("l_quantity"), lo, hi: lo + span }
        }
        1 => {
            let c = src.u32_in(0, 8);
            Pred::FloatRange { col: ColRef::fact("l_discount"), lo: 0.0, hi: c as f64 / 100.0 }
        }
        2 => {
            let lo = src.i64_in(0, 2199) as i32;
            let span = src.i64_in(1, 499) as i32;
            Pred::DateRange { col: ColRef::fact("l_shipdate"), lo, hi: lo + span }
        }
        3 => Pred::CatEq {
            col: ColRef::fact("l_returnflag"),
            value: src.pick(&["R", "A", "N"]).to_string(),
        },
        4 => {
            let values = src.vec_of(1, 2, |s| s.pick(&["AIR", "MAIL", "SHIP", "RAIL"]).to_string());
            Pred::CatIn { col: ColRef::fact("l_shipmode"), values }
        }
        _ => Pred::RefCmp {
            a: ColRef::fact("l_commitdate"),
            op: CmpOp::Lt,
            b: ColRef::fact("l_receiptdate"),
        },
    }
}

/// One or two combinator levels over the leaves hit the And/Or/Not paths.
fn arb_fact_pred(src: &mut Source, depth: usize) -> Pred {
    if depth == 0 || src.bool(0.4) {
        return arb_leaf(src);
    }
    match src.usize_in(0, 2) {
        0 => {
            let n = src.usize_in(1, 2);
            Pred::And((0..n).map(|_| arb_fact_pred(src, depth - 1)).collect())
        }
        1 => {
            let n = src.usize_in(1, 2);
            Pred::Or((0..n).map(|_| arb_fact_pred(src, depth - 1)).collect())
        }
        _ => Pred::Not(Box::new(arb_fact_pred(src, depth - 1))),
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    NoJoin,
    Orders,
    OrdersCustomer,
}

const SHAPES: [Shape; 3] = [Shape::NoJoin, Shape::Orders, Shape::OrdersCustomer];

const AGGS: [AggFunc; 5] = [AggFunc::Sum, AggFunc::Avg, AggFunc::Count, AggFunc::Min, AggFunc::Max];

fn build_plan(shape: Shape, pred: Pred, agg: AggFunc, grouped: bool) -> QueryPlan {
    let joins = match shape {
        Shape::NoJoin => vec![],
        Shape::Orders => {
            vec![JoinEdge::new("o", "orders", ColRef::fact("l_orderkey"), "o_orderkey")]
        }
        Shape::OrdersCustomer => vec![
            JoinEdge::new("o", "orders", ColRef::fact("l_orderkey"), "o_orderkey"),
            JoinEdge::new("c", "customer", ColRef::via("o", "o_custkey"), "c_custkey"),
        ],
    };
    let filter = match shape {
        Shape::NoJoin => pred,
        // Exercise a joined-column predicate too.
        Shape::Orders | Shape::OrdersCustomer => Pred::And(vec![
            pred,
            Pred::DateRange { col: ColRef::via("o", "o_orderdate"), lo: 0, hi: date(1998, 1, 1) },
        ]),
    };
    QueryPlan {
        label: "prop".into(),
        fact: "lineitem".into(),
        joins,
        filter,
        group_by: if grouped { vec![GroupKey::Raw(ColRef::fact("l_returnflag"))] } else { vec![] },
        aggregates: vec![
            AggSpec::new("agg", agg, Expr::Col(ColRef::fact("l_extendedprice"))),
            AggSpec::count("n"),
        ],
        class: QueryClass::Light,
    }
}

/// Naive oracle: resolve joins and evaluate the predicate row by row with
/// independent logic.
/// Per-group `(sum, count, min, max)` of the first aggregate's input.
type OracleGroups = HashMap<i64, (f64, u64, f64, f64)>;

fn oracle(plan: &QueryPlan, data: &TpchData) -> (OracleGroups, u64) {
    let li = &data.lineitem;
    let orders_idx = data.orders.primary_index("o_orderkey");
    let cust_idx = data.customer.primary_index("c_custkey");

    fn eval_pred(p: &Pred, data: &TpchData, li_row: usize, o_row: Option<usize>) -> bool {
        let col_at = |r: &ColRef| -> (&'static str, usize) {
            match r.alias.as_deref() {
                None => ("lineitem", li_row),
                Some("o") => ("orders", o_row.expect("orders joined")),
                Some(a) => panic!("oracle does not know alias {a}"),
            }
        };
        fn table<'a>(name: &str, data: &'a TpchData) -> &'a rotary_tpch::Table {
            data.table(name).unwrap()
        }
        match p {
            Pred::True => true,
            Pred::IntRange { col, lo, hi } => {
                let (t, r) = col_at(col);
                let v = table(t, data).column_required(&col.column).int(r);
                *lo <= v && v <= *hi
            }
            Pred::FloatRange { col, lo, hi } => {
                let (t, r) = col_at(col);
                let v = table(t, data).column_required(&col.column).float(r);
                *lo <= v && v <= *hi
            }
            Pred::DateRange { col, lo, hi } => {
                let (t, r) = col_at(col);
                let v = table(t, data).column_required(&col.column).date_at(r);
                *lo <= v && v < *hi
            }
            Pred::CatEq { col, value } => {
                let (t, r) = col_at(col);
                table(t, data).column_required(&col.column).cat_str(r) == value
            }
            Pred::CatIn { col, values } => {
                let (t, r) = col_at(col);
                let s = table(t, data).column_required(&col.column).cat_str(r);
                values.iter().any(|v| v == s)
            }
            Pred::RefCmp { a, op, b } => {
                let (ta, ra) = col_at(a);
                let (tb, rb) = col_at(b);
                let va = table(ta, data).column_required(&a.column).numeric(ra);
                let vb = table(tb, data).column_required(&b.column).numeric(rb);
                match op {
                    CmpOp::Lt => va < vb,
                    CmpOp::Le => va <= vb,
                    CmpOp::Eq => va == vb,
                }
            }
            Pred::And(ps) => ps.iter().all(|p| eval_pred(p, data, li_row, o_row)),
            Pred::Or(ps) => ps.iter().any(|p| eval_pred(p, data, li_row, o_row)),
            Pred::Not(p) => !eval_pred(p, data, li_row, o_row),
            other => panic!("oracle does not generate {other:?}"),
        }
    }

    let mut groups: OracleGroups = HashMap::new();
    let mut total = 0u64;
    let has_orders = !plan.joins.is_empty();
    let has_customer = plan.joins.len() > 1;
    for r in 0..li.rows() {
        let o_row = if has_orders {
            let key = li.column_required("l_orderkey").int(r);
            Some(orders_idx[&key] as usize)
        } else {
            None
        };
        if has_customer {
            // The join must resolve (it always does, FK integrity); touch
            // the index to mirror the executor's probe.
            let c_key = data.orders.column_required("o_custkey").int(o_row.unwrap());
            let _ = cust_idx[&c_key];
        }
        if !eval_pred(&plan.filter, data, r, o_row) {
            continue;
        }
        let key = if plan.group_by.is_empty() {
            0
        } else {
            li.column_required("l_returnflag").cat_code(r) as i64
        };
        let v = li.column_required("l_extendedprice").float(r);
        let e = groups.entry(key).or_insert((0.0, 0, f64::INFINITY, f64::NEG_INFINITY));
        e.0 += v;
        e.1 += 1;
        e.2 = e.2.min(v);
        e.3 = e.3.max(v);
        total += 1;
    }
    (groups, total)
}

fn assert_executor_matches_oracle(pred: Pred, shape: Shape, agg: AggFunc, grouped: bool) {
    let data = data();
    let plan = build_plan(shape, pred, agg, grouped);
    let mut cache = IndexCache::new();
    let mut exec = Executor::bind(&plan, data, &mut cache).unwrap();
    exec.process_all();

    let (oracle_groups, oracle_total) = oracle(&plan, data);

    // Row counts must agree exactly.
    assert_eq!(exec.state().combined(1), Some(oracle_total as f64), "row count divergence");
    // Group count must agree.
    let expected_groups = if oracle_total == 0 { 0 } else { oracle_groups.len() };
    assert_eq!(exec.state().group_count(), expected_groups);

    // The first aggregate, combined across groups, must match the
    // oracle's fold (within float tolerance for sums).
    let oracle_value = {
        let (sum, count, min, max) = oracle_groups.values().fold(
            (0.0, 0u64, f64::INFINITY, f64::NEG_INFINITY),
            |(s, c, lo, hi), &(gs, gc, glo, ghi)| (s + gs, c + gc, lo.min(glo), hi.max(ghi)),
        );
        if count == 0 {
            // COUNT over empty input is 0, not NULL (the executor is
            // right; earlier versions of this oracle said None here).
            if agg == AggFunc::Count {
                Some(0.0)
            } else {
                None
            }
        } else {
            Some(match agg {
                AggFunc::Sum => sum,
                AggFunc::Avg => sum / count as f64,
                AggFunc::Count => count as f64,
                // arb_agg never generates CountDistinct (the oracle
                // would need per-group value sets); covered by unit
                // tests instead.
                AggFunc::CountDistinct => unreachable!(),
                AggFunc::Min => min,
                AggFunc::Max => max,
            })
        }
    };
    match (exec.state().combined(0), oracle_value) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0), "aggregate divergence: {a} vs {b}");
        }
        (a, b) => panic!("presence divergence: {a:?} vs {b:?}"),
    }
}

#[test]
fn executor_matches_oracle() {
    check("executor_matches_oracle", |src| {
        let pred = arb_fact_pred(src, 2);
        let shape = *src.pick(&SHAPES);
        let agg = *src.pick(&AGGS);
        let grouped = src.bool(0.5);
        assert_executor_matches_oracle(pred, shape, agg, grouped);
    });
}

/// Former proptest regression seed (`oracle.proptest-regressions`): a
/// shrunken empty-selectivity conjunction that once diverged, preserved as
/// a named deterministic case.
#[test]
fn regression_empty_conjunction_count_no_join() {
    let pred = Pred::And(vec![
        Pred::DateRange { col: ColRef::fact("l_shipdate"), lo: 0, hi: 1 },
        Pred::IntRange { col: ColRef::fact("l_quantity"), lo: 1, hi: 1 },
    ]);
    assert_executor_matches_oracle(pred, Shape::NoJoin, AggFunc::Count, false);
}

// ---------------------------------------------------------------------------
// Columnar ≡ row engine on staged plans
// ---------------------------------------------------------------------------
//
// The columnar engine evaluates filter conjuncts as soon as the slots they
// read are resolved, compacts the survivors, and *derives* the probe counter
// for edges it no longer needs to look up (DESIGN.md §5). The row engine
// (`process_rows_rowwise`) resolves every edge, then filters. The property
// below draws plans that exercise every part of that difference — conjuncts
// on every slot, `Or`/`Not`/`RefCmp` spanning slots, predicate-valued
// aggregates, and an edge that can miss at each position — and demands the
// same three counters on every batch and the same accumulator bits at the
// end.

/// The join chain the staged plans draw a prefix of: `(alias, table, fk, pk)`.
fn chain() -> [JoinEdge; 5] {
    [
        JoinEdge::new("o", "orders", ColRef::fact("l_orderkey"), "o_orderkey"),
        JoinEdge::new("c", "customer", ColRef::via("o", "o_custkey"), "c_custkey"),
        JoinEdge::new("cn", "nation", ColRef::via("c", "c_nationkey"), "n_nationkey"),
        JoinEdge::new("p", "part", ColRef::fact("l_partkey"), "p_partkey"),
        JoinEdge::new("s", "supplier", ColRef::fact("l_suppkey"), "s_suppkey"),
    ]
}

/// `table` with every `every`-th value of Int column `col` replaced by a key
/// no dimension holds.
fn damage_fk(table: &rotary_tpch::Table, col: &str, every: usize) -> rotary_tpch::Table {
    let columns = table
        .columns()
        .map(|(name, column)| {
            let column = match column {
                rotary_tpch::Column::Int(v) if name == col => rotary_tpch::Column::Int(
                    v.iter()
                        .enumerate()
                        .map(|(r, &k)| if r % every == 0 { -7 } else { k })
                        .collect(),
                ),
                other => other.clone(),
            };
            (name.to_string(), column)
        })
        .collect();
    rotary_tpch::Table::new(table.name(), columns)
}

/// `datasets()[0]` is intact; `datasets()[k]` has edge `k − 1` of [`chain`]
/// made non-total (its FK column points some rows at a missing key).
fn datasets() -> &'static [TpchData] {
    static DATA: OnceLock<Vec<TpchData>> = OnceLock::new();
    DATA.get_or_init(|| {
        let intact = data().clone();
        let mut all = vec![intact.clone(); 6];
        all[1].lineitem = damage_fk(&intact.lineitem, "l_orderkey", 3);
        all[2].orders = damage_fk(&intact.orders, "o_custkey", 2);
        all[3].customer = damage_fk(&intact.customer, "c_nationkey", 5);
        all[4].lineitem = damage_fk(&intact.lineitem, "l_partkey", 4);
        all[5].lineitem = damage_fk(&intact.lineitem, "l_suppkey", 7);
        all
    })
}

/// A leaf over one slot (`joined` aliases are available) or, for `RefCmp`,
/// over two.
fn arb_slot_leaf(src: &mut Source, joined: &[&str]) -> Pred {
    let slot = src.usize_in(0, joined.len());
    if slot == 0 {
        return arb_leaf(src);
    }
    let via = |c: &str| ColRef::via(joined[slot - 1], c);
    match joined[slot - 1] {
        "o" => match src.usize_in(0, 3) {
            0 => {
                let lo = src.i64_in(0, 2199) as i32;
                Pred::DateRange { col: via("o_orderdate"), lo, hi: lo + src.i64_in(1, 900) as i32 }
            }
            1 => Pred::CatEq {
                col: via("o_orderstatus"),
                value: src.pick(&["F", "O", "P"]).to_string(),
            },
            2 => Pred::FloatRange { col: via("o_totalprice"), lo: 0.0, hi: src.f64_in(1e3, 4e5) },
            _ => Pred::RefCmp {
                a: ColRef::fact("l_shipdate"),
                op: *src.pick(&[CmpOp::Lt, CmpOp::Le, CmpOp::Eq]),
                b: via("o_orderdate"),
            },
        },
        "c" => match src.usize_in(0, 1) {
            0 => Pred::CatIn {
                col: via("c_mktsegment"),
                values: src.vec_of(1, 3, |s| {
                    s.pick(&["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"])
                        .to_string()
                }),
            },
            _ => Pred::FloatRange { col: via("c_acctbal"), lo: src.f64_in(-999.0, 5e3), hi: 1e4 },
        },
        "cn" => match src.usize_in(0, 1) {
            0 => {
                let lo = src.i64_in(0, 4);
                Pred::IntRange { col: via("n_regionkey"), lo, hi: lo + src.i64_in(0, 2) }
            }
            _ => Pred::IntIn {
                col: via("n_nationkey"),
                values: src.vec_of(1, 8, |s| s.i64_in(0, 24)),
            },
        },
        "p" => match src.usize_in(0, 2) {
            0 => Pred::IntRange { col: via("p_size"), lo: 1, hi: src.i64_in(1, 50) },
            1 => Pred::CatPrefix {
                col: via("p_type"),
                prefix: src.pick(&["PROMO", "STANDARD", "SMALL", "ECONOMY"]).to_string(),
            },
            _ => Pred::RefCmp {
                a: via("p_retailprice"),
                op: CmpOp::Lt,
                b: ColRef::fact("l_extendedprice"),
            },
        },
        "s" => match (src.usize_in(0, 1), joined.contains(&"c")) {
            // q5's cross-dimension equality.
            (0, true) => Pred::RefCmp {
                a: via("s_nationkey"),
                op: CmpOp::Eq,
                b: ColRef::via("c", "c_nationkey"),
            },
            _ => Pred::FloatRange { col: via("s_acctbal"), lo: src.f64_in(-999.0, 9e3), hi: 1e4 },
        },
        other => unreachable!("chain has no alias {other}"),
    }
}

fn arb_staged_pred(src: &mut Source, joined: &[&str], depth: usize) -> Pred {
    if depth == 0 || src.bool(0.5) {
        return arb_slot_leaf(src, joined);
    }
    let children = |src: &mut Source| {
        let n = src.usize_in(1, 3);
        (0..n).map(|_| arb_staged_pred(src, joined, depth - 1)).collect()
    };
    match src.usize_in(0, 2) {
        0 => Pred::And(children(src)),
        1 => Pred::Or(children(src)),
        _ => Pred::Not(Box::new(arb_staged_pred(src, joined, depth - 1))),
    }
}

fn arb_staged_plan(src: &mut Source) -> QueryPlan {
    let edges = src.usize_in(0, 5);
    let joins: Vec<JoinEdge> = chain()[..edges].to_vec();
    let joined: Vec<&str> = ["o", "c", "cn", "p", "s"][..edges].to_vec();
    let conjuncts = src.usize_in(0, 4);
    let filter = match conjuncts {
        0 => Pred::True,
        n => Pred::And((0..n).map(|_| arb_staged_pred(src, &joined, 2)).collect()),
    };
    let group_by = match src.usize_in(0, 3) {
        1 => vec![GroupKey::Raw(ColRef::fact("l_returnflag"))],
        2 if joined.contains(&"cn") => vec![GroupKey::Raw(ColRef::via("cn", "n_name"))],
        3 if joined.contains(&"o") => vec![
            GroupKey::Year(ColRef::via("o", "o_orderdate")),
            GroupKey::Raw(ColRef::fact("l_linestatus")),
        ],
        _ => vec![],
    };
    let measure = match joined.last() {
        Some(&"p") => Expr::Col(ColRef::via("p", "p_retailprice")),
        Some(&"s") => Expr::Col(ColRef::via("s", "s_acctbal")),
        Some(&"o") => Expr::Col(ColRef::via("o", "o_totalprice")),
        _ => Expr::Col(ColRef::fact("l_quantity")),
    };
    QueryPlan {
        label: "staged".into(),
        fact: "lineitem".into(),
        joins,
        filter,
        group_by,
        aggregates: vec![
            AggSpec::new("revenue", AggFunc::Sum, Expr::revenue()),
            AggSpec::new("measure", *src.pick(&AGGS), measure),
            // q12/q14's conditional aggregate: a predicate as a value.
            AggSpec::new(
                "case",
                AggFunc::Sum,
                Expr::Mul(
                    Box::new(Expr::PredVal(Box::new(arb_staged_pred(src, &joined, 1)))),
                    Box::new(Expr::Col(ColRef::fact("l_extendedprice"))),
                ),
            ),
            AggSpec::count("n"),
        ],
        class: QueryClass::Medium,
    }
}

type GroupBits = Vec<(Vec<i64>, Vec<Option<u64>>)>;

fn group_bits(exec: &Executor) -> GroupBits {
    exec.state()
        .grouped_results()
        .into_iter()
        .map(|(k, vs)| (k, vs.into_iter().map(|v| v.map(f64::to_bits)).collect()))
        .collect()
}

#[test]
fn columnar_matches_row_engine_on_staged_plans() {
    check("columnar_matches_row_engine_on_staged_plans", |src| {
        let plan = arb_staged_plan(src);
        let data = &datasets()[src.usize_in(0, plan.joins.len())];
        let batch = *src.pick(&[1usize, 1023, 1024, 1025, 3606]);
        let order_seed = src.u64_in(0, 1 << 20);

        let mut cache = IndexCache::new();
        let mut oracle = Executor::bind(&plan, data, &mut cache).unwrap();
        let mut columnar = Executor::bind(&plan, data, &mut cache).unwrap();
        let n = data.lineitem.rows();
        let mut source = rotary_tpch::BatchSource::new(order_seed, n, batch);
        // Batches of one row are slow to drive; a few thousand of them
        // cover the chunk grid's degenerate end just as well.
        let limit = if batch == 1 { 2_000 } else { usize::MAX };
        for taken in 0..limit {
            let Some(rows) = source.next_batch() else { break };
            let expect = oracle.process_rows_rowwise(rows);
            assert_eq!(columnar.process_rows(rows), expect, "batch {taken} of {batch} rows");
        }
        assert_eq!(columnar.totals(), oracle.totals());
        assert_eq!(group_bits(&columnar), group_bits(&oracle));

        // The fan-out path evaluates the same chunks on workers.
        let delivered = source.delivered();
        let all = rotary_tpch::BatchSource::new(order_seed, n, n).replay_prefix(delivered).to_vec();
        let threads = *src.pick(&[2usize, 4, 8]);
        let mut parallel = Executor::bind(&plan, data, &mut cache).unwrap();
        let stats = parallel.process_rows_with(&rotary_par::ThreadPool::new(threads), &all);
        assert_eq!(stats, oracle.totals(), "threads={threads}");
        assert_eq!(group_bits(&parallel), group_bits(&oracle), "threads={threads}");
    });
}

#[test]
fn row_and_columnar_engines_agree_on_all_22_plans() {
    // The repo-level determinism suite compares the engines on q3/q6/q7;
    // q9 — the one shipped plan with an edge that can miss — and the other
    // eighteen are compared here, at every pool width.
    let data = data();
    let mut cache = IndexCache::new();
    for q in rotary_engine::QueryId::all() {
        let plan = rotary_engine::query(q);
        let mut oracle = Executor::bind(&plan, data, &mut cache).unwrap();
        let n = oracle.fact_rows();
        let rows = rotary_tpch::BatchSource::new(5, n, n).next_batch().unwrap().to_vec();
        let expect = oracle.process_rows_rowwise(&rows);
        for threads in [1usize, 2, 4, 8] {
            let mut columnar = Executor::bind(&plan, data, &mut cache).unwrap();
            let pool = rotary_par::ThreadPool::new(threads);
            assert_eq!(columnar.process_rows_with(&pool, &rows), expect, "{q} threads={threads}");
            assert_eq!(group_bits(&columnar), group_bits(&oracle), "{q} threads={threads}");
        }
    }
}
