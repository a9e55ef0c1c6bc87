//! Plan binding and batch execution.
//!
//! [`Executor::bind`] compiles a [`QueryPlan`] against a concrete
//! [`TpchData`]: aliases become slot indices, column names become column
//! references, string literals become dictionary-code masks, and each join
//! edge gets a primary-key hash index (built once per dataset and shared
//! through [`IndexCache`] — the multi-tenant AQP system binds the same 22
//! plans for every submitted job). [`Executor::process_rows`] then performs
//! genuine per-row work: hash-join probes, predicate evaluation, and
//! aggregate updates, returning operation counts the cost model converts to
//! virtual time.
//!
//! # Parallel batch execution
//!
//! Batch execution is the data plane of the control-plane/data-plane split
//! (see DESIGN.md): [`Executor::process_rows_with`] cuts a batch into
//! fixed-size row chunks ([`PAR_CHUNK_ROWS`], independent of the thread
//! count), evaluates joins/filters/expressions per chunk on a
//! [`rotary_par::ThreadPool`], and folds the chunk outputs back serially in
//! **fixed chunk order**: chunks emit the surviving rows' group keys and
//! expression values, and the fold replays `AggState::update` in original
//! row order — *bit-identical* to the row-at-a-time oracle at every thread
//! count, which is what keeps the EXPERIMENTS.md calibrations valid. No
//! system calls it: an epoch's 1 % batch is below [`PAR_MIN_ROWS`], and
//! start-up fans whole scans out one per lane instead (DESIGN.md §5). It
//! stays for the frozen end-to-end benchmark's `engine.par_speedup` probe.
//!
//! # Columnar data plane
//!
//! Since the columnar rewrite, every chunk — including the sequential
//! [`Executor::process_rows`] path, which is just the chunk loop run inline
//! — is evaluated by [`crate::columnar`]: batch hash probes through
//! deterministic open-addressed [`crate::kernels::PkIndex`]es, predicate
//! trees folded into selection bitmaps, and column-at-a-time expression
//! kernels. Evaluation is filter-first: binding splits the filter into
//! per-slot stages that run below the join probes they do not need, and
//! decides per edge whether it is *total* so the probe counter stays exact
//! (see the counter argument in [`crate::columnar`]). The pre-rewrite row
//! interpreter survives as
//! [`Executor::process_rows_rowwise`], the oracle the columnar engine is
//! proven bit-identical against (`tests/kernel_equivalence.rs`, the golden
//! trace, and the determinism suite).

use std::collections::BTreeMap;
use std::sync::Arc;

use rotary_core::RotaryError;
use rotary_par::ThreadPool;
use rotary_tpch::date::year_of;
use rotary_tpch::{Column, Table, TpchData};

use crate::agg::AggState;
use crate::columnar::{self, ChunkScratch};
use crate::expr::{CmpOp, ColRef, Expr, Pred};
use crate::kernels::{PkIndex, PkIndex2};
use crate::plan::{GroupKey, QueryPlan};

/// A shared single-column primary-key index (deterministic open addressing —
/// see [`crate::kernels::PkIndex`]).
type SingleIndex = Arc<PkIndex>;
/// A shared composite (two-column) primary-key index.
type CompositeIndex = Arc<PkIndex2>;

/// One cached index plus, for each FK source that has been bound against it,
/// whether that source is *total*: every row of the source table resolves
/// through the index. A handful of entries, matched by `&str`, so a warm
/// bind allocates nothing for the verdict.
#[derive(Debug)]
struct Cached<I> {
    index: Arc<I>,
    total: Vec<(String, Vec<String>, bool)>,
}

impl<I> Cached<I> {
    fn new(index: I) -> Cached<I> {
        Cached { index: Arc::new(index), total: Vec::new() }
    }

    /// The totality verdict for `fk` columns of table `src`, running `scan`
    /// (one pass over the FK column(s)) the first time the pair is seen.
    fn total_from(&mut self, src: &Table, fk: &[ColRef], scan: impl FnOnce(&I) -> bool) -> bool {
        let known = self.total.iter().find(|(table, cols, _)| {
            table == src.name() && cols.iter().eq(fk.iter().map(|c| &c.column))
        });
        if let Some(&(_, _, total)) = known {
            return total;
        }
        let total = scan(&self.index);
        self.total.push((
            src.name().to_string(),
            fk.iter().map(|c| c.column.clone()).collect(),
            total,
        ));
        total
    }
}

/// Shared primary-key indexes, keyed by `(table, key-columns)`, each with the
/// totality verdicts of the join edges that probe it.
///
/// One cache must only ever be used with the dataset it was first populated
/// from; the AQP system owns one cache per dataset.
#[derive(Debug, Default)]
pub struct IndexCache {
    single: BTreeMap<(String, String), Cached<PkIndex>>,
    composite: BTreeMap<(String, String, String), Cached<PkIndex2>>,
}

impl IndexCache {
    /// An empty cache.
    pub fn new() -> IndexCache {
        IndexCache::default()
    }

    fn single_index(&mut self, table: &Table, key: &str) -> &mut Cached<PkIndex> {
        self.single.entry((table.name().to_string(), key.to_string())).or_insert_with(|| {
            let Column::Int(values) = table.column_required(key) else {
                panic!("primary key column {key} must be Int");
            };
            Cached::new(PkIndex::build(values))
        })
    }

    fn composite_index(
        &mut self,
        table: &Table,
        key_a: &str,
        key_b: &str,
    ) -> &mut Cached<PkIndex2> {
        self.composite
            .entry((table.name().to_string(), key_a.to_string(), key_b.to_string()))
            .or_insert_with(|| {
                let (Column::Int(a), Column::Int(b)) =
                    (table.column_required(key_a), table.column_required(key_b))
                else {
                    panic!("composite key columns {key_a}/{key_b} must be Int");
                };
                Cached::new(PkIndex2::build(a, b))
            })
    }

    /// Total entries across all cached indexes (for memory estimation).
    pub fn total_entries(&self) -> usize {
        self.single.values().map(|c| c.index.len()).sum::<usize>()
            + self.composite.values().map(|c| c.index.len()).sum::<usize>()
    }
}

/// A bound join index — shared, deterministic, probe-only.
#[derive(Debug, Clone)]
pub(crate) enum BoundIndex {
    /// Single-column primary key.
    Single(SingleIndex),
    /// Two-column composite primary key.
    Composite(CompositeIndex),
}

/// One bound join edge: FK columns on `src_slot` probing `index`.
#[derive(Debug, Clone)]
pub(crate) struct BoundEdge<'a> {
    pub(crate) src_slot: usize,
    pub(crate) fk: Vec<&'a Column>,
    pub(crate) index: BoundIndex,
    /// Every row of the source table resolves through `index`: the edge can
    /// never drop a row (see [`crate::columnar`]'s counter argument).
    pub(crate) total: bool,
}

/// A bound aggregate expression tree (slots + column refs resolved).
#[derive(Debug, Clone)]
pub(crate) enum BoundExpr<'a> {
    /// A column read through a slot's resolved row.
    Col {
        /// Slot whose resolved row id indexes the column.
        slot: usize,
        /// The column itself.
        col: &'a Column,
    },
    /// A literal constant.
    Lit(f64),
    /// Element-wise sum.
    Add(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    /// Element-wise difference.
    Sub(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    /// Element-wise product.
    Mul(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    /// Guarded element-wise division (`x / 0 = 0`).
    Div(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    /// Predicate-as-value: 1.0 when true, 0.0 when false.
    PredVal(Box<BoundPred<'a>>),
}

impl BoundExpr<'_> {
    fn eval(&self, ctx: &[u32]) -> f64 {
        match self {
            BoundExpr::Col { slot, col } => col.numeric(ctx[*slot] as usize),
            BoundExpr::Lit(v) => *v,
            BoundExpr::Add(a, b) => a.eval(ctx) + b.eval(ctx),
            BoundExpr::Sub(a, b) => a.eval(ctx) - b.eval(ctx),
            BoundExpr::Mul(a, b) => a.eval(ctx) * b.eval(ctx),
            BoundExpr::Div(a, b) => {
                let d = b.eval(ctx);
                if d == 0.0 {
                    0.0
                } else {
                    a.eval(ctx) / d
                }
            }
            BoundExpr::PredVal(p) => {
                if p.eval(ctx) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// A bound predicate tree. All leaves are total and side-effect-free — the
/// property the columnar bitmap evaluation relies on.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub(crate) enum BoundPred<'a> {
    True,
    IntRange { slot: usize, col: &'a Column, lo: i64, hi: i64 },
    IntIn { slot: usize, col: &'a Column, values: Vec<i64> },
    FloatRange { slot: usize, col: &'a Column, lo: f64, hi: f64 },
    DateRange { slot: usize, col: &'a Column, lo: i32, hi: i32 },
    CatMask { slot: usize, col: &'a Column, mask: Vec<bool> },
    RefCmp { a_slot: usize, a: &'a Column, op: CmpOp, b_slot: usize, b: &'a Column },
    And(Vec<BoundPred<'a>>),
    Or(Vec<BoundPred<'a>>),
    Not(Box<BoundPred<'a>>),
}

impl BoundPred<'_> {
    fn eval(&self, ctx: &[u32]) -> bool {
        match self {
            BoundPred::True => true,
            BoundPred::IntRange { slot, col, lo, hi } => {
                let v = col.int(ctx[*slot] as usize);
                *lo <= v && v <= *hi
            }
            BoundPred::IntIn { slot, col, values } => {
                values.contains(&col.int(ctx[*slot] as usize))
            }
            BoundPred::FloatRange { slot, col, lo, hi } => {
                let v = col.float(ctx[*slot] as usize);
                *lo <= v && v <= *hi
            }
            BoundPred::DateRange { slot, col, lo, hi } => {
                let v = col.date_at(ctx[*slot] as usize);
                *lo <= v && v < *hi
            }
            BoundPred::CatMask { slot, col, mask } => {
                mask[col.cat_code(ctx[*slot] as usize) as usize]
            }
            BoundPred::RefCmp { a_slot, a, op, b_slot, b } => {
                let x = a.numeric(ctx[*a_slot] as usize);
                let y = b.numeric(ctx[*b_slot] as usize);
                match op {
                    CmpOp::Lt => x < y,
                    CmpOp::Le => x <= y,
                    CmpOp::Eq => x == y,
                }
            }
            BoundPred::And(ps) => ps.iter().all(|p| p.eval(ctx)),
            BoundPred::Or(ps) => ps.iter().any(|p| p.eval(ctx)),
            BoundPred::Not(p) => !p.eval(ctx),
        }
    }

    /// The highest slot the predicate reads: it can be evaluated as soon as
    /// that slot is resolved.
    fn max_slot(&self) -> usize {
        match self {
            BoundPred::True => 0,
            BoundPred::IntRange { slot, .. }
            | BoundPred::IntIn { slot, .. }
            | BoundPred::FloatRange { slot, .. }
            | BoundPred::DateRange { slot, .. }
            | BoundPred::CatMask { slot, .. } => *slot,
            BoundPred::RefCmp { a_slot, b_slot, .. } => *a_slot.max(b_slot),
            BoundPred::And(ps) | BoundPred::Or(ps) => {
                ps.iter().map(BoundPred::max_slot).max().unwrap_or(0)
            }
            BoundPred::Not(p) => p.max_slot(),
        }
    }

    /// Appends the conjuncts of the top-level conjunction (nested `And`s
    /// flattened, `True` dropped) to `out`.
    fn split_conjuncts(self, out: &mut Vec<Self>) {
        match self {
            BoundPred::True => {}
            BoundPred::And(ps) => ps.into_iter().for_each(|p| p.split_conjuncts(out)),
            other => out.push(other),
        }
    }
}

/// A bound group-by key extractor.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub(crate) enum BoundGroup<'a> {
    Raw { slot: usize, col: &'a Column },
    Year { slot: usize, col: &'a Column },
}

impl BoundGroup<'_> {
    fn eval(&self, ctx: &[u32]) -> i64 {
        match self {
            BoundGroup::Raw { slot, col } => match col {
                Column::Int(v) => v[ctx[*slot] as usize],
                Column::Date(v) => v[ctx[*slot] as usize] as i64,
                Column::Cat { codes, .. } => codes[ctx[*slot] as usize] as i64,
                Column::Float(_) => {
                    // Unreachable in practice: `Executor::bind` rejects
                    // float group columns with a typed error before any
                    // BoundGroup is constructed.
                    debug_assert!(false, "bind rejects float group columns");
                    0
                }
            },
            BoundGroup::Year { slot, col } => year_of(col.date_at(ctx[*slot] as usize)) as i64,
        }
    }
}

/// Work counters for one `process_rows` call; the cost model converts these
/// to virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Fact rows scanned.
    pub rows_scanned: u64,
    /// Hash-join probes performed.
    pub probes: u64,
    /// Rows that survived joins + filter and updated aggregates.
    pub rows_aggregated: u64,
}

impl BatchStats {
    /// Total primitive row operations — the cost model's unit of work.
    pub fn row_ops(&self) -> u64 {
        self.rows_scanned + self.probes + self.rows_aggregated
    }

    /// Accumulates another batch's counters.
    pub fn add(&mut self, other: BatchStats) {
        self.rows_scanned += other.rows_scanned;
        self.probes += other.probes;
        self.rows_aggregated += other.rows_aggregated;
    }
}

/// Rows per parallel chunk. The chunk grid is a function of the batch
/// alone — never of the thread count — so any pool size produces the same
/// decomposition and, with the fixed-order fold, the same result.
pub const PAR_CHUNK_ROWS: usize = 1024;

/// Batches below this many rows skip the fan-out in
/// [`Executor::process_rows_with`]; the replay fold makes the outcome
/// bit-identical either way, so the threshold is purely a latency knob.
pub const PAR_MIN_ROWS: usize = 2 * PAR_CHUNK_ROWS;

/// A plan bound to a dataset, ready to consume fact-row batches.
#[derive(Debug)]
pub struct Executor<'a> {
    fact_rows: usize,
    pub(crate) edges: Vec<BoundEdge<'a>>,
    /// The whole filter, as the row oracle evaluates it.
    filter: BoundPred<'a>,
    /// The same filter as the columnar engine evaluates it: `stages[k]` is
    /// the conjunction that runs once slot `k` is resolved (`True` = none).
    pub(crate) stages: Vec<BoundPred<'a>>,
    pub(crate) groups: Vec<BoundGroup<'a>>,
    pub(crate) agg_exprs: Vec<BoundExpr<'a>>,
    state: AggState,
    totals: BatchStats,
    ctx_buf: Vec<u32>,
    key_buf: Vec<i64>,
    val_buf: Vec<f64>,
    scratch: ChunkScratch,
}

struct Binder<'a> {
    slots: Vec<&'a Table>,
    aliases: Vec<String>,
}

impl<'a> Binder<'a> {
    fn slot_of(&self, alias: &Option<String>) -> Result<usize, String> {
        match alias {
            None => Ok(0),
            Some(a) => self
                .aliases
                .iter()
                .position(|x| x == a)
                .map(|i| i + 1)
                .ok_or_else(|| format!("unknown alias {a}")),
        }
    }

    fn column(&self, r: &ColRef) -> Result<(usize, &'a Column), String> {
        let slot = self.slot_of(&r.alias)?;
        let table = self.slots[slot];
        table
            .column(&r.column)
            .map(|c| (slot, c))
            .ok_or_else(|| format!("table {} has no column {}", table.name(), r.column))
    }

    fn pred(&self, p: &Pred) -> Result<BoundPred<'a>, String> {
        Ok(match p {
            Pred::True => BoundPred::True,
            Pred::IntRange { col, lo, hi } => {
                let (slot, c) = self.column(col)?;
                BoundPred::IntRange { slot, col: c, lo: *lo, hi: *hi }
            }
            Pred::IntIn { col, values } => {
                let (slot, c) = self.column(col)?;
                BoundPred::IntIn { slot, col: c, values: values.clone() }
            }
            Pred::FloatRange { col, lo, hi } => {
                let (slot, c) = self.column(col)?;
                BoundPred::FloatRange { slot, col: c, lo: *lo, hi: *hi }
            }
            Pred::DateRange { col, lo, hi } => {
                let (slot, c) = self.column(col)?;
                BoundPred::DateRange { slot, col: c, lo: *lo, hi: *hi }
            }
            Pred::CatEq { col, value } => self.cat_mask(col, |s| s == value)?,
            Pred::CatIn { col, values } => self.cat_mask(col, |s| values.iter().any(|v| v == s))?,
            Pred::CatPrefix { col, prefix } => self.cat_mask(col, |s| s.starts_with(prefix))?,
            Pred::CatContains { col, substr } => self.cat_mask(col, |s| s.contains(substr))?,
            Pred::RefCmp { a, op, b } => {
                let (a_slot, ac) = self.column(a)?;
                let (b_slot, bc) = self.column(b)?;
                BoundPred::RefCmp { a_slot, a: ac, op: *op, b_slot, b: bc }
            }
            Pred::And(ps) => {
                BoundPred::And(ps.iter().map(|p| self.pred(p)).collect::<Result<_, _>>()?)
            }
            Pred::Or(ps) => {
                BoundPred::Or(ps.iter().map(|p| self.pred(p)).collect::<Result<_, _>>()?)
            }
            Pred::Not(p) => BoundPred::Not(Box::new(self.pred(p)?)),
        })
    }

    fn cat_mask(
        &self,
        col: &ColRef,
        matches: impl Fn(&str) -> bool,
    ) -> Result<BoundPred<'a>, String> {
        let (slot, c) = self.column(col)?;
        let Column::Cat { dict, .. } = c else {
            return Err(format!("{col} is not a category column"));
        };
        let mask = dict.iter().map(|s| matches(s)).collect();
        Ok(BoundPred::CatMask { slot, col: c, mask })
    }

    fn expr(&self, e: &Expr) -> Result<BoundExpr<'a>, String> {
        Ok(match e {
            Expr::Col(c) => {
                let (slot, col) = self.column(c)?;
                BoundExpr::Col { slot, col }
            }
            Expr::Lit(v) => BoundExpr::Lit(*v),
            Expr::Add(a, b) => BoundExpr::Add(Box::new(self.expr(a)?), Box::new(self.expr(b)?)),
            Expr::Sub(a, b) => BoundExpr::Sub(Box::new(self.expr(a)?), Box::new(self.expr(b)?)),
            Expr::Mul(a, b) => BoundExpr::Mul(Box::new(self.expr(a)?), Box::new(self.expr(b)?)),
            Expr::Div(a, b) => BoundExpr::Div(Box::new(self.expr(a)?), Box::new(self.expr(b)?)),
            Expr::PredVal(p) => BoundExpr::PredVal(Box::new(self.pred(p)?)),
        })
    }
}

impl<'a> Executor<'a> {
    /// Binds a plan to a dataset, building/reusing hash indexes via `cache`.
    ///
    /// Binding failures (unknown tables or columns, alias misuse,
    /// unsupported join shapes, float group columns) come back as
    /// [`RotaryError::PlanBind`] carrying the plan label.
    pub fn bind(
        plan: &QueryPlan,
        data: &'a TpchData,
        cache: &mut IndexCache,
    ) -> rotary_core::Result<Executor<'a>> {
        Executor::bind_inner(plan, data, cache)
            .map_err(|message| RotaryError::PlanBind { plan: plan.label.clone(), message })
    }

    fn bind_inner(
        plan: &QueryPlan,
        data: &'a TpchData,
        cache: &mut IndexCache,
    ) -> Result<Executor<'a>, String> {
        plan.validate()?;
        let fact =
            data.table(&plan.fact).ok_or_else(|| format!("unknown fact table {}", plan.fact))?;
        let mut binder = Binder { slots: vec![fact], aliases: Vec::new() };
        let mut edges = Vec::with_capacity(plan.joins.len());
        for edge in &plan.joins {
            let target = data
                .table(&edge.table)
                .ok_or_else(|| format!("unknown join table {}", edge.table))?;
            // All FK columns of one edge must come from the same slot.
            let mut src_slot = None;
            let mut fk_cols = Vec::with_capacity(edge.fk.len());
            for fk in &edge.fk {
                let (slot, col) = binder.column(fk)?;
                if *src_slot.get_or_insert(slot) != slot {
                    return Err(format!("join {}: FK columns span slots", edge.alias));
                }
                fk_cols.push(col);
            }
            let src_slot = src_slot.ok_or_else(|| format!("join {}: no FK columns", edge.alias))?;
            let src = binder.slots[src_slot];
            let (index, total) = match (edge.pk.as_slice(), fk_cols.as_slice()) {
                ([k], [Column::Int(fk)]) => {
                    let cached = cache.single_index(target, k);
                    let total = cached.total_from(src, &edge.fk, |index| {
                        !index.is_empty() && fk.iter().all(|&key| index.get(key).is_some())
                    });
                    (BoundIndex::Single(cached.index.clone()), total)
                }
                ([k1, k2], [Column::Int(fk_a), Column::Int(fk_b)]) => {
                    let cached = cache.composite_index(target, k1, k2);
                    let total = cached.total_from(src, &edge.fk, |index| {
                        !index.is_empty()
                            && fk_a.iter().zip(fk_b).all(|(&a, &b)| index.get(a, b).is_some())
                    });
                    (BoundIndex::Composite(cached.index.clone()), total)
                }
                _ => {
                    return Err(format!(
                        "join {}: keys must be one or two Int columns on each side",
                        edge.alias
                    ))
                }
            };
            edges.push(BoundEdge { src_slot, fk: fk_cols, index, total });
            binder.slots.push(target);
            binder.aliases.push(edge.alias.clone());
        }

        let filter = binder.pred(&plan.filter)?;
        let groups = plan
            .group_by
            .iter()
            .map(|g| {
                let (slot, col) = binder.column(g.col())?;
                if matches!((g, col), (GroupKey::Raw(_), Column::Float(_))) {
                    return Err(format!("cannot group by float column {}", g.col()));
                }
                Ok(match g {
                    GroupKey::Raw(_) => BoundGroup::Raw { slot, col },
                    GroupKey::Year(_) => BoundGroup::Year { slot, col },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let agg_exprs = plan
            .aggregates
            .iter()
            .map(|a| binder.expr(&a.expr))
            .collect::<Result<Vec<_>, String>>()?;
        let funcs = plan.aggregates.iter().map(|a| a.func).collect();

        let slots = binder.slots.len();
        // No stage may run before the slot resolved by the last edge that
        // can miss: up to there `probes` still depends on the joins.
        let first_push = edges.iter().rposition(|e| !e.total).map_or(0, |i| i + 1);
        let mut conjuncts = Vec::new();
        filter.clone().split_conjuncts(&mut conjuncts);
        let mut ready: Vec<Vec<BoundPred<'a>>> = vec![Vec::new(); slots];
        for conjunct in conjuncts {
            ready[conjunct.max_slot().max(first_push)].push(conjunct);
        }
        let stages = ready
            .into_iter()
            .map(|mut conjuncts| match conjuncts.len() {
                0 => BoundPred::True,
                1 => conjuncts.swap_remove(0),
                _ => BoundPred::And(conjuncts),
            })
            .collect();
        Ok(Executor {
            fact_rows: fact.rows(),
            edges,
            filter,
            stages,
            groups,
            agg_exprs,
            state: AggState::new(funcs),
            totals: BatchStats::default(),
            ctx_buf: vec![0; slots],
            key_buf: Vec::new(),
            val_buf: Vec::new(),
            scratch: ChunkScratch::default(),
        })
    }

    /// Navigates one fact row: resolves every join edge into `ctx` and
    /// applies the filter. Returns `true` iff the row survives (inner-join
    /// semantics: any missed probe drops the row). Used only by the
    /// row-at-a-time oracle path ([`Executor::process_rows_rowwise`]).
    #[inline]
    fn resolve_row(&self, row: u32, ctx: &mut [u32], stats: &mut BatchStats) -> bool {
        debug_assert!((row as usize) < self.fact_rows, "row index out of range");
        ctx[0] = row;
        for (i, edge) in self.edges.iter().enumerate() {
            stats.probes += 1;
            let src = ctx[edge.src_slot] as usize;
            let hit = match &edge.index {
                BoundIndex::Single(index) => index.get(edge.fk[0].int(src)),
                BoundIndex::Composite(index) => index.get(edge.fk[0].int(src), edge.fk[1].int(src)),
            };
            match hit {
                Some(target_row) => ctx[i + 1] = target_row,
                None => return false, // inner-join semantics
            }
        }
        self.filter.eval(ctx)
    }

    /// Processes a batch of fact-row indices, updating aggregate state.
    ///
    /// This is the sequential columnar path: the batch is cut into the same
    /// fixed [`PAR_CHUNK_ROWS`] grid the parallel paths use, each chunk is
    /// evaluated by the vectorized kernels in [`crate::columnar`], and the
    /// surviving rows replay through `AggState::update` in original row
    /// order — bit-identical to [`Executor::process_rows_rowwise`].
    pub fn process_rows(&mut self, rows: &[u32]) -> BatchStats {
        let ka = self.groups.len();
        let va = self.agg_exprs.len();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut stats = BatchStats::default();
        for chunk in rows.chunks(PAR_CHUNK_ROWS) {
            let out = columnar::eval_chunk(self, chunk, &mut scratch);
            stats.add(out.stats);
            for r in 0..out.stats.rows_aggregated as usize {
                self.state.update(&out.keys[r * ka..(r + 1) * ka], &out.vals[r * va..(r + 1) * va]);
            }
        }
        self.scratch = scratch;
        self.totals.add(stats);
        stats
    }

    /// The pre-columnar row-at-a-time interpreter, kept verbatim as the
    /// oracle the columnar engine is proven bit-identical against (golden
    /// trace, kernel-equivalence suite, determinism tests). Semantics and
    /// counters match [`Executor::process_rows`] exactly.
    pub fn process_rows_rowwise(&mut self, rows: &[u32]) -> BatchStats {
        let mut stats = BatchStats { rows_scanned: rows.len() as u64, ..Default::default() };
        let mut ctx = std::mem::take(&mut self.ctx_buf);
        let mut key = std::mem::take(&mut self.key_buf);
        let mut val = std::mem::take(&mut self.val_buf);
        for &row in rows {
            if !self.resolve_row(row, &mut ctx, &mut stats) {
                continue;
            }
            key.clear();
            for g in &self.groups {
                key.push(g.eval(&ctx));
            }
            val.clear();
            for e in &self.agg_exprs {
                val.push(e.eval(&ctx));
            }
            self.state.update(&key, &val);
            stats.rows_aggregated += 1;
        }
        self.ctx_buf = ctx;
        self.key_buf = key;
        self.val_buf = val;
        self.totals.add(stats);
        stats
    }

    /// Parallel [`Executor::process_rows`] — the **replay** fold.
    ///
    /// The batch is cut into [`PAR_CHUNK_ROWS`]-sized chunks whose
    /// join/filter/expression work runs on `pool` through the columnar
    /// chunk evaluator; the surviving rows' keys and values are then
    /// replayed through `AggState::update` serially, in original row order.
    /// Because aggregate updates happen in exactly the sequence the
    /// sequential loop would apply them, the result is bit-identical to
    /// [`Executor::process_rows`] at every pool size.
    pub fn process_rows_with(&mut self, pool: &ThreadPool, rows: &[u32]) -> BatchStats {
        if pool.threads() <= 1 || rows.len() < PAR_MIN_ROWS {
            return self.process_rows(rows);
        }
        let chunks: Vec<&[u32]> = rows.chunks(PAR_CHUNK_ROWS).collect();
        let outputs = {
            let this: &Executor<'a> = self;
            pool.map(&chunks, |_, chunk| {
                let mut scratch = ChunkScratch::default();
                columnar::eval_chunk(this, chunk, &mut scratch)
            })
        };
        let key_arity = self.groups.len();
        let val_arity = self.agg_exprs.len();
        let mut stats = BatchStats::default();
        for out in &outputs {
            stats.add(out.stats);
            for r in 0..out.stats.rows_aggregated as usize {
                self.state.update(
                    &out.keys[r * key_arity..(r + 1) * key_arity],
                    &out.vals[r * val_arity..(r + 1) * val_arity],
                );
            }
        }
        self.totals.add(stats);
        stats
    }

    /// Index lookups the data plane performs on a concrete batch.
    /// [`BatchStats::probes`] is what the row loop would have looked up;
    /// filter stages that run below the remaining (total) edges make this
    /// smaller. Pure function of the bound plan and the batch — no wall
    /// clock, so a test can pin it — and touches neither aggregate state nor
    /// totals.
    pub fn probe_lookups(&self, rows: &[u32]) -> u64 {
        let mut scratch = ChunkScratch::default();
        rows.chunks(PAR_CHUNK_ROWS)
            .map(|chunk| columnar::eval_chunk(self, chunk, &mut scratch).lookups)
            .sum()
    }

    /// Processes the *entire* fact table (ground-truth computation).
    pub fn process_all(&mut self) -> BatchStats {
        let rows: Vec<u32> = (0..self.fact_rows as u32).collect();
        self.process_rows(&rows)
    }

    /// Drops the aggregate groups and every per-batch buffer; the plan
    /// binding and the cumulative counters stay. For an executor that will
    /// process no further rows and whose aggregates are no longer read.
    pub fn release(&mut self) {
        self.state.clear();
        self.scratch = ChunkScratch::default();
    }

    /// The running aggregate state.
    pub fn state(&self) -> &AggState {
        &self.state
    }

    /// Cumulative work counters since binding.
    pub fn totals(&self) -> BatchStats {
        self.totals
    }

    /// Rows in the fact table.
    pub fn fact_rows(&self) -> usize {
        self.fact_rows
    }

    /// Number of join edges (for the cost model).
    pub fn join_count(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggFunc, AggSpec};
    use crate::plan::{JoinEdge, QueryClass};
    use rotary_tpch::{date, Generator};
    use std::collections::HashMap;

    fn data() -> TpchData {
        Generator::new(11, 0.002).generate()
    }

    fn q6ish() -> QueryPlan {
        QueryPlan {
            label: "q6ish".into(),
            fact: "lineitem".into(),
            joins: vec![],
            filter: Pred::And(vec![
                Pred::DateRange {
                    col: ColRef::fact("l_shipdate"),
                    lo: date(1994, 1, 1),
                    hi: date(1995, 1, 1),
                },
                Pred::IntRange { col: ColRef::fact("l_quantity"), lo: 1, hi: 23 },
            ]),
            group_by: vec![],
            aggregates: vec![
                AggSpec::new(
                    "revenue",
                    AggFunc::Sum,
                    Expr::Mul(
                        Box::new(Expr::Col(ColRef::fact("l_extendedprice"))),
                        Box::new(Expr::Col(ColRef::fact("l_discount"))),
                    ),
                ),
                AggSpec::count("n"),
            ],
            class: QueryClass::Light,
        }
    }

    #[test]
    fn scalar_filter_aggregate_matches_naive() {
        let d = data();
        let mut cache = IndexCache::new();
        let mut exec = Executor::bind(&q6ish(), &d, &mut cache).unwrap();
        exec.process_all();

        // Naive recomputation.
        let li = &d.lineitem;
        let mut expect = 0.0;
        let mut count = 0u64;
        for r in 0..li.rows() {
            let ship = li.column_required("l_shipdate").date_at(r);
            let qty = li.column_required("l_quantity").int(r);
            if ship >= date(1994, 1, 1) && ship < date(1995, 1, 1) && (1..=23).contains(&qty) {
                expect += li.column_required("l_extendedprice").float(r)
                    * li.column_required("l_discount").float(r);
                count += 1;
            }
        }
        assert!(count > 0, "test data too small for the predicate");
        let got = exec.state().combined(0).unwrap();
        assert!((got - expect).abs() < 1e-6);
        assert_eq!(exec.state().combined(1), Some(count as f64));
    }

    #[test]
    fn join_chain_resolves_dimensions() {
        let d = data();
        let mut cache = IndexCache::new();
        // Revenue by customer nation name through lineitem→orders→customer→nation.
        let plan = QueryPlan {
            label: "j".into(),
            fact: "lineitem".into(),
            joins: vec![
                JoinEdge::new("o", "orders", ColRef::fact("l_orderkey"), "o_orderkey"),
                JoinEdge::new("c", "customer", ColRef::via("o", "o_custkey"), "c_custkey"),
                JoinEdge::new("cn", "nation", ColRef::via("c", "c_nationkey"), "n_nationkey"),
            ],
            filter: Pred::CatEq { col: ColRef::via("cn", "n_name"), value: "FRANCE".into() },
            group_by: vec![],
            aggregates: vec![AggSpec::count("n")],
            class: QueryClass::Medium,
        };
        let mut exec = Executor::bind(&plan, &d, &mut cache).unwrap();
        let stats = exec.process_all();
        assert_eq!(stats.rows_scanned as usize, d.lineitem.rows());
        assert!(stats.probes >= stats.rows_scanned, "every row probes orders");

        // Naive: count lineitems whose order's customer is French.
        let cust_nation: Vec<i64> = (0..d.customer.rows())
            .map(|r| d.customer.column_required("c_nationkey").int(r))
            .collect();
        let order_cust: HashMap<i64, i64> = (0..d.orders.rows())
            .map(|r| {
                (
                    d.orders.column_required("o_orderkey").int(r),
                    d.orders.column_required("o_custkey").int(r),
                )
            })
            .collect();
        let france = rotary_tpch::gen::NATIONS.iter().position(|&(n, _)| n == "FRANCE").unwrap();
        let mut expect = 0u64;
        for r in 0..d.lineitem.rows() {
            let ok = d.lineitem.column_required("l_orderkey").int(r);
            let cust = order_cust[&ok];
            if cust_nation[(cust - 1) as usize] == france as i64 {
                expect += 1;
            }
        }
        assert_eq!(exec.state().combined(0), Some(expect as f64));
    }

    #[test]
    fn grouped_aggregation_by_category() {
        let d = data();
        let mut cache = IndexCache::new();
        let plan = QueryPlan {
            label: "g".into(),
            fact: "lineitem".into(),
            joins: vec![],
            filter: Pred::True,
            group_by: vec![GroupKey::Raw(ColRef::fact("l_returnflag"))],
            aggregates: vec![AggSpec::new(
                "qty",
                AggFunc::Sum,
                Expr::Col(ColRef::fact("l_quantity")),
            )],
            class: QueryClass::Light,
        };
        let mut exec = Executor::bind(&plan, &d, &mut cache).unwrap();
        exec.process_all();
        // R, A, N all occur.
        assert_eq!(exec.state().group_count(), 3);
        // Total across groups equals the ungrouped sum.
        let total: f64 = (0..d.lineitem.rows())
            .map(|r| d.lineitem.column_required("l_quantity").int(r) as f64)
            .sum();
        assert!((exec.state().combined(0).unwrap() - total).abs() < 1e-6);
    }

    #[test]
    fn batches_equal_full_scan() {
        let d = data();
        let mut cache = IndexCache::new();
        let mut whole = Executor::bind(&q6ish(), &d, &mut cache).unwrap();
        whole.process_all();

        let mut batched = Executor::bind(&q6ish(), &d, &mut cache).unwrap();
        let mut src = rotary_tpch::BatchSource::new(3, d.lineitem.rows(), 1000);
        while let Some(batch) = src.next_batch() {
            batched.process_rows(batch);
        }
        // Floating-point sums depend on fold order; allow relative epsilon.
        let a = whole.state().combined(0).unwrap();
        let b = batched.state().combined(0).unwrap();
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        assert_eq!(whole.state().combined(1), batched.state().combined(1));
    }

    #[test]
    fn index_cache_shares_indexes() {
        let d = data();
        let mut cache = IndexCache::new();
        let plan = QueryPlan {
            label: "x".into(),
            fact: "lineitem".into(),
            joins: vec![JoinEdge::new("o", "orders", ColRef::fact("l_orderkey"), "o_orderkey")],
            filter: Pred::True,
            group_by: vec![],
            aggregates: vec![AggSpec::count("n")],
            class: QueryClass::Light,
        };
        let _a = Executor::bind(&plan, &d, &mut cache).unwrap();
        let entries_after_one = cache.total_entries();
        let _b = Executor::bind(&plan, &d, &mut cache).unwrap();
        assert_eq!(cache.total_entries(), entries_after_one, "index rebuilt instead of shared");
        assert_eq!(entries_after_one, d.orders.rows());
    }

    /// Brute-force totality of edge `i` of `plan`: does every row of the
    /// source table find its key(s) among the target's primary keys?
    fn brute_total(plan: &QueryPlan, d: &TpchData, i: usize) -> bool {
        let edge = &plan.joins[i];
        let table_of = |alias: &Option<String>| match alias {
            None => d.table(&plan.fact).unwrap(),
            Some(a) => {
                let j = plan.joins.iter().find(|j| &j.alias == a).unwrap();
                d.table(&j.table).unwrap()
            }
        };
        let src = table_of(&edge.fk[0].alias);
        let target = d.table(&edge.table).unwrap();
        let key_of = |t: &Table, cols: &[&str], r: usize| -> Vec<i64> {
            cols.iter().map(|c| t.column_required(c).int(r)).collect()
        };
        let pk: Vec<&str> = edge.pk.iter().map(String::as_str).collect();
        let fk: Vec<&str> = edge.fk.iter().map(|c| c.column.as_str()).collect();
        let keys: std::collections::HashSet<Vec<i64>> =
            (0..target.rows()).map(|r| key_of(target, &pk, r)).collect();
        target.rows() > 0 && (0..src.rows()).all(|r| keys.contains(&key_of(src, &fk, r)))
    }

    /// `table` with its rows cut to `keep` and Int column `col` (if named)
    /// rewritten by `f`.
    fn rebuilt(table: &Table, keep: usize, col: &str, f: impl Fn(usize, i64) -> i64) -> Table {
        let columns = table
            .columns()
            .map(|(name, column)| {
                let column = match column {
                    Column::Int(v) => Column::Int(
                        v[..keep]
                            .iter()
                            .enumerate()
                            .map(|(r, &k)| if name == col { f(r, k) } else { k })
                            .collect(),
                    ),
                    Column::Float(v) => Column::Float(v[..keep].to_vec()),
                    Column::Date(v) => Column::Date(v[..keep].to_vec()),
                    Column::Cat { codes, dict } => {
                        Column::Cat { codes: codes[..keep].to_vec(), dict: dict.clone() }
                    }
                };
                (name.to_string(), column)
            })
            .collect();
        Table::new(table.name(), columns)
    }

    #[test]
    fn cached_totality_matches_brute_force_on_intact_and_damaged_data() {
        let intact = data();
        let mut damaged = intact.clone();
        // One dangling order reference and a nation the customers lack.
        damaged.lineitem =
            rebuilt(&intact.lineitem, intact.lineitem.rows(), "l_orderkey", |r, k| {
                if r == 17 {
                    -1
                } else {
                    k
                }
            });
        damaged.customer =
            rebuilt(&intact.customer, intact.customer.rows(), "c_nationkey", |r, k| {
                if r % 9 == 0 {
                    25
                } else {
                    k
                }
            });
        for (d, expect_some_miss) in [(&intact, false), (&damaged, true)] {
            // One cache per dataset, shared by all 22 binds: later plans
            // read the verdicts earlier ones computed.
            let mut cache = IndexCache::new();
            let mut missed = 0;
            for plan in crate::queries::all_queries() {
                let exec = Executor::bind(&plan, d, &mut cache).unwrap();
                for (i, edge) in exec.edges.iter().enumerate() {
                    assert_eq!(edge.total, brute_total(&plan, d, i), "{} edge {i}", plan.label);
                    missed += usize::from(!edge.total);
                }
            }
            // On intact data only q9's partsupp edge can miss.
            assert_eq!(missed > 1, expect_some_miss);
            assert!(missed >= 1);
        }
    }

    #[test]
    fn empty_dimension_is_not_total_and_never_gathered() {
        let mut d = data();
        d.orders = rebuilt(&d.orders, 0, "", |_, k| k);
        let plan = grouped_join_plan();
        let mut cache = IndexCache::new();
        let mut col = Executor::bind(&plan, &d, &mut cache).unwrap();
        assert!(!col.edges[0].total);
        let mut oracle = Executor::bind(&plan, &d, &mut cache).unwrap();
        let rows: Vec<u32> = (0..d.lineitem.rows() as u32).collect();
        let stats = col.process_rows(&rows);
        assert_eq!(stats, oracle.process_rows_rowwise(&rows));
        assert_eq!((stats.probes, stats.rows_aggregated), (rows.len() as u64, 0));
    }

    #[test]
    fn composite_join_probes_partsupp() {
        let d = data();
        let mut cache = IndexCache::new();
        let plan = QueryPlan {
            label: "q9ish".into(),
            fact: "lineitem".into(),
            joins: vec![JoinEdge::composite(
                "ps",
                "partsupp",
                [ColRef::fact("l_partkey"), ColRef::fact("l_suppkey")],
                ["ps_partkey", "ps_suppkey"],
            )],
            filter: Pred::True,
            group_by: vec![],
            aggregates: vec![AggSpec::count("n")],
            class: QueryClass::Heavy,
        };
        let mut exec = Executor::bind(&plan, &d, &mut cache).unwrap();
        let stats = exec.process_all();
        // Most (partkey, suppkey) pairs in lineitem are random and so do NOT
        // exist in partsupp (which has only 4 suppliers per part) — the
        // inner join drops those rows; some rows survive at this scale only
        // by luck, so just check the join executes and never exceeds input.
        assert!(stats.rows_aggregated <= stats.rows_scanned);
        assert_eq!(stats.probes, stats.rows_scanned);
    }

    #[test]
    fn bind_errors_are_descriptive() {
        let d = data();
        let bind_err = |plan: &QueryPlan| {
            let err = Executor::bind(plan, &d, &mut IndexCache::new()).unwrap_err();
            assert!(
                matches!(&err, rotary_core::RotaryError::PlanBind { plan: p, .. } if *p == plan.label),
                "expected PlanBind carrying the label, got {err:?}"
            );
            err.to_string()
        };

        let mut plan = q6ish();
        plan.fact = "widgets".into();
        assert!(bind_err(&plan).contains("unknown fact table"));

        let mut plan = q6ish();
        plan.filter = Pred::IntRange { col: ColRef::fact("nonexistent"), lo: 0, hi: 1 };
        assert!(bind_err(&plan).contains("no column"));

        let mut plan = q6ish();
        plan.filter = Pred::CatEq { col: ColRef::fact("l_quantity"), value: "X".into() };
        assert!(bind_err(&plan).contains("not a category column"));

        let mut plan = q6ish();
        plan.group_by = vec![GroupKey::Raw(ColRef::fact("l_extendedprice"))];
        assert!(bind_err(&plan).contains("cannot group by float column"));
    }

    #[test]
    fn division_expression_and_zero_guard() {
        let d = data();
        let mut cache = IndexCache::new();
        // avg(extendedprice / quantity) — per-unit price; quantity ≥ 1 so no
        // zero path, then a second aggregate dividing by (discount - discount)
        // to pin the division-by-zero guard at 0.
        let plan = QueryPlan {
            label: "div".into(),
            fact: "lineitem".into(),
            joins: vec![],
            filter: Pred::True,
            group_by: vec![],
            aggregates: vec![
                AggSpec::new(
                    "unit_price",
                    AggFunc::Avg,
                    Expr::Div(
                        Box::new(Expr::Col(ColRef::fact("l_extendedprice"))),
                        Box::new(Expr::Col(ColRef::fact("l_quantity"))),
                    ),
                ),
                AggSpec::new(
                    "zero",
                    AggFunc::Max,
                    Expr::Div(
                        Box::new(Expr::Lit(1.0)),
                        Box::new(Expr::Sub(
                            Box::new(Expr::Col(ColRef::fact("l_discount"))),
                            Box::new(Expr::Col(ColRef::fact("l_discount"))),
                        )),
                    ),
                ),
            ],
            class: QueryClass::Light,
        };
        let mut exec = Executor::bind(&plan, &d, &mut cache).unwrap();
        exec.process_all();
        let avg_unit = exec.state().combined(0).unwrap();
        // Unit prices are retail prices: ~900..2100.
        assert!((800.0..2300.0).contains(&avg_unit), "{avg_unit}");
        assert_eq!(exec.state().combined(1), Some(0.0), "x/0 must yield 0");
    }

    #[test]
    fn ref_cmp_le_and_eq_operators() {
        let d = data();
        let mut cache = IndexCache::new();
        let mut count_where = |op: CmpOp| {
            let plan = QueryPlan {
                label: "cmp".into(),
                fact: "lineitem".into(),
                joins: vec![],
                filter: Pred::RefCmp {
                    a: ColRef::fact("l_shipdate"),
                    op,
                    b: ColRef::fact("l_commitdate"),
                },
                group_by: vec![],
                aggregates: vec![AggSpec::count("n")],
                class: QueryClass::Light,
            };
            let mut exec = Executor::bind(&plan, &d, &mut cache).unwrap();
            exec.process_all();
            exec.state().combined(0).unwrap() as u64
        };
        let lt = count_where(CmpOp::Lt);
        let le = count_where(CmpOp::Le);
        let eq = count_where(CmpOp::Eq);
        assert_eq!(le, lt + eq, "Le = Lt + Eq partition");
        assert!(lt > 0, "some lines ship before commit");
    }

    #[test]
    fn cat_prefix_and_int_in_masks() {
        let d = data();
        let mut cache = IndexCache::new();
        let plan = QueryPlan {
            label: "mask".into(),
            fact: "lineitem".into(),
            joins: vec![JoinEdge::new("p", "part", ColRef::fact("l_partkey"), "p_partkey")],
            filter: Pred::And(vec![
                Pred::CatPrefix { col: ColRef::via("p", "p_type"), prefix: "PROMO".into() },
                Pred::IntIn { col: ColRef::via("p", "p_size"), values: vec![1, 2, 3, 4, 5] },
            ]),
            group_by: vec![],
            aggregates: vec![AggSpec::count("n")],
            class: QueryClass::Light,
        };
        let mut exec = Executor::bind(&plan, &d, &mut cache).unwrap();
        exec.process_all();
        // Naive check.
        let mut expect = 0u64;
        for r in 0..d.lineitem.rows() {
            let pk = d.lineitem.column_required("l_partkey").int(r) as usize - 1;
            let ty = d.part.column_required("p_type").cat_str(pk);
            let size = d.part.column_required("p_size").int(pk);
            if ty.starts_with("PROMO") && (1..=5).contains(&size) {
                expect += 1;
            }
        }
        assert_eq!(exec.state().combined(0), Some(expect as f64));
    }

    /// Bit-exact comparison of two executors' states: identical integer
    /// counters and identical per-group accumulator values down to the last
    /// bit. Uses `grouped_results` (sorted by key) so hash-map iteration
    /// order cannot leak into the comparison.
    fn assert_states_bit_identical(a: &Executor, b: &Executor) {
        assert_eq!(a.totals(), b.totals());
        let (ra, rb) = (a.state().grouped_results(), b.state().grouped_results());
        assert_eq!(ra.len(), rb.len());
        for ((ka, va), (kb, vb)) in ra.iter().zip(&rb) {
            assert_eq!(ka, kb);
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(
                    x.map(f64::to_bits),
                    y.map(f64::to_bits),
                    "group {ka:?}: {x:?} vs {y:?}"
                );
            }
        }
    }

    fn grouped_join_plan() -> QueryPlan {
        QueryPlan {
            label: "par".into(),
            fact: "lineitem".into(),
            joins: vec![JoinEdge::new("o", "orders", ColRef::fact("l_orderkey"), "o_orderkey")],
            filter: Pred::IntRange { col: ColRef::fact("l_quantity"), lo: 1, hi: 40 },
            group_by: vec![GroupKey::Raw(ColRef::fact("l_returnflag"))],
            aggregates: vec![
                AggSpec::new(
                    "rev",
                    AggFunc::Sum,
                    Expr::Mul(
                        Box::new(Expr::Col(ColRef::fact("l_extendedprice"))),
                        Box::new(Expr::Col(ColRef::fact("l_discount"))),
                    ),
                ),
                AggSpec::new("avg_qty", AggFunc::Avg, Expr::Col(ColRef::fact("l_quantity"))),
                AggSpec::count("n"),
            ],
            class: QueryClass::Medium,
        }
    }

    #[test]
    fn replay_fold_is_bit_identical_to_sequential_at_every_pool_size() {
        let d = data();
        let mut cache = IndexCache::new();
        let plan = grouped_join_plan();
        let rows: Vec<u32> = (0..d.lineitem.rows() as u32).rev().collect();

        let mut seq = Executor::bind(&plan, &d, &mut cache).unwrap();
        let seq_stats = seq.process_rows(&rows);

        for threads in [1, 2, 4, 8] {
            let pool = rotary_par::ThreadPool::new(threads);
            let mut par = Executor::bind(&plan, &d, &mut cache).unwrap();
            let par_stats = par.process_rows_with(&pool, &rows);
            assert_eq!(seq_stats, par_stats, "threads={threads}");
            assert_states_bit_identical(&seq, &par);
        }
    }

    #[test]
    fn columnar_is_bit_identical_to_rowwise_oracle() {
        let d = data();
        let mut cache = IndexCache::new();
        // Exercise every plan shape at once: joins (single + later composite
        // covered elsewhere), filter tree, groups, and multiple aggregates;
        // shuffled row order to keep the gather paths honest.
        for plan in [q6ish(), grouped_join_plan()] {
            let rows: Vec<u32> = {
                let mut v: Vec<u32> = (0..d.lineitem.rows() as u32).collect();
                v.reverse();
                v.rotate_left(7);
                v
            };
            let mut oracle = Executor::bind(&plan, &d, &mut cache).unwrap();
            let a = oracle.process_rows_rowwise(&rows);
            let mut col = Executor::bind(&plan, &d, &mut cache).unwrap();
            let b = col.process_rows(&rows);
            assert_eq!(a, b, "stats diverged for {}", plan.label);
            assert_states_bit_identical(&oracle, &col);
        }
    }

    #[test]
    fn probe_lookups_is_deterministic_and_touches_no_state() {
        let d = data();
        let mut cache = IndexCache::new();
        let plan = grouped_join_plan();
        let rows: Vec<u32> = (0..d.lineitem.rows() as u32).collect();
        let mut exec = Executor::bind(&plan, &d, &mut cache).unwrap();
        let lookups = exec.probe_lookups(&rows);
        assert_eq!(lookups, exec.probe_lookups(&rows), "probe_lookups must be deterministic");
        assert_eq!(exec.totals(), BatchStats::default());
        assert_eq!(exec.state().group_count(), 0);
        // The quantity filter runs below the (total) orders edge, so only
        // its survivors are looked up.
        let stats = exec.process_rows(&rows);
        assert_eq!(lookups, stats.rows_aggregated);
        assert!(lookups < stats.probes);
    }

    #[test]
    fn replay_fold_small_batches_take_sequential_path() {
        let d = data();
        let mut cache = IndexCache::new();
        let pool = rotary_par::ThreadPool::new(4);
        let mut seq = Executor::bind(&q6ish(), &d, &mut cache).unwrap();
        let mut par = Executor::bind(&q6ish(), &d, &mut cache).unwrap();
        // Below PAR_MIN_ROWS the parallel entry point must not fan out, and
        // the result is (trivially) bit-identical.
        let rows: Vec<u32> = (0..(PAR_MIN_ROWS as u32 - 1)).collect();
        assert_eq!(seq.process_rows(&rows), par.process_rows_with(&pool, &rows));
        assert_states_bit_identical(&seq, &par);
    }

    #[test]
    fn predval_case_aggregation() {
        let d = data();
        let mut cache = IndexCache::new();
        // sum(case when returnflag = 'R' then quantity else 0 end)
        let plan = QueryPlan {
            label: "case".into(),
            fact: "lineitem".into(),
            joins: vec![],
            filter: Pred::True,
            group_by: vec![],
            aggregates: vec![AggSpec::new(
                "r_qty",
                AggFunc::Sum,
                Expr::Mul(
                    Box::new(Expr::PredVal(Box::new(Pred::CatEq {
                        col: ColRef::fact("l_returnflag"),
                        value: "R".into(),
                    }))),
                    Box::new(Expr::Col(ColRef::fact("l_quantity"))),
                ),
            )],
            class: QueryClass::Light,
        };
        let mut exec = Executor::bind(&plan, &d, &mut cache).unwrap();
        exec.process_all();
        let mut expect = 0.0;
        for r in 0..d.lineitem.rows() {
            if d.lineitem.column_required("l_returnflag").cat_str(r) == "R" {
                expect += d.lineitem.column_required("l_quantity").int(r) as f64;
            }
        }
        assert!((exec.state().combined(0).unwrap() - expect).abs() < 1e-9);
    }
}
