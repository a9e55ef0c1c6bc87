//! Columnar evaluation: a filter-first verdict scan once per dataset, and a
//! projection of the survivors every epoch.
//!
//! Whether a fact row survives a plan's joins and filter, and how many index
//! probes the row loop spends on it, depends on the plan and the data —
//! never on the order a job samples rows in. The data plane is therefore
//! split in two:
//!
//! * `scan_verdicts` — the **build scan**. It runs once per (dataset,
//!   plan shape) over `0..n` in row order and records a [`RowVerdicts`]: one
//!   survivor bit per fact row, plus a per-row probe count where that count
//!   is not constant. `IndexCache` shares the set with every executor bound
//!   to the plan. The scan keeps a chunk's live rows **dense** — every
//!   resolved slot holds one row id per surviving row — so each kernel runs
//!   over exactly the rows still alive:
//!   1. **Resolve** — edge *i* probes the foreign keys of the live rows into
//!      slot *i + 1*; rows that miss are dropped (inner-join semantics) by
//!      compacting every resolved slot.
//!   2. **Stage** — `Executor::bind` splits the filter's top-level
//!      conjunction and files each conjunct under the highest slot it reads.
//!      The conjuncts that become ready at slot *k* form stage *k*: one
//!      selection [`Bitmap`] (one compare kernel per leaf, word-wise
//!      `AND`/`OR`/`NOT` for the combinators), evaluated as soon as slot *k*
//!      is resolved — selection below the join probes.
//!   3. **Compact** — when a stage dropped anything, every resolved slot is
//!      narrowed to the survivors, so every later probe and predicate leaf
//!      touches *m ≤ n* rows. Nothing left means nothing more is looked up.
//! * `project_chunk` — the **epoch path**. A chunk of delivered rows is
//!   reduced to its survivors by the verdicts (in delivery order), the join
//!   edges are resolved for the survivors only, and group keys and aggregate
//!   expressions are gathered and evaluated column-at-a-time, laid out
//!   row-major in the scratch for the executor's replay fold. No bitmap,
//!   stage or compaction runs on this path.
//!
//! **Bit-identity argument.** Expression and predicate evaluation is
//! element-wise and side-effect-free, and a conjunction of such predicates
//! holds for a row whatever order its conjuncts are tested in, so a row's
//! survivor bit equals the row interpreter's verdict for it. Selecting a
//! batch's survivors keeps delivery order, so the `(keys, vals)` sequence a
//! batch projects equals the row loop's, float for float, and the executor
//! replays `AggState::update` in that order — hence the row engine and the
//! columnar engine at any pool width produce byte-identical traces.
//!
//! **Counter argument.** `BatchStats` prices every virtual epoch, so it must
//! equal the row loop's on every batch although the epoch path does none of
//! the row loop's work. A row costs the row loop one probe per edge until a
//! probe misses: `edges` probes, or *i + 1* when edge *i* drops it. Bind
//! decides per edge whether it is *total* (every row of the source table
//! resolves) and holds every stage back until the slot of the last edge that
//! is not, so the build scan probes every row at every edge that can miss
//! and sees exactly where each row drops. When every edge is total the count
//! is `edges` for every row and nothing is stored; otherwise (q9 on intact
//! data) one byte per row is. A batch's `probes` is then the sum over its
//! rows, `rows_aggregated` its survivors and `rows_scanned` its length. The
//! lookups the epoch path performs are `rows_aggregated × edges`
//! ([`Executor::probe_lookups`]).

use std::ops::Range;

use rotary_tpch::Column;

use crate::exec::{
    BatchStats, BoundEdge, BoundExpr, BoundGroup, BoundIndex, BoundPred, Executor, PAR_CHUNK_ROWS,
};
use crate::kernels::{self, Bitmap};

/// The order-independent per-row result of one plan on one dataset: which
/// fact rows survive its joins and filter, and how many probes the row loop
/// spends on each. Built once by `scan_verdicts`, shared through
/// `IndexCache`, read by every epoch.
#[derive(Debug)]
pub struct RowVerdicts {
    survivors: Bitmap,
    /// Probes per row, stored only when they are not all `edges`: a plan
    /// with an edge that can miss.
    probes: Option<Vec<u8>>,
    edges: u8,
}

impl RowVerdicts {
    /// Fact rows covered.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.survivors.len()
    }

    /// Whether `row` survives the plan's joins and filter.
    pub(crate) fn survives(&self, row: u32) -> bool {
        self.survivors.get(row as usize)
    }

    /// The probes the row loop spends on `row`.
    #[cfg(test)]
    pub(crate) fn probes(&self, row: u32) -> u64 {
        u64::from(self.probes.as_ref().map_or(self.edges, |per_row| per_row[row as usize]))
    }

    /// Number of surviving rows.
    pub fn kept(&self) -> usize {
        self.survivors.count()
    }

    /// Writes the survivors among `rows`, in order, to `out` and returns the
    /// counters the row loop would report for `rows`.
    fn select(&self, rows: &[u32], out: &mut Vec<u32>) -> BatchStats {
        out.clear();
        out.extend(rows.iter().copied().filter(|&row| self.survives(row)));
        let probes = match &self.probes {
            Some(per_row) => rows.iter().map(|&row| u64::from(per_row[row as usize])).sum(),
            None => rows.len() as u64 * u64::from(self.edges),
        };
        BatchStats { rows_scanned: rows.len() as u64, probes, rows_aggregated: out.len() as u64 }
    }
}

/// Reusable working set: per-slot resolved row ids (dense over the live
/// rows), a position list for the probe/compaction/gather kernels,
/// bitmap/float/int scratch pools, and the projected chunk — `keys` and
/// `vals` row-major, group arity resp. aggregate arity per survivor. One
/// lives in the [`Executor`] for the sequential path; parallel workers build
/// their own per chunk.
#[derive(Debug, Default)]
pub(crate) struct ChunkScratch {
    slot_rows: Vec<Vec<u32>>,
    positions: Vec<u32>,
    bitmaps: Vec<Bitmap>,
    floats: Vec<Vec<f64>>,
    key_col: Vec<i64>,
    pub(crate) keys: Vec<i64>,
    pub(crate) vals: Vec<f64>,
}

fn int_slice(col: &Column) -> &[i64] {
    match col {
        Column::Int(v) => v,
        other => panic!("expected Int column, found {:?}", other.column_type()),
    }
}

fn float_slice(col: &Column) -> &[f64] {
    match col {
        Column::Float(v) => v,
        other => panic!("expected Float column, found {:?}", other.column_type()),
    }
}

fn date_slice(col: &Column) -> &[rotary_tpch::Date] {
    match col {
        Column::Date(v) => v,
        other => panic!("expected Date column, found {:?}", other.column_type()),
    }
}

fn code_slice(col: &Column) -> &[u32] {
    match col {
        Column::Cat { codes, .. } => codes,
        other => panic!("expected Cat column, found {:?}", other.column_type()),
    }
}

/// Evaluates `pred` into a selection bitmap over the `n` live rows (every
/// slot `pred` reads holds `n` row ids). Leaves run one gather+compare
/// kernel each; combinators are word-wise.
fn eval_pred(
    pred: &BoundPred<'_>,
    slot_rows: &[Vec<u32>],
    n: usize,
    bitmaps: &mut Vec<Bitmap>,
    floats: &mut Vec<Vec<f64>>,
) -> Bitmap {
    let mut bm = bitmaps.pop().unwrap_or_default();
    match pred {
        BoundPred::True => bm.set_all(n),
        BoundPred::IntRange { slot, col, lo, hi } => {
            kernels::int_range_bitmap(int_slice(col), &slot_rows[*slot], *lo, *hi, &mut bm)
        }
        BoundPred::IntIn { slot, col, values } => {
            kernels::int_in_bitmap(int_slice(col), &slot_rows[*slot], values, &mut bm)
        }
        BoundPred::FloatRange { slot, col, lo, hi } => {
            kernels::float_range_bitmap(float_slice(col), &slot_rows[*slot], *lo, *hi, &mut bm)
        }
        BoundPred::DateRange { slot, col, lo, hi } => {
            kernels::date_range_bitmap(date_slice(col), &slot_rows[*slot], *lo, *hi, &mut bm)
        }
        BoundPred::CatMask { slot, col, mask } => {
            kernels::cat_mask_bitmap(code_slice(col), &slot_rows[*slot], mask, &mut bm)
        }
        BoundPred::RefCmp { a_slot, a, op, b_slot, b } => {
            let mut xa = floats.pop().unwrap_or_default();
            let mut xb = floats.pop().unwrap_or_default();
            kernels::gather_numeric(a, &slot_rows[*a_slot], &mut xa);
            kernels::gather_numeric(b, &slot_rows[*b_slot], &mut xb);
            kernels::cmp_bitmap(&xa, &xb, *op, &mut bm);
            floats.push(xb);
            floats.push(xa);
        }
        BoundPred::And(ps) => {
            bm.set_all(n);
            for p in ps {
                let child = eval_pred(p, slot_rows, n, bitmaps, floats);
                bm.and(&child);
                bitmaps.push(child);
            }
        }
        BoundPred::Or(ps) => {
            bm.reset(n);
            for p in ps {
                let child = eval_pred(p, slot_rows, n, bitmaps, floats);
                bm.or(&child);
                bitmaps.push(child);
            }
        }
        BoundPred::Not(p) => {
            bitmaps.push(bm);
            bm = eval_pred(p, slot_rows, n, bitmaps, floats);
            bm.negate();
        }
    }
    bm
}

/// Evaluates `e` column-at-a-time over the `m` live rows into `out`. Per
/// surviving row this performs the same operations on the same operands as
/// the row interpreter, so every element is bit-identical.
fn eval_expr(
    e: &BoundExpr<'_>,
    slot_rows: &[Vec<u32>],
    m: usize,
    bitmaps: &mut Vec<Bitmap>,
    floats: &mut Vec<Vec<f64>>,
    out: &mut Vec<f64>,
) {
    match e {
        BoundExpr::Col { slot, col } => kernels::gather_numeric(col, &slot_rows[*slot], out),
        BoundExpr::Lit(v) => {
            out.clear();
            out.resize(m, *v);
        }
        BoundExpr::Add(a, b) => {
            binary(a, b, slot_rows, m, bitmaps, floats, out, kernels::add_assign)
        }
        BoundExpr::Sub(a, b) => {
            binary(a, b, slot_rows, m, bitmaps, floats, out, kernels::sub_assign)
        }
        BoundExpr::Mul(a, b) => {
            binary(a, b, slot_rows, m, bitmaps, floats, out, kernels::mul_assign)
        }
        BoundExpr::Div(a, b) => {
            binary(a, b, slot_rows, m, bitmaps, floats, out, kernels::div_assign_guarded)
        }
        BoundExpr::PredVal(p) => {
            let bm = eval_pred(p, slot_rows, m, bitmaps, floats);
            out.clear();
            out.extend((0..m).map(|i| if bm.get(i) { 1.0 } else { 0.0 }));
            bitmaps.push(bm);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn binary(
    a: &BoundExpr<'_>,
    b: &BoundExpr<'_>,
    slot_rows: &[Vec<u32>],
    m: usize,
    bitmaps: &mut Vec<Bitmap>,
    floats: &mut Vec<Vec<f64>>,
    out: &mut Vec<f64>,
    op: fn(&mut [f64], &[f64]),
) {
    eval_expr(a, slot_rows, m, bitmaps, floats, out);
    let mut rhs = floats.pop().unwrap_or_default();
    eval_expr(b, slot_rows, m, bitmaps, floats, &mut rhs);
    op(out, &rhs);
    floats.push(rhs);
}

fn eval_group(g: &BoundGroup<'_>, slot_rows: &[Vec<u32>], positions: &[u32], out: &mut Vec<i64>) {
    match g {
        BoundGroup::Raw { slot, col } => {
            kernels::gather_group_keys(col, &slot_rows[*slot], positions, out)
        }
        BoundGroup::Year { slot, col } => {
            kernels::gather_years(date_slice(col), &slot_rows[*slot], positions, out)
        }
    }
}

/// Resets `positions` to the identity over `m` live rows — the in/out list of
/// the probe kernels and the gather list of the group-key kernels.
fn all_positions(positions: &mut Vec<u32>, m: usize) {
    positions.clear();
    positions.extend(0..m as u32);
}

/// Probes `edge` for every live row (`src` holds the source slot's row ids)
/// into `dst`; on return `positions` lists the rows that hit, ascending.
fn probe_edge(edge: &BoundEdge<'_>, src: &[u32], positions: &mut Vec<u32>, dst: &mut Vec<u32>) {
    let m = src.len();
    dst.clear();
    dst.resize(m, 0);
    all_positions(positions, m);
    match &edge.index {
        BoundIndex::Single(index) => {
            kernels::probe_single(index, int_slice(edge.fk[0]), src, positions, dst);
        }
        BoundIndex::Composite(index) => {
            kernels::probe_composite(
                index,
                int_slice(edge.fk[0]),
                int_slice(edge.fk[1]),
                src,
                positions,
                dst,
            );
        }
    }
}

/// Narrows one slot's row ids to the rows at `positions` (ascending, so the
/// move is safe in place).
fn compact(rows: &mut Vec<u32>, positions: &[u32]) {
    for (k, &p) in positions.iter().enumerate() {
        rows[k] = rows[p as usize];
    }
    rows.truncate(positions.len());
}

/// Runs one filter stage over the resolved slots: one bitmap, and — only
/// when it dropped something — one compaction of every resolved slot.
fn run_stage(
    stage: &BoundPred<'_>,
    resolved: &mut [Vec<u32>],
    positions: &mut Vec<u32>,
    bitmaps: &mut Vec<Bitmap>,
    floats: &mut Vec<Vec<f64>>,
) {
    let m = resolved[0].len();
    if m == 0 || matches!(stage, BoundPred::True) {
        return;
    }
    let bm = eval_pred(stage, resolved, m, bitmaps, floats);
    if bm.count() < m {
        positions.clear();
        positions.extend((0..m as u32).filter(|&p| bm.get(p as usize)));
        for rows in resolved.iter_mut() {
            compact(rows, positions);
        }
    }
    bitmaps.push(bm);
}

/// The build scan of one chunk: resolve, stage, compact over the fact rows
/// `rows`, leaving the survivors in `slot_rows[0]`. A row dropped by a miss
/// at edge *i* gets *i + 1* in `probes` (which every edge that can miss
/// requires; see the counter argument in the module docs).
fn filter_chunk(
    ex: &Executor<'_>,
    rows: Range<u32>,
    scratch: &mut ChunkScratch,
    mut probes: Option<&mut [u8]>,
) {
    let ChunkScratch { slot_rows, positions, bitmaps, floats, .. } = scratch;
    slot_rows.resize_with(ex.edges.len() + 1, Vec::new);
    slot_rows[0].clear();
    slot_rows[0].extend(rows);
    run_stage(&ex.stages[0], &mut slot_rows[..1], positions, bitmaps, floats);
    for (i, edge) in ex.edges.iter().enumerate() {
        let (resolved, rest) = slot_rows.split_at_mut(i + 1);
        let m = resolved[0].len();
        if m == 0 {
            return;
        }
        probe_edge(edge, &resolved[edge.src_slot], positions, &mut rest[0]);
        if positions.len() < m {
            debug_assert!(!edge.total, "a total edge missed");
            if let Some(per_row) = probes.as_deref_mut() {
                let mut hits = positions.iter().copied().peekable();
                for (p, &row) in resolved[0].iter().enumerate() {
                    if hits.next_if_eq(&(p as u32)).is_none() {
                        per_row[row as usize] = i as u8 + 1;
                    }
                }
            }
            for rows in slot_rows[..i + 2].iter_mut() {
                compact(rows, positions);
            }
        }
        run_stage(&ex.stages[i + 1], &mut slot_rows[..i + 2], positions, bitmaps, floats);
    }
}

/// The build scan: the filter-first evaluation of `ex`'s plan over every
/// fact row, in row order, recorded as [`RowVerdicts`].
pub(crate) fn scan_verdicts(ex: &Executor<'_>) -> RowVerdicts {
    let n = ex.fact_rows();
    // Bind rejects plans with more join edges than a `u8` counts.
    let edges = ex.edges.len() as u8;
    let mut survivors = Bitmap::new();
    survivors.reset(n);
    let mut probes = ex.edges.iter().any(|e| !e.total).then(|| vec![edges; n]);
    let mut scratch = ChunkScratch::default();
    for start in (0..n).step_by(PAR_CHUNK_ROWS) {
        let end = n.min(start + PAR_CHUNK_ROWS);
        filter_chunk(ex, start as u32..end as u32, &mut scratch, probes.as_deref_mut());
        for &row in &scratch.slot_rows[0] {
            survivors.set(row as usize);
        }
    }
    RowVerdicts { survivors, probes, edges }
}

/// The epoch path for one chunk of delivered rows: selects the survivors
/// from the plan's verdicts, resolves the join edges for them and projects
/// their group keys and aggregate inputs into `scratch.keys` /
/// `scratch.vals` — no aggregate-state access. Returns the chunk's counters.
pub(crate) fn project_chunk(
    ex: &Executor<'_>,
    rows: &[u32],
    scratch: &mut ChunkScratch,
) -> BatchStats {
    let ChunkScratch { slot_rows, positions, bitmaps, floats, key_col, keys, vals } = scratch;
    slot_rows.resize_with(ex.edges.len() + 1, Vec::new);
    let stats = ex.row_verdicts().select(rows, &mut slot_rows[0]);
    let m = slot_rows[0].len();
    keys.clear();
    vals.clear();
    if m == 0 {
        return stats;
    }
    for (i, edge) in ex.edges.iter().enumerate() {
        let (resolved, rest) = slot_rows.split_at_mut(i + 1);
        probe_edge(edge, &resolved[edge.src_slot], positions, &mut rest[0]);
        debug_assert_eq!(positions.len(), m, "a surviving row missed a join");
    }

    // One gather/eval per group key and aggregate expression, scattered
    // into the row-major replay layout.
    let ka = ex.groups.len();
    let va = ex.agg_exprs.len();
    keys.resize(m * ka, 0);
    vals.resize(m * va, 0.0);
    all_positions(positions, m);
    for (gi, g) in ex.groups.iter().enumerate() {
        eval_group(g, slot_rows, positions, key_col);
        for (r, &k) in key_col.iter().enumerate() {
            keys[r * ka + gi] = k;
        }
    }
    let mut val_col = floats.pop().unwrap_or_default();
    for (ei, e) in ex.agg_exprs.iter().enumerate() {
        eval_expr(e, slot_rows, m, bitmaps, floats, &mut val_col);
        for (r, &v) in val_col.iter().enumerate() {
            vals[r * va + ei] = v;
        }
    }
    floats.push(val_col);
    stats
}
