//! Columnar chunk evaluation: the vectorized, filter-first data plane.
//!
//! [`eval_chunk`] evaluates one fixed-size row chunk of a bound plan as a
//! sequence of whole-column kernel calls (see [`crate::kernels`]) instead of
//! the row-at-a-time interpreter. The chunk's live rows are kept **dense**:
//! every resolved slot holds one row id per surviving row, all the same
//! length, so each kernel runs over exactly the rows that are still alive.
//!
//! 1. **Resolve** — edge *i* probes the foreign keys of the live rows into
//!    slot *i + 1*; rows that miss are dropped (inner-join semantics) by
//!    compacting every resolved slot.
//! 2. **Stage** — `Executor::bind` splits the filter's top-level
//!    conjunction and files each conjunct under the highest slot it reads.
//!    The conjuncts that become ready at slot *k* form stage *k*: one
//!    selection [`Bitmap`] (one compare kernel per leaf, word-wise
//!    `AND`/`OR`/`NOT` for the combinators), evaluated as soon as slot *k*
//!    is resolved — selection below the join probes.
//! 3. **Compact** — when a stage dropped anything, every resolved slot is
//!    narrowed to the survivors, so every later probe, predicate leaf and
//!    the projection touch *m ≤ n* rows. Nothing left means nothing more is
//!    looked up.
//! 4. **Project** — group keys and aggregate expressions are gathered and
//!    evaluated column-at-a-time over the survivors, then laid out
//!    row-major in the returned [`ChunkOutput`].
//!
//! **Bit-identity argument.** Expression and predicate evaluation is
//! element-wise and side-effect-free, and a conjunction of such predicates
//! holds for a row whatever order its conjuncts are tested in, so the set
//! of surviving rows equals the row interpreter's; compaction keeps rows in
//! ascending chunk order, so the surviving `(keys, vals)` sequence equals
//! the row loop's, float for float. The replay fold then applies
//! `AggState::update` in that original row order — hence the sequential row
//! engine, the sequential columnar engine, and the columnar engine at any
//! pool width produce byte-identical traces.
//!
//! **Counter argument.** `BatchStats` prices every virtual epoch, so it must
//! equal the row loop's on every batch even though the work done no longer
//! does. `probes` is a *model* quantity — per edge, the rows still alive
//! under the **joins alone**, which is where the row loop stops probing —
//! not a count of index lookups (that is [`Executor::probe_lookups`]). Bind
//! decides per edge whether it is *total* (every row of the source table
//! resolves) and lets no stage run before the slot of the last edge that is
//! not. From the first stage on, therefore, no remaining edge can drop a
//! row: the joins-alone count is frozen and is added per edge without doing
//! the lookups the filter made unnecessary. A plan whose last edge can miss
//! simply filters after its joins, as every plan did before.

use rotary_tpch::Column;

use crate::exec::{BatchStats, BoundExpr, BoundGroup, BoundIndex, BoundPred, Executor};
use crate::kernels::{self, Bitmap};

/// What one chunk's data-plane evaluation produces: work counters plus the
/// surviving rows' group keys and expression values, flattened row-major in
/// original row order. The control plane replays these through
/// `AggState::update` in fixed chunk order, reproducing the sequential fold
/// bit-for-bit.
pub(crate) struct ChunkOutput {
    pub(crate) stats: BatchStats,
    /// Index lookups actually performed (≤ `stats.probes`).
    pub(crate) lookups: u64,
    pub(crate) keys: Vec<i64>,
    pub(crate) vals: Vec<f64>,
}

/// Reusable per-chunk working set: per-slot resolved row ids (dense over the
/// live rows), a position list for the probe/compaction/gather kernels, and
/// bitmap/float scratch pools. One lives in the
/// [`Executor`] for the sequential path; parallel workers build their own
/// per chunk (the cost amortizes over `PAR_CHUNK_ROWS` rows).
#[derive(Debug, Default)]
pub(crate) struct ChunkScratch {
    slot_rows: Vec<Vec<u32>>,
    positions: Vec<u32>,
    bitmaps: Vec<Bitmap>,
    floats: Vec<Vec<f64>>,
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

/// Columnar data-plane evaluation of one chunk — joins, staged filter, and
/// projection with **no** aggregate-state access. See the module docs for
/// the phase structure and the bit-identity and counter arguments.
pub(crate) fn eval_chunk(
    ex: &Executor<'_>,
    rows: &[u32],
    scratch: &mut ChunkScratch,
) -> ChunkOutput {
    let n = rows.len();
    let mut stats = BatchStats { rows_scanned: n as u64, ..Default::default() };
    let mut lookups = 0u64;
    let ChunkScratch { slot_rows, positions, bitmaps, floats } = scratch;
    slot_rows.resize_with(ex.edges.len() + 1, Vec::new);
    slot_rows[0].clear();
    slot_rows[0].extend_from_slice(rows);
    // Rows alive under the joins alone — what the row loop's `probes`
    // counts per edge. Only a probe miss lowers it, and once a stage has
    // run no remaining edge can miss (bind holds stages back until then).
    let mut joined = n;

    run_stage(&ex.stages[0], &mut slot_rows[..1], positions, bitmaps, floats);
    for (i, edge) in ex.edges.iter().enumerate() {
        stats.probes += joined as u64;
        let (resolved, rest) = slot_rows.split_at_mut(i + 1);
        let m = resolved[0].len();
        if m == 0 {
            continue;
        }
        lookups += m as u64;
        let src = &resolved[edge.src_slot];
        let dst = &mut rest[0];
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
        let hits = positions.len();
        debug_assert!(hits == m || !edge.total, "a total edge missed");
        if hits < m {
            joined -= m - hits;
            for rows in slot_rows[..i + 2].iter_mut() {
                compact(rows, positions);
            }
        }
        run_stage(&ex.stages[i + 1], &mut slot_rows[..i + 2], positions, bitmaps, floats);
    }
    let m = slot_rows[0].len();
    stats.rows_aggregated = m as u64;

    // Projection: one gather/eval per group key and aggregate expression,
    // scattered into the row-major replay layout.
    let ka = ex.groups.len();
    let va = ex.agg_exprs.len();
    let mut keys = vec![0i64; m * ka];
    let mut vals = vec![0.0f64; m * va];
    if m > 0 {
        all_positions(positions, m);
        let mut key_col: Vec<i64> = Vec::with_capacity(m);
        for (gi, g) in ex.groups.iter().enumerate() {
            eval_group(g, slot_rows, positions, &mut key_col);
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
    }
    ChunkOutput { stats, lookups, keys, vals }
}
