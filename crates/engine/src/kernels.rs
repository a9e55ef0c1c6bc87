//! Vectorized columnar kernels: the tight inner loops of the data plane.
//!
//! Every function here operates on whole column slices (or gathered row-id
//! slices) per call, so the per-row work is a handful of loads, a compare or
//! an arithmetic op, and a store — loops the compiler can unroll and
//! autovectorize. Nothing in this module touches aggregate state, the plan,
//! or the thread pool; kernels are pure functions over plain slices, which
//! is what makes them independently testable: the property suite in
//! `tests/kernel_equivalence.rs` proves each kernel bit-identical to a
//! naive row-at-a-time oracle (including NaN/inf inputs and empty/full
//! selections).
//!
//! Determinism notes:
//!
//! * Selection [`Bitmap`]s are packed `u64` words over *chunk positions*
//!   (0..chunk_len), not row ids; combining them word-wise evaluates the
//!   same boolean per position as short-circuit row evaluation, because
//!   predicates are total and side-effect-free.
//! * [`PkIndex`]/[`PkIndex2`] are open-addressed hash indexes with a fixed
//!   multiply-shift hash — no `RandomState`, no per-process seed, and point
//!   lookups only, so they satisfy the D001 determinism rule without any
//!   allow annotation.

use rotary_tpch::date::year_of;
use rotary_tpch::{Column, Date};

use crate::expr::CmpOp;

// ---------------------------------------------------------------------------
// Selection bitmaps
// ---------------------------------------------------------------------------

/// A packed selection bitmap over chunk positions `0..len`.
///
/// Bit `i` of word `i / 64` (at position `i % 64`) records whether chunk
/// position `i` is selected. Tail bits past `len` are always zero, so
/// word-wise combination never manufactures selections out of range.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap of length 0.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Resizes to `len` positions with every bit cleared.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Resizes to `len` positions with every bit set (tail masked).
    pub fn set_all(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), u64::MAX);
        self.mask_tail();
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets the bit at position `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Word-wise intersection with `other` (same length required).
    pub fn and(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Word-wise union with `other` (same length required).
    pub fn or(&mut self, other: &Bitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Word-wise complement over `0..len` (tail masked back to zero).
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Fills `out` (reset to `n` positions) from a per-position test, packing 64
/// positions per word. The closure is monomorphized per call site, so each
/// predicate leaf compiles to its own tight compare loop.
#[inline]
fn pack_positions(n: usize, out: &mut Bitmap, test: impl Fn(usize) -> bool) {
    out.reset(n);
    for (w, word) in out.words.iter_mut().enumerate() {
        let base = w * 64;
        let lanes = 64.min(n - base);
        let mut bits = 0u64;
        for k in 0..lanes {
            bits |= u64::from(test(base + k)) << k;
        }
        *word = bits;
    }
}

/// Like [`pack_positions`] but the test receives the *row id* gathered from
/// `rows` — the shape of every single-column predicate leaf.
#[inline]
fn pack_rows(rows: &[u32], out: &mut Bitmap, test: impl Fn(u32) -> bool) {
    pack_positions(rows.len(), out, |i| test(rows[i]));
}

/// `lo <= v && v <= hi` over an integer column, gathered through `rows`.
pub fn int_range_bitmap(values: &[i64], rows: &[u32], lo: i64, hi: i64, out: &mut Bitmap) {
    pack_rows(rows, out, |r| {
        let v = values[r as usize];
        lo <= v && v <= hi
    });
}

/// `values.contains(v)` membership over an integer column.
pub fn int_in_bitmap(values: &[i64], rows: &[u32], needles: &[i64], out: &mut Bitmap) {
    pack_rows(rows, out, |r| needles.contains(&values[r as usize]));
}

/// `lo <= v && v <= hi` over a float column. NaN compares false on both
/// sides, exactly as in the row-at-a-time evaluation.
pub fn float_range_bitmap(values: &[f64], rows: &[u32], lo: f64, hi: f64, out: &mut Bitmap) {
    pack_rows(rows, out, |r| {
        let v = values[r as usize];
        lo <= v && v <= hi
    });
}

/// Half-open `lo <= v && v < hi` over a date column.
pub fn date_range_bitmap(values: &[Date], rows: &[u32], lo: Date, hi: Date, out: &mut Bitmap) {
    pack_rows(rows, out, |r| {
        let v = values[r as usize];
        lo <= v && v < hi
    });
}

/// Dictionary-mask membership over a category column: position selected when
/// `mask[code]` is true.
pub fn cat_mask_bitmap(codes: &[u32], rows: &[u32], mask: &[bool], out: &mut Bitmap) {
    pack_rows(rows, out, |r| mask[codes[r as usize] as usize]);
}

/// Element-wise float comparison of two gathered operand vectors (position
/// space). NaN operands compare false under every operator, matching the
/// scalar `<`/`<=`/`==` semantics of the row loop.
pub fn cmp_bitmap(a: &[f64], b: &[f64], op: CmpOp, out: &mut Bitmap) {
    debug_assert_eq!(a.len(), b.len());
    match op {
        CmpOp::Lt => pack_positions(a.len(), out, |i| a[i] < b[i]),
        CmpOp::Le => pack_positions(a.len(), out, |i| a[i] <= b[i]),
        CmpOp::Eq => pack_positions(a.len(), out, |i| a[i] == b[i]),
    }
}

// ---------------------------------------------------------------------------
// Gathers
// ---------------------------------------------------------------------------

/// Gathers the numeric view of `col` at every row of `rows` (position
/// space): `out[i] = numeric(col, rows[i])`. The type dispatch happens once
/// per call, not once per row.
pub fn gather_numeric(col: &Column, rows: &[u32], out: &mut Vec<f64>) {
    out.clear();
    match col {
        Column::Int(v) => out.extend(rows.iter().map(|&r| v[r as usize] as f64)),
        Column::Float(v) => out.extend(rows.iter().map(|&r| v[r as usize])),
        Column::Date(v) => out.extend(rows.iter().map(|&r| v[r as usize] as f64)),
        Column::Cat { codes, .. } => out.extend(rows.iter().map(|&r| codes[r as usize] as f64)),
    }
}

/// Gathers raw group-key values (`i64`) at the selected positions. Float
/// columns are rejected at bind time; the debug assertion mirrors the
/// row-path's unreachable arm.
pub fn gather_group_keys(col: &Column, rows: &[u32], positions: &[u32], out: &mut Vec<i64>) {
    out.clear();
    match col {
        Column::Int(v) => out.extend(positions.iter().map(|&p| v[rows[p as usize] as usize])),
        Column::Date(v) => {
            out.extend(positions.iter().map(|&p| v[rows[p as usize] as usize] as i64))
        }
        Column::Cat { codes, .. } => {
            out.extend(positions.iter().map(|&p| codes[rows[p as usize] as usize] as i64))
        }
        Column::Float(_) => {
            debug_assert!(false, "bind rejects float group columns");
            out.extend(positions.iter().map(|_| 0i64));
        }
    }
}

/// Gathers `EXTRACT(YEAR ...)` of a date column at the selected positions.
pub fn gather_years(values: &[Date], rows: &[u32], positions: &[u32], out: &mut Vec<i64>) {
    out.clear();
    out.extend(positions.iter().map(|&p| year_of(values[rows[p as usize] as usize]) as i64));
}

// ---------------------------------------------------------------------------
// Element-wise expression arithmetic
// ---------------------------------------------------------------------------

/// `out[i] += rhs[i]`.
pub fn add_assign(out: &mut [f64], rhs: &[f64]) {
    debug_assert_eq!(out.len(), rhs.len());
    for (a, b) in out.iter_mut().zip(rhs) {
        *a += b;
    }
}

/// `out[i] -= rhs[i]`.
pub fn sub_assign(out: &mut [f64], rhs: &[f64]) {
    debug_assert_eq!(out.len(), rhs.len());
    for (a, b) in out.iter_mut().zip(rhs) {
        *a -= b;
    }
}

/// `out[i] *= rhs[i]`.
pub fn mul_assign(out: &mut [f64], rhs: &[f64]) {
    debug_assert_eq!(out.len(), rhs.len());
    for (a, b) in out.iter_mut().zip(rhs) {
        *a *= b;
    }
}

/// Guarded division: `out[i] = if rhs[i] == 0.0 { 0.0 } else { out[i] /
/// rhs[i] }` — the engine's SQL-style divide-by-zero rule, element-wise.
pub fn div_assign_guarded(out: &mut [f64], rhs: &[f64]) {
    debug_assert_eq!(out.len(), rhs.len());
    for (a, b) in out.iter_mut().zip(rhs) {
        *a = if *b == 0.0 { 0.0 } else { *a / *b };
    }
}

// ---------------------------------------------------------------------------
// Deterministic open-addressed primary-key indexes
// ---------------------------------------------------------------------------

/// Fibonacci multiplier (odd, near 2^64/φ) for multiply-shift hashing.
const HASH_MUL_A: u64 = 0x9E37_79B9_7F4A_7C15;
/// Second multiplier for composite keys (from xxhash's prime pool).
const HASH_MUL_B: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// A deterministic open-addressed hash index `i64 key → u32 row` for
/// primary-key join probes.
///
/// Linear probing over a power-of-two table at ≤50% load; the hash is a
/// fixed multiply-shift (high bits), so layout and probe sequences are a
/// pure function of the key set — no `RandomState`, no per-process seed.
/// Point lookups only; the table is never iterated.
#[derive(Debug, Clone)]
pub struct PkIndex {
    mask: usize,
    shift: u32,
    keys: Vec<i64>,
    /// `row + 1`; 0 marks an empty slot.
    rows: Vec<u32>,
    len: usize,
}

impl PkIndex {
    /// Builds an index mapping `values[row] → row`.
    ///
    /// # Panics
    /// Panics on duplicate keys (the column would not be a primary key).
    pub fn build(values: &[i64]) -> PkIndex {
        let cap = (values.len().max(1) * 2).next_power_of_two();
        let mut idx = PkIndex {
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
            keys: vec![0; cap],
            rows: vec![0; cap],
            len: values.len(),
        };
        for (row, &k) in values.iter().enumerate() {
            let mut i = idx.slot_of(k);
            while idx.rows[i] != 0 {
                assert!(idx.keys[i] != k, "duplicate primary key {k}");
                i = (i + 1) & idx.mask;
            }
            idx.keys[i] = k;
            idx.rows[i] = row as u32 + 1;
        }
        idx
    }

    #[inline]
    fn slot_of(&self, key: i64) -> usize {
        (((key as u64).wrapping_mul(HASH_MUL_A)) >> self.shift) as usize
    }

    /// Number of keys in the index.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point lookup: the row holding `key`, if present.
    #[inline]
    pub fn get(&self, key: i64) -> Option<u32> {
        let mut i = self.slot_of(key);
        loop {
            let r = self.rows[i];
            if r == 0 {
                return None;
            }
            if self.keys[i] == key {
                return Some(r - 1);
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// A deterministic open-addressed hash index for composite `(i64, i64)`
/// primary keys — same layout rules as [`PkIndex`].
#[derive(Debug, Clone)]
pub struct PkIndex2 {
    mask: usize,
    shift: u32,
    keys_a: Vec<i64>,
    keys_b: Vec<i64>,
    /// `row + 1`; 0 marks an empty slot.
    rows: Vec<u32>,
    len: usize,
}

impl PkIndex2 {
    /// Builds an index mapping `(a[row], b[row]) → row`.
    ///
    /// # Panics
    /// Panics on duplicate composite keys or mismatched column lengths.
    pub fn build(a: &[i64], b: &[i64]) -> PkIndex2 {
        assert_eq!(a.len(), b.len(), "composite key columns must have equal length");
        let cap = (a.len().max(1) * 2).next_power_of_two();
        let mut idx = PkIndex2 {
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
            keys_a: vec![0; cap],
            keys_b: vec![0; cap],
            rows: vec![0; cap],
            len: a.len(),
        };
        for (row, (&ka, &kb)) in a.iter().zip(b).enumerate() {
            let mut i = idx.slot_of(ka, kb);
            while idx.rows[i] != 0 {
                assert!(
                    idx.keys_a[i] != ka || idx.keys_b[i] != kb,
                    "duplicate composite key ({ka}, {kb})"
                );
                i = (i + 1) & idx.mask;
            }
            idx.keys_a[i] = ka;
            idx.keys_b[i] = kb;
            idx.rows[i] = row as u32 + 1;
        }
        idx
    }

    #[inline]
    fn slot_of(&self, a: i64, b: i64) -> usize {
        let h = (a as u64).wrapping_mul(HASH_MUL_A) ^ (b as u64).wrapping_mul(HASH_MUL_B);
        (h >> self.shift) as usize
    }

    /// Number of keys in the index.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point lookup: the row holding `(a, b)`, if present.
    #[inline]
    pub fn get(&self, a: i64, b: i64) -> Option<u32> {
        let mut i = self.slot_of(a, b);
        loop {
            let r = self.rows[i];
            if r == 0 {
                return None;
            }
            if self.keys_a[i] == a && self.keys_b[i] == b {
                return Some(r - 1);
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// Batch hash-join probe through a single-key index: for every surviving
/// position `p`, looks up `fk[src_rows[p]]`; on a hit the target row is
/// written to `targets[p]` and the position is retained (in order), on a
/// miss the position is dropped — inner-join semantics, identical to the
/// row loop's early exit.
pub fn probe_single(
    index: &PkIndex,
    fk: &[i64],
    src_rows: &[u32],
    positions: &mut Vec<u32>,
    targets: &mut [u32],
) {
    let mut kept = 0;
    for i in 0..positions.len() {
        let p = positions[i] as usize;
        if let Some(t) = index.get(fk[src_rows[p] as usize]) {
            targets[p] = t;
            positions[kept] = p as u32;
            kept += 1;
        }
    }
    positions.truncate(kept);
}

/// Batch probe through a composite index — see [`probe_single`].
pub fn probe_composite(
    index: &PkIndex2,
    fk_a: &[i64],
    fk_b: &[i64],
    src_rows: &[u32],
    positions: &mut Vec<u32>,
    targets: &mut [u32],
) {
    let mut kept = 0;
    for i in 0..positions.len() {
        let p = positions[i] as usize;
        let src = src_rows[p] as usize;
        if let Some(t) = index.get(fk_a[src], fk_b[src]) {
            targets[p] = t;
            positions[kept] = p as u32;
            kept += 1;
        }
    }
    positions.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_and_tail_masking() {
        let mut bm = Bitmap::new();
        bm.reset(70);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.count(), 0);
        bm.set(0);
        bm.set(69);
        assert!(bm.get(0) && bm.get(69) && !bm.get(1));
        assert_eq!(bm.count(), 2);
        bm.negate();
        assert_eq!(bm.count(), 68, "negate must mask the tail");
        let mut all = Bitmap::new();
        all.set_all(70);
        assert_eq!(all.count(), 70);
    }

    #[test]
    fn bitmap_and_or() {
        let mut a = Bitmap::new();
        let mut b = Bitmap::new();
        a.reset(10);
        b.reset(10);
        a.set(1);
        a.set(2);
        b.set(2);
        b.set(3);
        let mut u = a.clone();
        u.or(&b);
        a.and(&b);
        assert_eq!(a.count(), 1);
        assert!(a.get(2));
        assert_eq!(u.count(), 3);
    }

    #[test]
    fn pk_index_hits_and_misses() {
        let keys: Vec<i64> = (0..1000).map(|i| i * 3 + 7).collect();
        let idx = PkIndex::build(&keys);
        assert_eq!(idx.len(), 1000);
        for (row, &k) in keys.iter().enumerate() {
            assert_eq!(idx.get(k), Some(row as u32));
            assert_eq!(idx.get(k + 1), None);
        }
        assert!(PkIndex::build(&[]).is_empty());
        assert_eq!(PkIndex::build(&[]).get(42), None);
    }

    #[test]
    #[should_panic(expected = "duplicate primary key")]
    fn pk_index_rejects_duplicates() {
        let _ = PkIndex::build(&[5, 9, 5]);
    }

    #[test]
    fn pk_index2_composite_lookups() {
        let a: Vec<i64> = (0..200).map(|i| i / 4).collect();
        let b: Vec<i64> = (0..200).map(|i| i % 4).collect();
        let idx = PkIndex2::build(&a, &b);
        assert_eq!(idx.get(10, 2), Some(42));
        assert_eq!(idx.get(10, 5), None);
        assert_eq!(idx.get(-1, 0), None);
    }

    #[test]
    #[should_panic(expected = "duplicate composite key")]
    fn pk_index2_rejects_duplicates() {
        let _ = PkIndex2::build(&[1, 1], &[2, 2]);
    }

    #[test]
    fn probe_single_compacts_in_order() {
        let idx = PkIndex::build(&[10, 20, 30]);
        let fk = vec![20i64, 99, 10, 30];
        let src: Vec<u32> = vec![0, 1, 2, 3];
        let mut positions: Vec<u32> = vec![0, 1, 2, 3];
        let mut targets = vec![0u32; 4];
        probe_single(&idx, &fk, &src, &mut positions, &mut targets);
        assert_eq!(positions, vec![0, 2, 3]);
        assert_eq!(targets[0], 1);
        assert_eq!(targets[2], 0);
        assert_eq!(targets[3], 2);
    }
}
