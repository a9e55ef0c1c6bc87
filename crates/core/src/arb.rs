//! Control-plane arbitration primitives: total-order float keys, a
//! logarithmic grid for fleet-level inputs, and an incrementally maintained
//! priority index.
//!
//! Production-scale arbitration (ROADMAP: 100k concurrent jobs) makes the
//! per-epoch control-plane cost itself the hot path. The arbitration loops
//! in `rotary-aqp` and `rotary-dlt` historically re-derived their priority
//! order from scratch on every event — an O(n log n) sort over O(n)
//! recomputed keys per event. The primitives here let them keep the order
//! *standing* between events instead, in the spirit of Execution Templates'
//! validate-and-patch: a job's key is recomputed only when one of its inputs
//! changed, and the ordered structure absorbs that single update in
//! O(log n). Each system keeps its dense re-sort as the reference, and in
//! debug builds every pass that reads a standing order asserts that order
//! against it.
//!
//! Everything is deterministic and zero-dependency: the index is a
//! `BTreeSet` over `(key, id)` pairs, and the key is a [total order over
//! f64](OrdF64) (so `NaN` cannot panic a comparator — the historical
//! `partial_cmp(..).unwrap()` sites are replaced by this type).

use std::collections::{BTreeMap, BTreeSet};

/// An `f64` wrapped into a *total* order, for use as a sort or B-tree key.
///
/// Ordering matches IEEE `<` on ordinary values; `-0.0` and `+0.0` compare
/// equal (both canonicalise to `+0.0`), and every `NaN` sorts *after*
/// `+∞` — a poisoned key sinks to the bottom of a priority order instead of
/// panicking the comparator or (worse) corrupting a sort with an
/// inconsistent `Ordering::Equal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrdF64(u64);

impl OrdF64 {
    /// Wraps a float into the total order.
    pub fn new(x: f64) -> Self {
        if x.is_nan() {
            return OrdF64(u64::MAX);
        }
        // Collapse -0.0 onto +0.0 before the bit trick so the two zeros
        // compare equal.
        let x = if x == 0.0 { 0.0 } else { x };
        let bits = x.to_bits();
        // Monotone bijection from IEEE-754 bit patterns to u64 order:
        // negative floats reverse (two's-complement style), positives shift
        // above them.
        OrdF64(if bits >> 63 == 1 { !bits } else { bits ^ (1 << 63) })
    }
}

/// Snaps a positive duration (or any positive quantity) onto a fixed
/// logarithmic grid with `steps` steps per octave.
///
/// The arbitration loops use this for *fleet-level* estimator inputs (the
/// average epoch duration): the raw average moves a few ULPs on every
/// completed epoch, which would invalidate every cold job's cached priority
/// key on every event. Snapped to a ~1% grid, the shared input only changes
/// when the fleet average genuinely drifts, so re-keying the cold set is
/// amortised away. The function is pure (no state), so snapshot-restored
/// runs recompute the identical grid point.
pub fn quantize_log2(x: f64, steps: u32) -> f64 {
    if !x.is_finite() || x <= 0.0 {
        return if x.is_nan() { x } else { x.max(0.0) };
    }
    let steps = steps.max(1) as f64;
    ((x.log2() * steps).round() / steps).exp2()
}

/// An incrementally maintained priority order over job ids.
///
/// Semantically equivalent to sorting `(key, id)` ascending — the property
/// suite pins exactly that equivalence, tied keys included — but updates in
/// O(log n) per changed job instead of O(n log n) per event. The index
/// remembers each id's current key, so a re-insert with an unchanged key is
/// a no-op and stale entries can be removed without the caller tracking
/// them.
#[derive(Debug, Clone)]
pub struct PriorityIndex<K: Ord + Copy> {
    set: BTreeSet<(K, u32)>,
    current: BTreeMap<u32, K>,
}

impl<K: Ord + Copy> Default for PriorityIndex<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> PriorityIndex<K> {
    /// An empty index.
    pub fn new() -> Self {
        PriorityIndex { set: BTreeSet::new(), current: BTreeMap::new() }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.set.clear();
        self.current.clear();
    }

    /// Inserts `id` with `key`, replacing any previous entry for `id`.
    /// Returns `true` if the index changed (new id, or key moved).
    pub fn upsert(&mut self, id: u32, key: K) -> bool {
        match self.current.insert(id, key) {
            Some(old) if old == key => false,
            Some(old) => {
                self.set.remove(&(old, id));
                self.set.insert((key, id));
                true
            }
            None => {
                self.set.insert((key, id));
                true
            }
        }
    }

    /// Removes `id` from the index. Returns `true` if it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        match self.current.remove(&id) {
            Some(old) => {
                self.set.remove(&(old, id));
                true
            }
            None => false,
        }
    }

    /// Whether `id` currently has an entry.
    pub fn contains(&self, id: u32) -> bool {
        self.current.contains_key(&id)
    }

    /// The key currently stored for `id`.
    pub fn key_of(&self, id: u32) -> Option<K> {
        self.current.get(&id).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Entries in priority order (ascending `(key, id)`).
    pub fn iter(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.set.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordf64_matches_ieee_on_ordinary_values() {
        let vals = [-f64::INFINITY, -1e300, -2.5, -1e-308, 0.0, 1e-308, 2.5, 1e300, f64::INFINITY];
        for w in vals.windows(2) {
            assert!(OrdF64::new(w[0]) < OrdF64::new(w[1]), "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn ordf64_zeros_compare_equal() {
        assert_eq!(OrdF64::new(-0.0), OrdF64::new(0.0));
    }

    #[test]
    fn ordf64_nan_sorts_last() {
        assert!(OrdF64::new(f64::INFINITY) < OrdF64::new(f64::NAN));
        assert!(OrdF64::new(-f64::NAN) == OrdF64::new(f64::NAN));
    }

    #[test]
    fn quantize_is_idempotent_and_monotone() {
        let xs = [1e-6, 0.5, 59.7, 60.0, 61.3, 1e9];
        for &x in &xs {
            let q = quantize_log2(x, 64);
            assert_eq!(quantize_log2(q, 64), q, "idempotent at {x}");
            assert!((q / x - 1.0).abs() < 0.011, "within one grid step at {x}");
        }
        for w in xs.windows(2) {
            assert!(quantize_log2(w[0], 64) <= quantize_log2(w[1], 64));
        }
        assert_eq!(quantize_log2(0.0, 64), 0.0);
        assert_eq!(quantize_log2(-3.0, 64), 0.0);
        assert_eq!(quantize_log2(f64::INFINITY, 64), f64::INFINITY);
    }

    #[test]
    fn index_tracks_upserts_and_removals() {
        let mut idx: PriorityIndex<OrdF64> = PriorityIndex::new();
        assert!(idx.upsert(1, OrdF64::new(3.0)));
        assert!(idx.upsert(2, OrdF64::new(1.0)));
        assert!(idx.upsert(3, OrdF64::new(2.0)));
        assert!(!idx.upsert(2, OrdF64::new(1.0)), "unchanged key is a no-op");
        let order: Vec<u32> = idx.iter().map(|(_, id)| id).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert!(idx.upsert(1, OrdF64::new(0.0)), "moved key re-sorts");
        let order: Vec<u32> = idx.iter().map(|(_, id)| id).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(idx.remove(2));
        assert!(!idx.remove(2));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.key_of(3), Some(OrdF64::new(2.0)));
    }

    #[test]
    fn index_ties_break_by_id() {
        let mut idx: PriorityIndex<OrdF64> = PriorityIndex::new();
        for id in [5u32, 1, 9, 3] {
            idx.upsert(id, OrdF64::new(7.0));
        }
        let order: Vec<u32> = idx.iter().map(|(_, id)| id).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }
}
