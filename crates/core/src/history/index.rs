//! The feature-class index of the history repository: which records share
//! their `(kind, label, tags, numeric_features)`, one typed row per class
//! for the caller's similarity score, the buckets those rows file the
//! classes under, and the bounded top-k selection over them.

use super::{ClassRow, JobRecord};
use crate::arb::OrdF64;
use crate::job::JobKind;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap};
use std::hash::{Hash, Hasher};

/// The feature classes of a record list. Derived state, never serialised:
/// a query files whatever was appended since the last one, and anything
/// other than an append resets the index to empty.
#[derive(Debug, Default)]
pub(super) struct ClassIndex {
    /// `records[..filed]` are filed under their classes.
    filed: usize,
    /// Member record indices per class, ascending; the first member is the
    /// class's representative. Classes are numbered in order of first
    /// appearance, so class order is representative insertion order.
    classes: Vec<Vec<u32>>,
    /// Hash of the class-defining fields → the classes that hash there.
    by_hash: BTreeMap<u64, Vec<u32>>,
    /// One caller-typed row per class and the classes filed per bucket (a
    /// `Rows<R>`), extracted on demand by [`ClassIndex::top_k`].
    rows: Option<Box<dyn Any + Send + Sync>>,
}

/// The typed rows of a [`ClassIndex`] and the buckets they file the
/// classes under.
struct Rows<R: ClassRow> {
    /// One row per class, parallel to `ClassIndex::classes`.
    rows: Vec<R>,
    /// Per application family: each bucket and its classes, ascending, in
    /// order of the bucket's first appearance.
    buckets: [Vec<(R::Bucket, Vec<u32>)>; 2],
    /// Per application family: bucket → its position in `buckets`.
    slots: [BTreeMap<R::Bucket, usize>; 2],
}

/// Bit-exact equality of the fields a similarity score may read, so that
/// any pure function of them agrees on every member of a class.
fn same_class(a: &JobRecord, b: &JobRecord) -> bool {
    a.kind == b.kind
        && a.label == b.label
        && a.tags == b.tags
        && a.numeric_features.len() == b.numeric_features.len()
        && a.numeric_features
            .iter()
            .zip(&b.numeric_features)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

fn class_hash(r: &JobRecord) -> u64 {
    let mut h = DefaultHasher::new();
    r.kind.hash(&mut h);
    r.label.hash(&mut h);
    r.tags.hash(&mut h);
    for (key, value) in &r.numeric_features {
        key.hash(&mut h);
        value.to_bits().hash(&mut h);
    }
    h.finish()
}

impl ClassIndex {
    /// Files the records appended since the last call. Filing costs a hash
    /// and a comparison per record, paid by the first query after the
    /// appends rather than by `insert`.
    pub(super) fn catch_up(&mut self, records: &[JobRecord]) {
        for at in self.filed..records.len() {
            self.add(records, at);
        }
        self.filed = records.len();
    }

    /// Number of classes filed so far.
    pub(super) fn class_count(&self) -> usize {
        self.classes.len()
    }

    fn add(&mut self, records: &[JobRecord], at: usize) {
        let record = &records[at];
        let same_hash = self.by_hash.entry(class_hash(record)).or_default();
        let class = same_hash
            .iter()
            .copied()
            .find(|&c| same_class(record, &records[self.classes[c as usize][0] as usize]));
        match class {
            Some(c) => self.classes[c as usize].push(at as u32),
            None => {
                let c = self.classes.len() as u32;
                same_hash.push(c);
                self.classes.push(vec![at as u32]);
            }
        }
    }

    /// Extends the typed rows and their buckets to cover every class filed
    /// so far, starting over when the last caller extracted a different row
    /// type.
    fn catch_up_rows<R, X>(&mut self, records: &[JobRecord], extract: X)
    where
        R: ClassRow,
        X: Fn(&JobRecord) -> R,
    {
        if !self.rows.as_ref().is_some_and(|rows| rows.is::<Rows<R>>()) {
            let empty = Rows::<R> {
                rows: Vec::new(),
                buckets: Default::default(),
                slots: Default::default(),
            };
            self.rows = Some(Box::new(empty));
        }
        let Some(typed) = self.rows.as_mut().and_then(|rows| rows.downcast_mut::<Rows<R>>()) else {
            return;
        };
        for c in typed.rows.len()..self.classes.len() {
            let representative = &records[self.classes[c][0] as usize];
            let row = extract(representative);
            let (key, kind) = (row.bucket(), representative.kind as usize);
            let buckets = &mut typed.buckets[kind];
            let slot = *typed.slots[kind].entry(key).or_insert_with(|| {
                buckets.push((key, Vec::new()));
                buckets.len() - 1
            });
            buckets[slot].1.push(c as u32);
            typed.rows.push(row);
        }
    }

    /// The top-k records of `kind` by `(score desc, insertion index asc)`,
    /// non-finite scores skipped — the prefix a stable sort of every scored
    /// record yields — as `(record index, score)`.
    ///
    /// Branch and bound over buckets: they are visited in descending
    /// `bound` order, and the scan stops before the first bucket whose
    /// bound is strictly below the k-th kept score. Every record left
    /// unvisited scores at most its bucket's bound, so it would rank behind
    /// k kept records. A bound *equal* to the k-th score does not stop the
    /// scan: that bucket may hold an equal score at an earlier insertion
    /// index. Within a bucket, classes ascend by first member, so the scan
    /// of a bucket stops at the first class whose first member would rank
    /// behind the k-th kept record even at the bucket's bound. A NaN bound
    /// declares a bucket without finite scores, and it is skipped unscored.
    pub(super) fn top_k<R, X, B, F>(
        &mut self,
        records: &[JobRecord],
        kind: JobKind,
        k: usize,
        extract: X,
        mut bound: B,
        mut score: F,
    ) -> Vec<(u32, f64)>
    where
        R: ClassRow,
        X: Fn(&JobRecord) -> R,
        B: FnMut(&R::Bucket) -> f64,
        F: FnMut(&R) -> f64,
    {
        self.catch_up(records);
        self.catch_up_rows(records, extract);
        let Some(typed) = self.rows.as_ref().and_then(|rows| rows.downcast_ref::<Rows<R>>()) else {
            return Vec::new();
        };
        let buckets = &typed.buckets[kind as usize];
        // Highest bound first; `OrdF64` orders non-NaN floats as IEEE `<`
        // does, zeros of either sign tied. Among equal bounds the first
        // filed pops first, though any order would select the same records.
        let mut order: BinaryHeap<(OrdF64, Reverse<usize>)> = buckets
            .iter()
            .enumerate()
            .filter_map(|(slot, (key, _))| {
                let b = bound(key);
                (!b.is_nan()).then(|| (OrdF64::new(b), Reverse(slot)))
            })
            .collect();

        // Kept records, best first, keyed by `(score desc, index asc)`.
        type Key = (Reverse<OrdF64>, u32);
        let mut best: Vec<(Key, f64)> = Vec::with_capacity(k.min(records.len()));
        // True when k records are kept and none ranks behind `key`.
        let settled = |best: &[(Key, f64)], key: Key| {
            best.len() == k && best.last().is_none_or(|&(worst, _)| key >= worst)
        };
        while let Some((b, Reverse(slot))) = order.pop() {
            // Every record in this bucket and the ones after it scores at
            // most `b`: stop once that ranks behind the k-th kept record,
            // which takes `b` strictly below the k-th score unless it sits
            // at index 0.
            if settled(&best, (Reverse(b), 0)) {
                break;
            }
            for &c in &buckets[slot].1 {
                let members = &self.classes[c as usize];
                // Classes ascend by first member, so every record left in
                // the bucket scores at most `b` at an index of at least this.
                if settled(&best, (Reverse(b), members[0])) {
                    break;
                }
                let s = score(&typed.rows[c as usize]);
                if !s.is_finite() {
                    continue;
                }
                let rank = Reverse(OrdF64::new(s));
                debug_assert!(rank.0 <= b, "score {s} exceeds the bound of bucket {slot}");
                // Members ascend, so once one cannot displace the k-th kept
                // record, none after it can.
                for &at in members {
                    if settled(&best, (rank, at)) {
                        break;
                    }
                    if best.len() == k {
                        best.pop();
                    }
                    let pos = best.partition_point(|&(kept, _)| kept < (rank, at));
                    best.insert(pos, ((rank, at), s));
                }
            }
        }
        best.into_iter().map(|((_, at), s)| (at, s)).collect()
    }
}
