//! The feature-class index of the history repository: which records share
//! their `(kind, label, tags, numeric_features)`, and one typed row per
//! class for the caller's similarity score.

use super::JobRecord;
use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
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
    pub(super) classes: Vec<Vec<u32>>,
    /// Class ids per application family (indexed by `JobKind as usize`),
    /// ascending.
    pub(super) of_kind: [Vec<u32>; 2],
    /// Hash of the class-defining fields → the classes that hash there.
    by_hash: BTreeMap<u64, Vec<u32>>,
    /// One caller-typed row per class (a `Vec<R>` parallel to `classes`),
    /// extracted on demand by [`super::HistoryRepository::top_k_rows`].
    rows: Option<Box<dyn Any + Send + Sync>>,
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
                self.of_kind[record.kind as usize].push(c);
                self.classes.push(vec![at as u32]);
            }
        }
    }

    /// Extends the typed rows to cover every class filed so far, starting
    /// over when the last caller extracted a different row type.
    pub(super) fn catch_up_rows<R, X>(&mut self, records: &[JobRecord], extract: X)
    where
        R: Any + Send + Sync,
        X: Fn(&JobRecord) -> R,
    {
        if !self.rows.as_ref().is_some_and(|rows| rows.is::<Vec<R>>()) {
            self.rows = Some(Box::new(Vec::<R>::new()));
        }
        let Some(rows) = self.rows.as_mut().and_then(|rows| rows.downcast_mut::<Vec<R>>()) else {
            return;
        };
        let missing = &self.classes[rows.len()..];
        rows.extend(missing.iter().map(|members| extract(&records[members[0] as usize])));
    }

    pub(super) fn rows<R: Any>(&self) -> &[R] {
        self.rows.as_ref().and_then(|rows| rows.downcast_ref::<Vec<R>>()).map_or(&[], Vec::as_slice)
    }
}
