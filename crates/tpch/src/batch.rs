//! Progressive batch source — the Kafka stand-in.
//!
//! The paper streams the TPC-H dataset "in batches from a data source" (an
//! Apache Kafka cluster): one log per dataset, each job reading it from its
//! own offset. A [`RowOrder`] is that log: a fact table's row indices
//! shuffled once (seeded, so reproducible), stored twice over so the window
//! read from any offset is one contiguous slice. A [`BatchSource`] serves
//! an order from offset `b` — `P[b]`, `P[b + 1]`, … wrapping past the end,
//! every row once — in fixed-size batches ("each batch has the
//! (approximately) same batch size", §III-A; the last may be smaller). For
//! any fixed `b` the rotation of a uniform `P` is uniform, so every stream
//! is the progressive sample online aggregation needs (DESIGN.md §5).
//! [`BatchSource::new`] is the one-stream case: a source owning its
//! permutation and reading it from offset 0.

use std::sync::Arc;

use rotary_sim::rng::Rng;

/// The row indices `0..rows` in the order `seed` shuffles them.
fn permutation(seed: u64, rows: usize) -> Vec<u32> {
    assert!(rows <= u32::MAX as usize, "row count exceeds u32 index space");
    let mut permutation: Vec<u32> = (0..rows as u32).collect();
    Rng::seed_from_u64(seed).fork("batch-order").shuffle(&mut permutation);
    permutation
}

/// One shuffled order of a table's rows, stored twice over; clones share
/// the storage.
#[derive(Debug, Clone)]
pub struct RowOrder {
    doubled: Arc<[u32]>,
}

impl RowOrder {
    /// The order of a `rows`-row table under `seed`: the permutation
    /// [`BatchSource::new`] serves for the same seed. Panics past
    /// `u32::MAX` rows.
    pub fn shuffled(seed: u64, rows: usize) -> RowOrder {
        let mut doubled = permutation(seed, rows);
        doubled.extend_from_within(..);
        RowOrder { doubled: doubled.into() }
    }

    /// Rows in the table.
    pub fn rows(&self) -> usize {
        self.doubled.len() / 2
    }
}

/// A shuffled, batched view over `0..rows` of a fact table.
#[derive(Debug, Clone)]
pub struct BatchSource {
    /// The order read from; `offset + total` never exceeds its length.
    order: Arc<[u32]>,
    offset: usize,
    total: usize,
    batch_size: usize,
    cursor: usize,
}

impl BatchSource {
    /// Creates a source over `rows` rows with the given batch size, owning
    /// its own permutation under `seed` and reading it from the start.
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or `rows` exceeds `u32::MAX` (tables at
    /// the paper's SF=1 are well under that).
    pub fn new(seed: u64, rows: usize, batch_size: usize) -> Self {
        BatchSource::reading(permutation(seed, rows).into(), 0, rows, batch_size)
    }

    /// A source reading the shared `order` from an offset drawn uniformly
    /// from `seed` — one job's stream over its fact table.
    ///
    /// # Panics
    /// Panics if `batch_size == 0`.
    pub fn at_offset(order: &RowOrder, seed: u64, batch_size: usize) -> Self {
        let rows = order.rows();
        let offset = Rng::seed_from_u64(seed).fork("batch-offset").gen_range(0..rows.max(1));
        BatchSource::reading(Arc::clone(&order.doubled), offset, rows, batch_size)
    }

    fn reading(order: Arc<[u32]>, offset: usize, total: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchSource { order, offset, total, batch_size, cursor: 0 }
    }

    /// Whether `self` and `other` read one order allocation.
    pub fn shares_order_with(&self, other: &BatchSource) -> bool {
        Arc::ptr_eq(&self.order, &other.order)
    }

    /// Serves the next `rows` rows (fewer at the end of the table).
    fn take(&mut self, rows: usize) -> Option<&[u32]> {
        if self.cursor >= self.total {
            return None;
        }
        let start = self.cursor;
        let end = start.saturating_add(rows).min(self.total);
        self.cursor = end;
        Some(&self.order[self.offset + start..self.offset + end])
    }

    /// The next batch of row indices, or `None` when the table is exhausted.
    pub fn next_batch(&mut self) -> Option<&[u32]> {
        self.take(self.batch_size)
    }

    /// Takes up to `n` batches at once, returning the concatenated rows.
    /// Used by adaptive running epochs, where an epoch spans several batches.
    pub fn next_batches(&mut self, n: usize) -> Option<&[u32]> {
        self.take(self.batch_size.saturating_mul(n))
    }

    /// Fraction of the table delivered so far, in `[0, 1]` — the x-axis of
    /// Fig. 1a ("percentage of data processed").
    pub fn fraction_delivered(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.cursor as f64 / self.total as f64
        }
    }

    /// Rows delivered so far.
    pub fn delivered(&self) -> usize {
        self.cursor
    }

    /// Total rows in the underlying table.
    pub fn total_rows(&self) -> usize {
        self.total
    }

    /// True once every row has been served.
    pub fn is_exhausted(&self) -> bool {
        self.cursor >= self.total
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The first `rows` delivered row indices in delivery order, advancing
    /// the cursor past them — used by durable snapshot restore to replay a
    /// resumed job's delivered prefix through a fresh executor, or to
    /// position the stream of a job it finds terminal.
    ///
    /// # Panics
    /// Panics if `rows` exceeds the table size; snapshots record a
    /// delivered count that came from this very source, so a larger value
    /// is corrupt input the caller must reject first.
    pub fn replay_prefix(&mut self, rows: usize) -> &[u32] {
        assert!(rows <= self.total, "replay prefix exceeds table size");
        self.cursor = rows;
        &self.order[self.offset..self.offset + rows]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn batches_partition_the_table() {
        let mut src = BatchSource::new(1, 100, 7);
        let mut seen = HashSet::new();
        let mut sizes = Vec::new();
        while let Some(batch) = src.next_batch() {
            sizes.push(batch.len());
            for &r in batch {
                assert!(seen.insert(r), "row {r} served twice");
            }
        }
        assert_eq!(seen.len(), 100);
        // 14 full batches of 7 plus a final 2.
        assert_eq!(sizes.len(), 15);
        assert!(sizes[..14].iter().all(|&s| s == 7));
        assert_eq!(sizes[14], 2);
        assert!(src.is_exhausted());
        assert!(src.next_batch().is_none());
    }

    #[test]
    fn order_is_shuffled_but_deterministic() {
        let mut a = BatchSource::new(5, 1000, 100);
        let mut b = BatchSource::new(5, 1000, 100);
        let batch_a: Vec<u32> = a.next_batch().unwrap().to_vec();
        let batch_b: Vec<u32> = b.next_batch().unwrap().to_vec();
        assert_eq!(batch_a, batch_b);
        // Not the identity permutation (overwhelmingly unlikely by chance).
        assert_ne!(batch_a, (0..100).collect::<Vec<u32>>());
        let mut c = BatchSource::new(6, 1000, 100);
        assert_ne!(batch_a, c.next_batch().unwrap().to_vec());
    }

    #[test]
    fn fraction_delivered_advances() {
        let mut src = BatchSource::new(2, 10, 5);
        assert_eq!(src.fraction_delivered(), 0.0);
        src.next_batch();
        assert_eq!(src.fraction_delivered(), 0.5);
        src.next_batch();
        assert_eq!(src.fraction_delivered(), 1.0);
        assert_eq!(src.delivered(), 10);
        assert_eq!(src.total_rows(), 10);
    }

    #[test]
    fn multi_batch_epochs() {
        let mut src = BatchSource::new(3, 100, 10);
        let rows = src.next_batches(3).unwrap();
        assert_eq!(rows.len(), 30);
        // Remaining 70 rows: asking for 10 batches returns what is left.
        let rows = src.next_batches(10).unwrap();
        assert_eq!(rows.len(), 70);
        assert!(src.next_batches(1).is_none());
    }

    #[test]
    fn replay_prefix_matches_delivery_order() {
        let mut src = BatchSource::new(4, 50, 10);
        let mut delivered: Vec<u32> = Vec::new();
        delivered.extend_from_slice(src.next_batch().unwrap());
        delivered.extend_from_slice(src.next_batch().unwrap());
        let mut resumed = BatchSource::new(4, 50, 10);
        assert_eq!(resumed.replay_prefix(20), delivered.as_slice());
        assert_eq!(resumed.delivered(), 20);
        // Both sources continue identically after the replay.
        assert_eq!(resumed.next_batch().unwrap(), src.next_batch().unwrap());
    }

    #[test]
    fn a_source_at_an_offset_serves_the_rotation_of_the_shared_order() {
        let p = permutation(9, 95);
        let order = RowOrder::shuffled(9, 95);
        assert_eq!(order.rows(), 95);
        let mut own = BatchSource::new(9, 95, 10);
        let mut served = Vec::new();
        while let Some(batch) = own.next_batches(2) {
            served.extend_from_slice(batch);
        }
        assert_eq!(served, p, "the one-stream source reads its permutation from offset 0");

        let mut offsets = HashSet::new();
        for seed in 0..20 {
            let mut src = BatchSource::at_offset(&order, seed, 10);
            let b = src.offset;
            offsets.insert(b);
            let rotation: Vec<u32> = p[b..].iter().chain(&p[..b]).copied().collect();
            let mut served = Vec::new();
            while let Some(batch) = src.next_batches(2) {
                served.extend_from_slice(batch);
            }
            assert_eq!(served, rotation);

            let mut resumed = BatchSource::at_offset(&order, seed, 10);
            assert!(resumed.shares_order_with(&src) && !resumed.shares_order_with(&own));
            assert_eq!(resumed.replay_prefix(37), &rotation[..37]);
            assert_eq!(resumed.next_batch().unwrap(), &rotation[37..47]);
            assert_eq!(resumed.replay_prefix(95), rotation.as_slice());
            assert!(resumed.next_batch().is_none());
        }
        assert!(offsets.len() > 10, "offsets drawn per seed: {offsets:?}");
    }

    #[test]
    fn empty_table_is_exhausted_immediately() {
        let shared = BatchSource::at_offset(&RowOrder::shuffled(1, 0), 1, 10);
        for mut src in [BatchSource::new(1, 0, 10), shared] {
            assert!(src.is_exhausted());
            assert_eq!(src.fraction_delivered(), 1.0);
            assert!(src.next_batch().is_none());
            assert_eq!(src.replay_prefix(0), &[] as &[u32]);
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        let _ = BatchSource::new(1, 10, 0);
    }
}
