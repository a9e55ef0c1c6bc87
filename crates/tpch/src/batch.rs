//! Progressive batch source — the Kafka stand-in.
//!
//! The paper streams the TPC-H dataset "in batches from a data source" (an
//! Apache Kafka cluster). Online aggregation requires each batch to be a
//! progressive *sample* of the whole table: [`BatchSource`] shuffles the
//! fact table's row indices once (seeded, so reproducible) and serves them
//! in fixed-size slices. Each batch is "a subset of the entire dataset …
//! each batch has the (approximately) same batch size" (§III-A); the final
//! batch may be smaller.
//!
//! The permutation (4 bytes per fact row) is the bulk of a progressive
//! query's memory and its shuffle the bulk of binding one. It is a pure
//! function of (seed, rows), so it is drawn on the first read — the first
//! batch or a restore's prefix replay — and a source nobody reads (a job
//! a restore finds already terminal) never draws it. A consumer that has
//! reached a terminal state calls [`BatchSource::release`] to hand it back;
//! the source keeps answering how much was delivered of how much, which is
//! all anyone asks of a finished stream.

use rotary_sim::rng::Rng;

/// The shuffled row order, by lifecycle stage.
#[derive(Debug, Clone)]
enum Order {
    /// Not drawn yet: nothing has been read.
    Unread,
    Drawn(Vec<u32>),
    /// Handed back; no further row is served.
    Released,
}

/// A shuffled, batched view over `0..rows` of a fact table.
#[derive(Debug, Clone)]
pub struct BatchSource {
    order: Order,
    seed: u64,
    /// Rows in the underlying table; outlives the permutation.
    total: usize,
    batch_size: usize,
    cursor: usize,
}

impl BatchSource {
    /// Creates a source over `rows` rows with the given batch size. The
    /// permutation is drawn on the first read.
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or `rows` exceeds `u32::MAX` (tables at
    /// the paper's SF=1 are well under that).
    pub fn new(seed: u64, rows: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(rows <= u32::MAX as usize, "row count exceeds u32 index space");
        BatchSource { order: Order::Unread, seed, total: rows, batch_size, cursor: 0 }
    }

    /// The permutation, drawn now if nothing was read before; empty once
    /// released.
    fn drawn(&mut self) -> &[u32] {
        if let Order::Unread = self.order {
            let mut permutation: Vec<u32> = (0..self.total as u32).collect();
            Rng::seed_from_u64(self.seed).fork("batch-order").shuffle(&mut permutation);
            self.order = Order::Drawn(permutation);
        }
        match &self.order {
            Order::Drawn(permutation) => permutation,
            _ => &[],
        }
    }

    /// Serves the next `rows` rows (fewer at the end of the table).
    fn take(&mut self, rows: usize) -> Option<&[u32]> {
        if self.cursor >= self.total || matches!(self.order, Order::Released) {
            return None;
        }
        let start = self.cursor;
        let end = start.saturating_add(rows).min(self.total);
        self.cursor = end;
        Some(&self.drawn()[start..end])
    }

    /// The next batch of row indices, or `None` when the table is exhausted
    /// (or the source released).
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

    /// Rewinds to the beginning with the *same* permutation — used when a
    /// checkpointed job restores and replays its delivered prefix.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// The first `rows` delivered row indices in delivery order, advancing
    /// the cursor past them — used by durable snapshot restore to replay a
    /// resumed job's delivered prefix through a fresh executor. An empty
    /// prefix draws nothing.
    ///
    /// # Panics
    /// Panics if `rows` exceeds the table size, or is positive on a
    /// released source; snapshots record a delivered count that came from
    /// this very source, so a larger value is corrupt input the caller must
    /// reject first.
    pub fn replay_prefix(&mut self, rows: usize) -> &[u32] {
        assert!(rows <= self.total, "replay prefix exceeds table size");
        self.cursor = rows;
        if rows == 0 {
            return &[];
        }
        &self.drawn()[..rows]
    }

    /// Frees the permutation, if it was ever drawn. The source serves no
    /// further batches; the delivered/total accounting keeps answering.
    /// Idempotent.
    pub fn release(&mut self) {
        self.order = Order::Released;
    }

    /// Releases the source with `rows` recorded as delivered — restoring a
    /// stream nobody will read from again, without drawing its permutation.
    ///
    /// # Panics
    /// Panics if `rows` exceeds the table size (see
    /// [`BatchSource::replay_prefix`]).
    pub fn release_at(&mut self, rows: usize) {
        assert!(rows <= self.total, "delivered count exceeds table size");
        self.release();
        self.cursor = rows;
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
    fn reset_replays_same_permutation() {
        let mut src = BatchSource::new(4, 50, 10);
        let first: Vec<u32> = src.next_batch().unwrap().to_vec();
        src.next_batch();
        src.reset();
        assert_eq!(src.fraction_delivered(), 0.0);
        assert_eq!(src.next_batch().unwrap(), first.as_slice());
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

    /// The order an eager shuffle at construction would have served.
    fn eager(seed: u64, rows: u32) -> Vec<u32> {
        let mut permutation: Vec<u32> = (0..rows).collect();
        Rng::seed_from_u64(seed).fork("batch-order").shuffle(&mut permutation);
        permutation
    }

    #[test]
    fn the_permutation_is_drawn_on_first_read_only() {
        let drawn = |src: &BatchSource| matches!(src.order, Order::Drawn(_));
        let mut src = BatchSource::new(8, 50, 10);
        assert!(!drawn(&src), "an unread source holds no permutation");
        assert_eq!(src.replay_prefix(0), &[] as &[u32]);
        assert!(!drawn(&src), "an empty replay draws nothing");
        let mut released = src.clone();
        released.release_at(30);
        assert!(!drawn(&released) && released.delivered() == 30);
        assert!(released.next_batch().is_none());
        src.next_batch();
        assert!(drawn(&src));
    }

    #[test]
    fn lazy_sources_deliver_the_eager_order_through_reset_and_replay() {
        let order = eager(9, 95);
        let mut src = BatchSource::new(9, 95, 10);
        let mut served = Vec::new();
        while let Some(batch) = src.next_batches(2) {
            served.extend_from_slice(batch);
        }
        assert_eq!(served, order);
        src.reset();
        assert_eq!(src.next_batch().unwrap(), &order[..10]);

        let mut resumed = BatchSource::new(9, 95, 10);
        assert_eq!(resumed.replay_prefix(37), &order[..37]);
        assert_eq!(resumed.next_batch().unwrap(), &order[37..47]);
        resumed.reset();
        assert_eq!(resumed.replay_prefix(95), order.as_slice());
        assert!(resumed.next_batch().is_none());
    }

    #[test]
    fn released_source_keeps_its_accounting() {
        let mut src = BatchSource::new(4, 50, 10);
        src.next_batch();
        src.release();
        src.release();
        assert_eq!((src.delivered(), src.total_rows()), (10, 50));
        assert_eq!(src.fraction_delivered(), 0.2);
        assert!(!src.is_exhausted());
        assert!(src.next_batch().is_none() && src.next_batches(3).is_none());

        let mut restored = BatchSource::new(4, 50, 10);
        restored.release_at(50);
        assert!(restored.is_exhausted());
        assert_eq!(restored.fraction_delivered(), 1.0);
    }

    #[test]
    fn empty_table_is_exhausted_immediately() {
        let mut src = BatchSource::new(1, 0, 10);
        assert!(src.is_exhausted());
        assert_eq!(src.fraction_delivered(), 1.0);
        assert!(src.next_batch().is_none());
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_panics() {
        let _ = BatchSource::new(1, 10, 0);
    }
}
