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
//! query's memory. A consumer that has reached a terminal state calls
//! [`BatchSource::release`] to hand it back; the source keeps answering
//! how much was delivered of how much, which is all anyone asks of a
//! finished stream.

use rotary_sim::rng::Rng;

/// A shuffled, batched view over `0..rows` of a fact table.
#[derive(Debug, Clone)]
pub struct BatchSource {
    /// Empty once released.
    permutation: Vec<u32>,
    /// Rows in the underlying table; outlives the permutation.
    total: usize,
    batch_size: usize,
    cursor: usize,
}

impl BatchSource {
    /// Creates a source over `rows` rows with the given batch size.
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or `rows` exceeds `u32::MAX` (tables at
    /// the paper's SF=1 are well under that).
    pub fn new(seed: u64, rows: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(rows <= u32::MAX as usize, "row count exceeds u32 index space");
        let mut permutation: Vec<u32> = (0..rows as u32).collect();
        Rng::seed_from_u64(seed).fork("batch-order").shuffle(&mut permutation);
        BatchSource { permutation, total: rows, batch_size, cursor: 0 }
    }

    /// The next batch of row indices, or `None` when the table is exhausted
    /// (or the source released).
    pub fn next_batch(&mut self) -> Option<&[u32]> {
        if self.cursor >= self.permutation.len() {
            return None;
        }
        let start = self.cursor;
        let end = (start + self.batch_size).min(self.permutation.len());
        self.cursor = end;
        Some(&self.permutation[start..end])
    }

    /// Takes up to `n` batches at once, returning the concatenated rows.
    /// Used by adaptive running epochs, where an epoch spans several batches.
    pub fn next_batches(&mut self, n: usize) -> Option<&[u32]> {
        if self.cursor >= self.permutation.len() {
            return None;
        }
        let start = self.cursor;
        let end = (start + self.batch_size.saturating_mul(n)).min(self.permutation.len());
        self.cursor = end;
        Some(&self.permutation[start..end])
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
    /// resumed job's delivered prefix through a fresh executor.
    ///
    /// # Panics
    /// Panics if `rows` exceeds the table size; snapshots record a delivered
    /// count that came from this very source, so a larger value is corrupt
    /// input the caller must reject first.
    pub fn replay_prefix(&mut self, rows: usize) -> &[u32] {
        assert!(rows <= self.permutation.len(), "replay prefix exceeds table size");
        self.cursor = rows;
        &self.permutation[..rows]
    }

    /// Frees the permutation. The source serves no further batches; the
    /// delivered/total accounting keeps answering. Idempotent.
    pub fn release(&mut self) {
        self.permutation = Vec::new();
    }

    /// Releases the source with `rows` recorded as delivered — restoring a
    /// stream nobody will read from again.
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
