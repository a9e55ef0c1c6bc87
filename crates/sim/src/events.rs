//! A deterministic discrete-event queue.
//!
//! Events are `(SimTime, sequence, payload)` triples in a min-heap; the
//! sequence number breaks timestamp ties in insertion order, which makes the
//! whole simulation deterministic — a property every experiment in
//! `EXPERIMENTS.md` depends on.

use rotary_core::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// Min-heap event queue over virtual time.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0, now: SimTime::ZERO }
    }

    /// The current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules a payload at an absolute virtual time.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards is always a
    /// simulation bug, never valid input.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "cannot schedule into the past ({at} < {})", self.now);
        self.heap.push(Reverse(Entry { at, seq: self.seq, payload }));
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The sequence number the next [`EventQueue::schedule`] call will use.
    /// Captured by durable snapshots so restored queues keep breaking
    /// timestamp ties exactly as the original run would have.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// All pending events as `(at, seq, payload)` triples in pop order,
    /// without disturbing the queue. Used by durable snapshots.
    pub fn pending(&self) -> Vec<(SimTime, u64, &E)> {
        let mut entries: Vec<(SimTime, u64, &E)> =
            self.heap.iter().map(|Reverse(e)| (e.at, e.seq, &e.payload)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        entries
    }

    /// Rebuilds a queue mid-run from snapshot data: the clock, the next
    /// sequence number, and the pending `(at, seq, payload)` triples. Unlike
    /// [`EventQueue::schedule`] this restores original sequence numbers
    /// verbatim, so tie-breaking replays identically after a resume.
    pub fn restore(now: SimTime, next_seq: u64, entries: Vec<(SimTime, u64, E)>) -> Self {
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for (at, seq, payload) in entries {
            heap.push(Reverse(Entry { at, seq, payload }));
        }
        EventQueue { heap, seq: next_seq, now }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), "c");
        q.schedule(SimTime::from_secs(10), "a");
        q.schedule(SimTime::from_secs(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo_across_absolute_and_relative_times() {
        // Fault events (scheduled relative to the clock) interleave with
        // epoch events (scheduled at absolute times); at the same
        // timestamp, the queue must replay them in exact insertion order
        // regardless of how their time was computed.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "warm-up");
        q.pop(); // now = 1 s
        q.schedule(SimTime::from_secs(4), "epoch-done");
        q.schedule(q.now() + SimTime::from_secs(3), "retry-ready"); // also t = 4 s
        q.schedule(SimTime::from_secs(4), "deadline-check");
        q.schedule(q.now() + SimTime::from_secs(3), "epoch-failed"); // also t = 4 s
        let order: Vec<(SimTime, &str)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_secs(4), "epoch-done"),
                (SimTime::from_secs(4), "retry-ready"),
                (SimTime::from_secs(4), "deadline-check"),
                (SimTime::from_secs(4), "epoch-failed"),
            ]
        );
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
        // Times relative to the clock build on the advanced value.
        q.schedule(q.now() + SimTime::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_backwards_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn restore_replays_identically_to_the_original_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "warm-up");
        q.pop();
        let t = SimTime::from_secs(4);
        q.schedule(t, "epoch-done");
        q.schedule(t, "retry-ready");
        q.schedule(SimTime::from_secs(9), "deadline-check");

        let entries: Vec<(SimTime, u64, &str)> =
            q.pending().into_iter().map(|(at, seq, e)| (at, seq, *e)).collect();
        let mut restored = EventQueue::restore(q.now(), q.next_seq(), entries);
        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.next_seq(), q.next_seq());
        // Schedule one more tied event into both: it must still lose ties
        // against the pre-snapshot entries in both queues.
        q.schedule(t, "late");
        restored.schedule(t, "late");
        fn drain(mut q: EventQueue<&'static str>) -> Vec<(SimTime, &'static str)> {
            std::iter::from_fn(move || q.pop()).collect()
        }
        assert_eq!(drain(restored), drain(q));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
