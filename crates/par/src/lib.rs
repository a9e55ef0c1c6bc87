//! # Deterministic ordered map over scoped host threads
//!
//! An arbitration pass launches one epoch of (almost always) one job, so
//! host threads have nothing to fan out while a workload runs. They are a
//! **start-up resource**: the full-table ground-truth scans and the history
//! prepopulation a system does once, before its first event. This crate
//! serves exactly that — [`ThreadPool::map`] and [`ThreadPool::map_mut`] over
//! `std::thread::scope`, so no OS thread outlives a call and the run phase
//! at any `threads` is the run phase at 1.
//!
//! * **Fixed decomposition** — callers split work into items whose
//!   boundaries do not depend on the lane count; the pool only decides
//!   *who* evaluates an item, never *what* an item is.
//! * **Ordered results** — results come back in item order regardless of
//!   completion order, so callers fold them in a fixed order.
//! * **Inline when narrow** — the submitting thread claims items alongside
//!   the lanes it spawns; one lane, or one item, spawns nothing.
//! * **Panic propagation** — a task's panic is re-raised on the submitting
//!   thread once every lane has stopped; the pool holds no state to poison.

#![warn(missing_docs)]

use std::panic::resume_unwind;
// rotary-lint: allow(R003) for the work cursor in `run`, the crate's one lock
use std::sync::{Mutex, PoisonError};

/// Upper bound on the pool size (a valve against `ROTARY_THREADS=999999`).
pub const MAX_THREADS: usize = 256;

/// `ROTARY_THREADS` parsed as a positive integer, clamped to [`MAX_THREADS`];
/// anything unset or unparsable means 1, which spawns nothing.
pub fn configured_threads() -> usize {
    std::env::var("ROTARY_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(|n| n.min(MAX_THREADS))
        .unwrap_or(1)
}

/// A lane count for [`ThreadPool::map`] / [`ThreadPool::map_mut`]. Holds no
/// threads: each call spawns its lanes inside a `std::thread::scope` and
/// joins them before returning.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// `threads` total lanes, counting the caller (clamped to `1..=MAX_THREADS`).
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool { threads: threads.clamp(1, MAX_THREADS) }
    }

    /// Total execution lanes, including the submitting thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(i, &items[i])` for every item and returns the results
    /// **in item order**, independent of which thread computed what — the
    /// property that lets callers fold chunk results deterministically.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items.iter().enumerate(), f)
    }

    /// [`ThreadPool::map`] with exclusive `&mut` access to each item — start-up,
    /// where independent queries' executors advance concurrently.
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        self.run(items.iter_mut().enumerate(), f)
    }

    /// Runs `f` over an indexed work list. The shared iterator is the
    /// cursor: lanes claim one item at a time under its mutex (which is what
    /// lets `map_mut` hand out disjoint `&mut` in safe code), keep
    /// `(index, result)` pairs locally, and the pairs are sorted back into
    /// index order after the lanes join.
    fn run<I, R, F>(&self, work: impl ExactSizeIterator<Item = (usize, I)> + Send, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, I) -> R + Sync,
    {
        let total = work.len();
        let lanes = self.threads.min(total);
        if lanes <= 1 {
            return work.map(|(i, item)| f(i, item)).collect();
        }
        // rotary-lint: allow(R003) each guard is a temporary held for one `next()`; never nested
        let work = Mutex::new(work);
        let lane = || {
            let mut done: Vec<(usize, R)> = Vec::new();
            loop {
                // No caller code runs under the lock: poison cannot mean a torn iterator.
                let next = work.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((i, item)) = next else { break done };
                done.push((i, f(i, item)));
            }
        };
        let mut done = std::thread::scope(|s| {
            let spawned: Vec<_> = (1..lanes).map(|_| s.spawn(lane)).collect();
            let mut done = lane();
            for handle in spawned {
                // A lane's panic re-raised here unwinds through the scope's join.
                done.extend(handle.join().unwrap_or_else(|payload| resume_unwind(payload)));
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn map_preserves_item_order_at_every_pool_size() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 8] {
            let got = ThreadPool::new(threads).map(&items, |_, &x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_and_one_item_on_many_lanes() {
        let pool = ThreadPool::new(8);
        let mut items: Vec<u32> = Vec::new();
        assert!(pool.map(&items, |_, &x| x).is_empty());
        assert!(pool.map_mut(&mut items, |_, x| *x).is_empty());
        assert_eq!(pool.map(&[41u64], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn panic_in_a_lane_propagates_and_the_next_call_works() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |_, &i| {
                if i == 13 {
                    panic!("boom at {i}");
                }
                i
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
        assert_eq!(pool.map(&items, |_, &i| i * 2)[13], 26);
    }

    #[test]
    fn map_mut_gives_exclusive_access() {
        let mut items: Vec<Vec<u64>> = (0..32).map(|i| vec![i]).collect();
        let sums = ThreadPool::new(4).map_mut(&mut items, |_, v| {
            v.push(v[0] * 10);
            v.iter().sum::<u64>()
        });
        assert_eq!(items[3], vec![3, 30]);
        assert_eq!(sums[3], 33);
    }

    #[test]
    fn nested_maps_complete() {
        // Each call spawns and joins its own lanes, so nesting cannot deadlock.
        let pool = ThreadPool::new(2);
        let outer: Vec<u64> = (0..8).collect();
        let got = pool.map(&outer, |_, &x| {
            let inner: Vec<u64> = (0..50).collect();
            pool.map(&inner, |_, &y| y).into_iter().sum::<u64>() + x
        });
        assert_eq!(got[0], (0..50).sum::<u64>());
    }

    #[test]
    fn configured_threads_stays_in_bounds() {
        // The suite cannot mutate the process environment safely.
        assert!((1..=MAX_THREADS).contains(&configured_threads()));
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        let ids = pool.map(&[0u8; 16], |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == tid), "single-lane work must stay on the caller");
    }
}
