//! Fork-join data parallelism for parameter sweeps.
//!
//! The benchmark harness sweeps accelerator configurations and Monte-Carlo
//! seeds; each sweep point is independent, so the classic data-parallel
//! map applies. `rayon` is not in the sanctioned offline dependency set,
//! so this is the same fork-join idiom built from `std::thread::scope`
//! plus a `crossbeam` work queue: order-preserving, panic-propagating,
//! work-stealing-by-index.

use crossbeam::queue::SegQueue;
use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Number of worker threads to use (logical CPUs, at least 1).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Applies `f` to every item on a pool of `workers` threads, preserving
/// input order in the output.
///
/// Panics in `f` propagate to the caller (the scope joins all workers).
pub fn parallel_map_with<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if workers == 1 || n == 1 {
        // Inline fast path: no thread spawn, no queue. Matters when a
        // caller has a single item (one chunk, one sweep point) or runs
        // nested inside an outer map that already owns the threads.
        return items.into_iter().map(f).collect();
    }
    // Index queue: workers steal the next unprocessed index.
    let queue = SegQueue::new();
    for i in 0..n {
        queue.push(i);
    }
    // Items move into slots the workers take from; results come back by
    // index.
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| {
                while let Some(i) = queue.pop() {
                    let item = items[i]
                        .lock()
                        .expect("invariant: poisoned only if a sibling worker panicked, which scope re-raises")
                        .take()
                        .expect("invariant: the index queue yields each slot exactly once");
                    let r = f(item);
                    *results[i].lock().expect("invariant: poisoned only if a sibling worker panicked, which scope re-raises") = Some(r);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("invariant: all workers joined un-poisoned at scope exit")
                .expect("invariant: every queued index was processed before scope exit")
        })
        .collect()
}

/// Partitions `0..n` into contiguous ranges of at most `block` items —
/// the fixed (worker-count-independent) work decomposition parallel
/// loops hand to [`parallel_map_with`]. A partition that does not depend
/// on the worker count is what keeps block-parallel results bit-identical
/// for any number of workers.
///
/// # Panics
/// Panics if `block` is zero.
pub fn block_ranges(n: usize, block: usize) -> Vec<std::ops::Range<usize>> {
    assert!(block > 0, "block size must be positive");
    (0..n.div_ceil(block))
        .map(|b| b * block..((b + 1) * block).min(n))
        .collect()
}

/// [`parallel_map_with`] on the default worker count.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, default_workers(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<_>>(), |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map_with((0..1000).collect::<Vec<_>>(), 8, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn single_worker_works() {
        let out = parallel_map_with(vec![3, 1, 4, 1, 5], 1, |i| i + 1);
        assert_eq!(out, vec![4, 2, 5, 2, 6]);
    }

    #[test]
    fn moves_non_clone_values() {
        // T need not be Clone or Sync — only Send.
        let items: Vec<Box<i32>> = (0..10).map(Box::new).collect();
        let out = parallel_map(items, |b| *b * 10);
        assert_eq!(out[9], 90);
    }

    #[test]
    fn workers_exceeding_items_is_fine() {
        let out = parallel_map_with(vec![1, 2], 64, |i| i);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn panic_in_f_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with((0..64).collect::<Vec<_>>(), 4, |i| {
                if i == 33 {
                    panic!("worker died on {i}");
                }
                i
            })
        });
        let panic = result.expect_err("worker panic must reach the caller");
        // std::thread::scope observes the worker's panic on join and
        // re-panics in the caller; its payload is scope's own message
        // ("a scoped thread panicked"), not the worker's.
        let msg = panic
            .downcast_ref::<&str>()
            .map(std::string::ToString::to_string)
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("scoped thread panicked") || msg.contains("worker died on 33"),
            "payload: {msg:?}"
        );
    }

    #[test]
    fn block_ranges_cover_exactly_once() {
        for (n, block) in [(0usize, 3usize), (1, 1), (7, 3), (9, 3), (10, 4), (5, 100)] {
            let ranges = block_ranges(n, block);
            let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} block={block}");
            assert!(ranges.iter().all(|r| r.len() <= block));
        }
    }

    #[test]
    fn single_worker_fast_path_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with(vec![1, 2, 3], 1, |i| {
                if i == 2 {
                    panic!("inline worker died");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn order_preserved_under_adversarial_timing() {
        // Items take wildly different times, so workers finish out of
        // input order and the index queue interleaves heavily; the output
        // must still come back in input order.
        let out = parallel_map_with((0..200u64).collect::<Vec<_>>(), 8, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(300));
            } else if i % 3 == 0 {
                std::thread::yield_now();
            }
            i * 3
        });
        assert_eq!(out, (0..200).map(|i| i * 3).collect::<Vec<_>>());
    }
}
