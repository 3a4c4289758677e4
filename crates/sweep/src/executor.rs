//! A self-scheduling parallel map over a fixed work list.
//!
//! Worker threads pull the next unclaimed item from a shared atomic cursor
//! (work-stealing in the degenerate-but-effective "steal from one shared
//! deque" form): a thread that draws short cells simply comes back for more,
//! so load balances dynamically without any up-front partitioning.  Results
//! are written back **by item index**, which makes the output order — and
//! therefore anything serialized from it — independent of thread count and
//! scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on up to `threads` worker threads, preserving item
/// order in the returned vector.
///
/// `threads == 1` (or a single item) runs inline on the calling thread with
/// no synchronization at all, so the sequential path stays as cheap as a
/// plain loop.
///
/// # Panics
///
/// Panics if `threads == 0` or if a worker thread panics.
pub(crate) fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(threads > 0, "executor needs at least one thread");
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    let collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else {
                            break;
                        };
                        local.push((index, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("sweep worker thread panicked"))
            .collect()
    });

    for (index, result) in collected.into_iter().flatten() {
        debug_assert!(slots[index].is_none(), "cell {index} computed twice");
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| slot.unwrap_or_else(|| panic!("cell {index} never computed")))
        .collect()
}

/// The number of worker threads to use when the caller does not specify one:
/// the machine's available parallelism.
#[must_use]
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(&items, threads, |&x| x * x);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..500).collect();
        let results = parallel_map(&items, 8, |&i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(results.len(), 500);
    }

    #[test]
    fn single_item_runs_inline() {
        let results = parallel_map(&[41], 8, |&x| x + 1);
        assert_eq!(results, vec![42]);
    }

    #[test]
    fn empty_input_is_fine() {
        let results: Vec<u32> = parallel_map(&[] as &[u32], 4, |&x| x);
        assert!(results.is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_is_rejected() {
        let _ = parallel_map(&[1], 0, |&x: &i32| x);
    }
}
