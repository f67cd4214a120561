//! The deterministic worker-pool driver.
//!
//! Both engines evaluate a step (IQL) or a round (Datalog) by building a
//! *fixed list of tasks* — one per rule, or one per `(rule, outer-scan
//! chunk)` — and then need the results back **in task order**, so that the
//! merge phase is bit-identical no matter how many threads ran the tasks
//! or how they interleaved. This module is that driver, extracted from the
//! two formerly hand-rolled copies in `iql-core::eval` and
//! `iql-datalog::engine`:
//!
//! * tasks are claimed off a shared atomic cursor (work stealing without
//!   queues — the task list is fixed up front);
//! * each result lands in a slot indexed by its task, so collection order
//!   is task order, not completion order;
//! * with one thread (or one task) the pool is skipped entirely and the
//!   tasks run inline — the sequential path *is* the parallel path with
//!   the interleaving removed, which is what makes determinism testable.
//!
//! Panic containment is the caller's business: wrap the task body in
//! `catch_unwind` and make the output type carry the failure (both engines
//! do), so one poisoned rule doesn't tear down its siblings.
//! [`TEST_PANIC_RULE`] is the one fault-injection hook both engines honour
//! to exercise that path.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Test-only fault injection: set it to a rule index on the thread that
    /// starts an evaluation (of either engine) to make that rule's tasks
    /// panic, exercising the `catch_unwind` containment path. Each engine
    /// reads it once per evaluation, on the calling thread, and carries it
    /// into its tasks, so evaluations on other threads never see it.
    /// `usize::MAX` (the default) injects nothing.
    #[doc(hidden)]
    pub static TEST_PANIC_RULE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Resolves a requested thread count: `0` means one worker per available
/// core, anything else is taken literally.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Splits an outer scan of `len` items into at most `workers` contiguous
/// `(skip, take)` ranges of at least `min_chunk` items each (except that a
/// scan shorter than `2 * min_chunk` stays whole — splitting it buys no
/// parallelism worth the per-task overhead). Ranges cover `0..len` exactly
/// and in order, so per-chunk results concatenate back into scan order.
pub fn chunk_ranges(len: usize, workers: usize, min_chunk: usize) -> Vec<(usize, usize)> {
    if workers <= 1 || min_chunk == 0 || len < 2 * min_chunk {
        return vec![(0, len)];
    }
    let chunks = workers.min(len / min_chunk).max(1);
    let per = len.div_ceil(chunks);
    let mut out = Vec::new();
    let mut skip = 0;
    while skip < len {
        let take = per.min(len - skip);
        out.push((skip, take));
        skip += take;
    }
    out
}

/// Runs every task and returns the outputs **in task order**.
///
/// With `threads <= 1` or fewer than two tasks the tasks run inline on the
/// caller's thread. Otherwise `min(threads, tasks.len())` scoped workers
/// claim tasks off an atomic cursor and deposit each output in its task's
/// slot; the function returns once all workers have exited, i.e. all
/// slots are filled.
pub fn run_tasks<T, O, F>(tasks: &[T], threads: usize, run: F) -> Vec<O>
where
    T: Sync,
    O: Send + Sync,
    F: Fn(&T) -> O + Sync,
{
    if threads <= 1 || tasks.len() <= 1 {
        return tasks.iter().map(run).collect();
    }
    let slots: Vec<OnceLock<O>> = tasks.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(tasks.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= tasks.len() {
                    break;
                }
                let out = run(&tasks[i]);
                let _ = slots[i].set(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_come_back_in_task_order() {
        let tasks: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let out = run_tasks(&tasks, threads, |&i| i * 3);
            assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_task_lists() {
        let none: Vec<usize> = vec![];
        assert!(run_tasks(&none, 4, |&i| i).is_empty());
        assert_eq!(run_tasks(&[7usize], 4, |&i| i + 1), vec![8]);
    }

    #[test]
    fn chunk_ranges_cover_exactly_in_order() {
        for (len, workers, min) in [
            (0, 4, 32),
            (10, 4, 32),
            (64, 4, 32),
            (1000, 3, 32),
            (65, 8, 32),
        ] {
            let ranges = chunk_ranges(len, workers, min);
            let mut pos = 0;
            for (skip, take) in &ranges {
                assert_eq!(*skip, pos, "ranges are contiguous");
                pos += take;
            }
            assert_eq!(pos, len, "ranges cover the scan");
            assert!(ranges.len() <= workers.max(1));
        }
    }

    #[test]
    fn short_scans_stay_whole() {
        assert_eq!(chunk_ranges(63, 8, 32), vec![(0, 63)]);
        assert_eq!(chunk_ranges(64, 8, 32), vec![(0, 32), (32, 32)]);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
