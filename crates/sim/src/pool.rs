//! A shared-counter thread pool for batches of independent tasks.
//!
//! [`StealPool`] implements `fading-channel`'s [`ChunkExecutor`]: it runs a
//! batch of independent tasks — the hierarchical engine's listener chunks,
//! or a Monte-Carlo batch's trials — across OS threads. The
//! vendored-dependency constraint rules out rayon, and the workload doesn't
//! need a persistent pool — a round's resolve is one bulk-synchronous
//! batch — so each [`StealPool::run`] opens a `std::thread::scope`, which
//! also keeps the crate `#![forbid(unsafe_code)]`-clean (scoped threads
//! borrow the task closure safely).
//!
//! # Scheduling
//!
//! Every worker claims the next unclaimed task index from one shared
//! `AtomicUsize` (`fetch_add`), so each index is handed out exactly once
//! and a worker stuck on a slow task never holds back the rest of the
//! batch: the others keep claiming. The calling thread is worker 0, so a
//! one-worker batch spawns nothing.
//!
//! # Determinism
//!
//! Scheduling decides only *which thread* runs a task, never what the task
//! computes or where its output lands — the [`ChunkExecutor`] contract.
//! A unit test below drives this pool with adversarial per-task sleeps to
//! show completion order cannot leak into results; the differential
//! oracle (`tests/differential.rs`) runs whole simulations at 1, 2 and 8
//! resolve threads against the serial exact scan.

use std::sync::atomic::{AtomicUsize, Ordering};

use fading_channel::ChunkExecutor;

/// A scoped executor over a fixed number of worker threads, each claiming
/// the next task from a shared counter.
///
/// `threads = 1` runs every batch on the calling thread (no spawns);
/// results are byte-identical either way.
#[derive(Debug, Clone, Copy)]
pub struct StealPool {
    threads: usize,
}

impl StealPool {
    /// A pool of `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        StealPool {
            threads: threads.max(1),
        }
    }

    /// Number of worker threads a batch may use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(i)` for every `i in 0..num_tasks`, returning after all
    /// completed (the [`ChunkExecutor`] contract). Worker threads are
    /// scoped to this call; a panicking task propagates the panic.
    pub fn run(&self, num_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        let next = AtomicUsize::new(0);
        let worker = || loop {
            // Relaxed: the counter publishes nothing but the index; task
            // outputs reach the caller through the scope's join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= num_tasks {
                return;
            }
            task(i);
        };
        std::thread::scope(|s| {
            for _ in 1..self.threads.min(num_tasks) {
                s.spawn(worker);
            }
            // The calling thread is worker 0.
            worker();
        });
    }
}

impl ChunkExecutor for StealPool {
    fn run(&self, num_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        StealPool::run(self, num_tasks, task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn hit_counts(threads: usize, num_tasks: usize) -> Vec<u32> {
        let pool = StealPool::new(threads);
        let hits: Vec<AtomicU32> = (0..num_tasks).map(|_| AtomicU32::new(0)).collect();
        pool.run(num_tasks, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        hits.into_iter().map(AtomicU32::into_inner).collect()
    }

    #[test]
    fn every_task_runs_exactly_once() {
        for threads in [1, 2, 3, 8] {
            for num_tasks in [0, 1, 2, 7, 64, 1000] {
                let hits = hit_counts(threads, num_tasks);
                assert!(
                    hits.iter().all(|&h| h == 1),
                    "threads={threads} tasks={num_tasks}: {hits:?}"
                );
            }
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = StealPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(hit_counts(0, 5), vec![1; 5]);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        assert_eq!(hit_counts(8, 3), vec![1; 3]);
    }

    #[test]
    fn one_thread_runs_on_the_caller_in_index_order() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        StealPool::new(1).run(6, &|i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_balances_a_skewed_batch() {
        // One pathologically slow task at index 0; the rest must complete
        // regardless (claimed by the other workers).
        let pool = StealPool::new(4);
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        pool.run(64, &|i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// Per-task sleeps derived from the task id scramble completion order
    /// (early tasks sleep longest, so later ones finish first and get
    /// claimed by other workers), yet each output lands in its own slot
    /// and the gathered results are identical across pool widths:
    /// completion order has no channel into results.
    #[test]
    fn adversarial_sleeps_cannot_leak_completion_order_into_results() {
        const TASKS: usize = 64;
        let value = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for threads in [1, 2, 8] {
            let slots: Vec<std::sync::atomic::AtomicU64> =
                (0..TASKS).map(|_| Default::default()).collect();
            StealPool::new(threads).run(TASKS, &|i| {
                let jitter_ms = 3u64.saturating_sub((i as u64) % 4);
                std::thread::sleep(std::time::Duration::from_millis(jitter_ms));
                slots[i].store(value(i), Ordering::SeqCst);
            });
            let got: Vec<u64> = slots.iter().map(|s| s.load(Ordering::SeqCst)).collect();
            assert_eq!(
                got,
                (0..TASKS).map(value).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }
}
