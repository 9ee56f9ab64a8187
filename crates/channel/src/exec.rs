//! Executor abstraction and the ordered parallel map.
//!
//! The hierarchical far-field engine splits a round's listeners into
//! fixed-size chunks, and a Monte-Carlo batch splits into seeded trials;
//! both hand their tasks to a [`ChunkExecutor`] through [`map_ordered`].
//! The trait lives here, in the channel crate, so the engine can be
//! parallelized by a pool owned higher up the stack (`fading-sim`'s
//! `StealPool`) without a dependency cycle; [`SerialExecutor`] is the
//! inline single-threaded implementation used by default and in tests.
//!
//! # Determinism contract
//!
//! An executor must run `task(i)` exactly once for every `i in
//! 0..num_tasks` and return only after all of them completed. It may run
//! them in any order, on any threads. [`map_ordered`] gives every task its
//! own output slot and returns the outputs in task-index order, so as long
//! as a task's output depends only on its index, scheduling can never leak
//! into results.

use std::sync::{Mutex, PoisonError};

/// Runs a batch of independent tasks, possibly in parallel.
///
/// See the [module docs](self) for the determinism contract.
pub trait ChunkExecutor: Sync {
    /// Runs `task(i)` for every `i in 0..num_tasks`, returning after all
    /// completed. `task` must be safe to call concurrently from multiple
    /// threads (it is `Sync`).
    fn run(&self, num_tasks: usize, task: &(dyn Fn(usize) + Sync));
}

/// The inline executor: runs every task on the calling thread, in index
/// order. The degenerate (and always-correct) scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl ChunkExecutor for SerialExecutor {
    fn run(&self, num_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..num_tasks {
            task(i);
        }
    }
}

/// Runs `task(i)` for every `i in 0..n` on `executor` and returns the
/// outputs **in index order**, whatever order (and on whatever threads)
/// the executor ran them.
///
/// This is the one place that owns "one slot per task, merged in index
/// order". A panicking task propagates through the executor.
pub fn map_ordered<T, F>(executor: &dyn ChunkExecutor, n: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    executor.run(n, &|i| {
        let out = task(i);
        // A task that panicked on another thread may have poisoned the
        // lock; the panic still propagates, so just keep the guard.
        slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(out);
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(i, out)| out.unwrap_or_else(|| unreachable!("executor skipped task {i}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn serial_executor_runs_every_task_once() {
        let hits = AtomicU64::new(0);
        SerialExecutor.run(17, &|i| {
            hits.fetch_add(1 << i, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), (1 << 17) - 1);
        // Zero tasks is a no-op.
        SerialExecutor.run(0, &|_| panic!("no task to run"));
    }

    /// Runs tasks back to front, the opposite of index order.
    struct Reversed;

    impl ChunkExecutor for Reversed {
        fn run(&self, num_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
            for i in (0..num_tasks).rev() {
                task(i);
            }
        }
    }

    #[test]
    fn map_ordered_returns_outputs_in_index_order() {
        let squares: Vec<usize> = (0..9).map(|i| i * i).collect();
        assert_eq!(map_ordered(&SerialExecutor, 9, |i| i * i), squares);
        assert_eq!(map_ordered(&Reversed, 9, |i| i * i), squares);
        assert!(map_ordered(&Reversed, 0, |i| i).is_empty());
    }

    #[test]
    fn chunk_executor_is_object_safe() {
        fn _takes_dyn(_e: &dyn ChunkExecutor) {}
    }
}
