//! The process-wide, core-count-sized executor for shard search tasks.
//!
//! [`ShardExecutor`] is one instance of the workspace worker pool
//! ([`koios_common::pool::Pool`]) behind a batch-shaped API
//! ([`ShardExecutor::run`]): one closure per shard, block until all finished.
//! Every partitioned query *shares* its threads, so runnable search threads
//! stay bounded by core count however many requests are in flight.
//!
//! The calling thread never idles: it runs the first task inline (a 1-shard
//! engine pays no cross-thread hop) and then *helps*, draining queued tasks
//! from any batch until its own completes. Helping makes the design
//! deadlock-free even when every pool worker is busy: some thread always
//! makes progress, and shard tasks never submit nested batches. A panicking
//! task poisons nothing; its payload is re-raised on the *submitting* thread
//! once the batch is collected.

use koios_common::pool::{run_caught, Pool, Ticket};
use std::sync::OnceLock;
use std::thread;

/// A fixed-width pool of persistent worker threads executing shard search
/// tasks: the shared [`ShardExecutor::global`] instance, or a private
/// [`ShardExecutor::new`] one (joined on drop — tests use this).
pub struct ShardExecutor {
    pool: Pool,
}

impl ShardExecutor {
    /// A pool of `threads` persistent workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let pool = Pool::new("koios-shard", threads);
        ShardExecutor { pool }
    }

    /// The process-wide executor every partitioned engine shares, sized to
    /// the machine's available parallelism and spawned on first use.
    pub fn global() -> &'static ShardExecutor {
        static GLOBAL: OnceLock<ShardExecutor> = OnceLock::new();
        let cores = || thread::available_parallelism().map_or(1, usize::from);
        GLOBAL.get_or_init(|| ShardExecutor::new(cores()))
    }

    /// Pool width.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs every task — the first inline on the calling thread, the rest
    /// on the pool — and returns their results in task order. Blocks until
    /// the whole batch finished; while blocked, the calling thread drains
    /// queued tasks (its own batch's or another's) instead of idling. The
    /// panic of the first (by index) panicking task is re-raised here.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let mut tasks = tasks.into_iter();
        let Some(first) = tasks.next() else {
            return Vec::new();
        };
        // Queue the tail first so pool workers start while the caller is
        // still busy with the inline task.
        let tickets = self
            .pool
            .submit_batch(tasks)
            .unwrap_or_else(|_| unreachable!("the pool only shuts down on drop"));
        let first = run_caught(first);
        // Help until our batch completes or the queue runs dry: running
        // queued tasks (whoever they belong to) beats blocking a core that
        // search work could use.
        while !tickets.iter().all(Ticket::is_ready) && self.pool.try_run_one() {}
        // Collect the whole batch before re-raising anything.
        let results: Vec<thread::Result<T>> = std::iter::once(first)
            .chain(tickets.into_iter().map(Ticket::join))
            .collect();
        results
            .into_iter()
            .map(|result| result.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn results_come_back_in_task_order() {
        let ex = ShardExecutor::new(2);
        let results = ex.run((0..16).map(|i| move || i * i).collect());
        assert_eq!(results, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_free() {
        let ex = ShardExecutor::new(1);
        assert_eq!(ex.run(Vec::<Box<dyn FnOnce() -> u8 + Send>>::new()), []);
    }

    #[test]
    fn single_task_runs_inline_on_the_caller() {
        let ex = ShardExecutor::new(2);
        let caller = thread::current().id();
        let ran_on = ex.run(vec![move || thread::current().id()]);
        assert_eq!(ran_on, vec![caller], "no cross-thread hop for 1 task");
    }

    #[test]
    fn tasks_actually_run_concurrently_on_pool_threads() {
        let ex = ShardExecutor::new(4);
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        // Two tasks that must overlap in time: each waits for the other.
        let tasks: Vec<_> = (0..2)
            .map(|_| {
                let seen = Arc::clone(&seen);
                let barrier = Arc::clone(&barrier);
                move || {
                    barrier.wait();
                    seen.lock().unwrap().insert(thread::current().id());
                }
            })
            .collect();
        ex.run(tasks);
        assert_eq!(seen.lock().unwrap().len(), 2, "two distinct threads");
    }

    #[test]
    fn width_one_pool_still_completes_wide_batches() {
        let ex = ShardExecutor::new(1);
        let count = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..32)
            .map(|_| {
                let count = Arc::clone(&count);
                move || count.fetch_add(1, Ordering::Relaxed)
            })
            .collect();
        ex.run(tasks);
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn concurrent_batches_from_many_submitters_all_complete() {
        let ex = Arc::new(ShardExecutor::new(2));
        thread::scope(|sc| {
            for submitter in 0..8 {
                let ex = Arc::clone(&ex);
                sc.spawn(move || {
                    for round in 0..10 {
                        let base = submitter * 1000 + round;
                        let out = ex.run((0..4).map(|i| move || base + i).collect());
                        assert_eq!(out, (0..4).map(|i| base + i).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn panicking_task_propagates_to_the_submitter() {
        let ex = ShardExecutor::new(2);
        let result = run_caught(|| {
            ex.run(vec![
                Box::new(|| 1u32) as Box<dyn FnOnce() -> u32 + Send>,
                Box::new(|| panic!("shard exploded")),
            ]);
        });
        let payload = result.expect_err("panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"shard exploded"));
        // The pool survives a panicking task.
        assert_eq!(ex.run(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn global_executor_is_shared_and_core_sized() {
        let a = ShardExecutor::global();
        let b = ShardExecutor::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
    }
}
