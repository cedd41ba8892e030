//! The workspace's one worker pool: long-lived threads draining one FIFO job
//! queue (`Mutex<VecDeque>` + [`Condvar`]; crates.io — and therefore
//! crossbeam — is unreachable here).
//!
//! * [`Pool::submit`] enqueues a closure (one queue lock, one wake-up) and
//!   returns a [`Ticket`], filled exactly once by whichever thread runs the
//!   job; [`Pool::submit_batch`] enqueues *n* jobs under one lock acquisition
//!   with *n* wake-ups. Workers pop from the front: FIFO across submitters.
//! * A thread waiting on tickets may *help* instead of idling
//!   ([`Pool::try_run_one`]), which makes batch-and-wait deadlock-free even
//!   when every worker is busy.
//! * **Shutdown** ([`Pool::shutdown`], also on drop) closes intake, lets the
//!   workers drain the queue, then joins them: every ticket issued before it
//!   resolves, a job submitted after it is handed back.
//! * **Panic policy**: a job's unwind is caught at the job boundary
//!   ([`run_caught`]), so it can neither kill its worker nor leave a ticket
//!   unfilled; [`Ticket::wait`] re-raises the payload on the waiting thread,
//!   [`Ticket::join`] returns it.
//! * **Observability** is read, not pushed: [`Pool::queued`] is the queue
//!   depth, taken from the queue itself. Nothing is timed or counted on
//!   enqueue or dequeue; a caller that wants queue wait measures it around
//!   its own jobs.
//!
//! The queue mutex is a leaf lock, never held while a job runs; a ticket's
//! slot mutex only ever guards the move of one result.

use std::collections::VecDeque;
use std::panic::{resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Runs `job`, capturing its panic instead of unwinding — the one panic
/// boundary of the workspace's pooled work.
pub fn run_caught<T>(job: impl FnOnce() -> T) -> std::thread::Result<T> {
    std::panic::catch_unwind(AssertUnwindSafe(job))
}

/// A queued job, already wrapped to fill its ticket.
type Job = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

impl Queue {
    /// Queues `job` wrapped so that running it fills the returned ticket.
    /// The caller holds the queue lock and has checked `shutdown`.
    fn push<T: Send + 'static>(&mut self, job: impl FnOnce() -> T + Send + 'static) -> Ticket<T> {
        let ticket = Ticket::holding(None);
        let slot = Arc::clone(&ticket.slot);
        self.jobs.push_back(Box::new(move || {
            *slot.value.lock().expect("slot lock") = Some(run_caught(job));
            slot.filled.notify_all();
        }));
        ticket
    }
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signaled once per enqueued job and on shutdown.
    ready: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("queue lock")
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.lock();
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.shutdown {
                        return; // queue drained and intake closed
                    }
                    q = self.ready.wait(q).expect("queue lock");
                }
            };
            job(); // outside the queue lock
        }
    }
}

/// The write-once rendezvous between a job's runner and its ticket holder.
struct Slot<T> {
    value: Mutex<Option<std::thread::Result<T>>>,
    filled: Condvar,
}

/// A handle to one submitted job's eventual result. It owns its result
/// slot, so it stays redeemable after the pool that issued it shut down.
#[must_use = "a ticket holds the job's only result; wait on it"]
pub struct Ticket<T> {
    slot: Arc<Slot<T>>,
}

impl<T> Ticket<T> {
    fn holding(value: Option<std::thread::Result<T>>) -> Self {
        let (value, filled) = (Mutex::new(value), Condvar::new());
        let slot = Arc::new(Slot { value, filled });
        Ticket { slot }
    }

    /// A ticket that is already resolved (for work that ran inline).
    pub fn ready(value: T) -> Self {
        Self::holding(Some(Ok(value)))
    }

    /// Blocks until the job has run; `Err` carries the payload it panicked
    /// with (`JoinHandle::join` shape — for callers that must not unwind).
    pub fn join(self) -> std::thread::Result<T> {
        let guard = self.slot.value.lock().expect("slot lock");
        let mut guard = self
            .slot
            .filled
            .wait_while(guard, |value| value.is_none())
            .expect("slot lock");
        guard.take().expect("filled slot")
    }

    /// Blocks until the job has run; re-raises its panic if it panicked.
    pub fn wait(self) -> T {
        self.join().unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// [`Ticket::wait`] for at most `timeout` (spurious wakeups do not
    /// shorten it); `Err(self)` when the job has not finished in time.
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, Ticket<T>> {
        let guard = self.slot.value.lock().expect("slot lock");
        let (mut guard, _) = self
            .slot
            .filled
            .wait_timeout_while(guard, timeout, |value| value.is_none())
            .expect("slot lock");
        let result = guard.take();
        drop(guard);
        match result {
            Some(result) => Ok(result.unwrap_or_else(|payload| resume_unwind(payload))),
            None => Err(self),
        }
    }

    /// Whether [`Ticket::wait`] would return without blocking.
    pub fn is_ready(&self) -> bool {
        self.slot.value.lock().expect("slot lock").is_some()
    }
}

/// A fixed-width pool of long-lived worker threads over one FIFO queue.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `threads` (at least one) workers named `{name}-{i}`.
    pub fn new(name: &str, threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::default(),
            ready: Condvar::new(),
        });
        let handles = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Worker threads still running (the `/healthz?full` liveness signal).
    pub fn live_threads(&self) -> usize {
        self.handles.iter().filter(|h| !h.is_finished()).count()
    }

    /// Jobs submitted but not yet picked up (the queue depth).
    pub fn queued(&self) -> usize {
        self.shared.lock().jobs.len()
    }

    /// Enqueues `job`. After [`Pool::shutdown`] it is handed back inside
    /// `Err` — a never-resolving ticket would deadlock its holder.
    pub fn submit<T, F>(&self, job: F) -> Result<Ticket<T>, F>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let mut q = self.shared.lock();
        if q.shutdown {
            return Err(job);
        }
        let ticket = q.push(job);
        drop(q);
        self.shared.ready.notify_one();
        Ok(ticket)
    }

    /// Enqueues `jobs` back to back under one queue lock acquisition (they
    /// are iterated while it is held: hand over a built collection); tickets
    /// come back in order. After [`Pool::shutdown`] `jobs` is handed back.
    pub fn submit_batch<T, F, I>(&self, jobs: I) -> Result<Vec<Ticket<T>>, I>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        I: IntoIterator<Item = F>,
    {
        let mut q = self.shared.lock();
        if q.shutdown {
            return Err(jobs);
        }
        let tickets: Vec<_> = jobs.into_iter().map(|job| q.push(job)).collect();
        drop(q);
        // One wakeup per queued job (notify_all would stampede pools wider
        // than the batch).
        tickets.iter().for_each(|_| self.shared.ready.notify_one());
        Ok(tickets)
    }

    /// Runs the front job, if any, on the calling thread — how a waiting
    /// thread helps instead of idling. Never blocks; `false`: queue empty.
    pub fn try_run_one(&self) -> bool {
        let job = self.shared.lock().jobs.pop_front();
        job.map(|job| job()).is_some()
    }

    /// Closes intake, wakes every worker, and joins them after they drain
    /// the queue: every ticket issued before resolves. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn pool(threads: usize) -> Pool {
        Pool::new("test", threads)
    }

    fn go<T: Send + 'static>(pool: &Pool, job: impl FnOnce() -> T + Send + 'static) -> Ticket<T> {
        pool.submit(job).ok().expect("accepting")
    }

    /// `n` zeroed per-job run counters.
    fn counters(n: usize) -> Arc<Vec<AtomicUsize>> {
        Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect())
    }

    /// A job that bumps its own counter and returns its id.
    fn counted(ran: &Arc<Vec<AtomicUsize>>, id: usize) -> impl FnOnce() -> usize + Send + 'static {
        let ran = Arc::clone(ran);
        move || {
            ran[id].fetch_add(1, Ordering::Relaxed);
            id
        }
    }

    fn assert_each_ran_once(ran: &[AtomicUsize]) {
        let counts: Vec<_> = ran.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![1; ran.len()], "every job runs exactly once");
    }

    /// Occupies one worker until the returned sender is dropped.
    fn park_one_worker(pool: &Pool) -> (mpsc::Sender<()>, Ticket<()>) {
        let (release, gate) = mpsc::channel::<()>();
        let (started, picked_up) = mpsc::channel::<()>();
        let parked = go(pool, move || {
            started.send(()).expect("test alive");
            let _ = gate.recv();
        });
        picked_up.recv().expect("worker picked the parked job up");
        (release, parked)
    }

    #[test]
    fn submit_then_wait_returns_the_result() {
        assert_eq!(go(&pool(2), || 6 * 7).wait(), 42);
    }

    #[test]
    fn many_jobs_all_resolve_on_few_workers() {
        let pool = pool(3);
        let tickets: Vec<_> = (0..64).map(|i| go(&pool, move || i * i)).collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), i * i);
        }
    }

    #[test]
    fn zero_workers_still_runs_on_one_thread() {
        let pool = pool(0);
        assert_eq!((pool.threads(), pool.live_threads()), (1, 1));
        assert_eq!(go(&pool, || 1).wait(), 1);
    }

    /// `submitters` request-style threads (`submit` + `wait`, 25 jobs each)
    /// race `runners` batch-style threads (25 × `submit_batch` of 5 + help)
    /// on one pool of `width` threads.
    fn mixed_load(width: usize, submitters: usize, runners: usize) {
        let pool = pool(width);
        let ran = counters((submitters + runners * 5) * 25);
        std::thread::scope(|sc| {
            for s in 0..submitters {
                let (pool, ran) = (&pool, &ran);
                sc.spawn(move || {
                    for id in s * 25..(s + 1) * 25 {
                        assert_eq!(go(pool, counted(ran, id)).wait(), id);
                    }
                });
            }
            for r in 0..runners {
                let (pool, ran) = (&pool, &ran);
                sc.spawn(move || {
                    for round in (submitters + r * 5) * 5..(submitters + (r + 1) * 5) * 5 {
                        let ids = round * 5..(round + 1) * 5;
                        let jobs: Vec<_> = ids.clone().map(|id| counted(ran, id)).collect();
                        let tickets = pool.submit_batch(jobs).ok().expect("accepting");
                        while !tickets.iter().all(Ticket::is_ready) && pool.try_run_one() {}
                        let out: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
                        assert_eq!(out, ids.collect::<Vec<_>>(), "task order");
                    }
                });
            }
        });
        assert_each_ran_once(&ran);
        assert_eq!((pool.queued(), pool.live_threads()), (0, width));
    }

    #[test]
    fn concurrent_submitters_race_one_pool() {
        mixed_load(4, 8, 0);
    }

    #[test]
    fn mixed_load_on_one_thread() {
        mixed_load(1, 3, 3);
    }

    #[test]
    fn mixed_load_on_many_threads() {
        mixed_load(4, 3, 3);
    }

    /// The only worker busy, a full queue, threads already blocked on
    /// tickets: a helper is never refused and runs FIFO, shutdown drains the
    /// rest, and the tickets outlive the pool.
    #[test]
    fn shutdown_drains_pending_tickets() {
        let mut pool = pool(1);
        let ran = counters(12);
        let (release, parked) = park_one_worker(&pool);
        let jobs: Vec<_> = (0..8).map(|id| counted(&ran, id)).collect();
        let batch = pool.submit_batch(jobs).ok().expect("accepting");
        let mut singles: Vec<_> = (8..12).map(|id| go(&pool, counted(&ran, id))).collect();
        let late = singles.split_off(2);
        let waiters = singles.into_iter().map(|t| std::thread::spawn(|| t.wait()));
        let waiters: Vec<_> = waiters.collect();
        for _ in 0..3 {
            assert!(pool.try_run_one(), "never idle on a non-empty queue");
        }
        assert!(batch[2].is_ready() && !batch[3].is_ready(), "FIFO");
        drop(release);
        pool.shutdown();
        parked.wait();
        assert_each_ran_once(&ran);
        assert_eq!(pool.queued(), 0);
        drop(pool);
        let out: Vec<_> = batch.into_iter().chain(late).map(Ticket::wait).collect();
        assert_eq!(out, [0, 1, 2, 3, 4, 5, 6, 7, 10, 11]);
        for (waiter, id) in waiters.into_iter().zip(8..) {
            assert_eq!(waiter.join().expect("waiter"), id);
        }
    }

    #[test]
    fn submit_after_shutdown_returns_the_job() {
        let mut pool = pool(1);
        pool.shutdown();
        let job = pool.submit(|| 9).err().expect("intake is closed");
        assert_eq!(job(), 9, "caller can run it inline");
        let batch = pool.submit_batch(vec![|| 1, || 2]).err();
        assert_eq!(batch.expect("intake is closed").len(), 2);
        assert!(!pool.try_run_one(), "nothing was queued");
    }

    #[test]
    fn wait_timeout_returns_ticket_then_result() {
        let pool = pool(1);
        let (release, parked) = park_one_worker(&pool);
        let t = go(&pool, || 7).wait_timeout(Duration::from_millis(1));
        let t = t.expect_err("the only worker is parked");
        assert!(!t.is_ready());
        drop(release);
        parked.wait();
        assert_eq!(t.wait_timeout(Duration::from_secs(60)).ok(), Some(7));
    }

    #[test]
    fn panicking_job_propagates_to_waiter_and_pool_survives() {
        let pool = pool(1);
        let boom = || -> usize { panic!("job blew up") };
        let (waited, joined) = (go(&pool, boom), go(&pool, boom));
        // Queued behind the panicking jobs on the same single worker: if a
        // panic killed the worker, this would never resolve.
        let after = go(&pool, || 5);
        let payload = run_caught(|| waited.wait()).expect_err("panic re-raised at the waiter");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job blew up"));
        let payload = joined.join().expect_err("join returns the payload instead");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job blew up"));
        assert_eq!(after.wait(), 5, "worker survived the panics");
        assert_eq!(pool.live_threads(), 1);
    }

    #[test]
    fn drop_joins_workers() {
        let ran = counters(10);
        let tickets: Vec<_> = {
            let pool = pool(2);
            (0..10).map(|i| go(&pool, counted(&ran, i))).collect()
            // pool drops here: drains, joins
        };
        assert_each_ran_once(&ran);
        assert!(
            tickets.iter().all(Ticket::is_ready),
            "tickets outlive the pool"
        );
    }
}
