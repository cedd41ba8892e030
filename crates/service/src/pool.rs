//! The service's view of the workspace worker pool ([`koios_common::pool`]):
//! the [`Ticket`] behind [`crate::ResponseHandle`], and the adapter that
//! points the pool's queue observer at the service's telemetry.

use koios_common::pool::QueueObserver;
pub use koios_common::pool::{Pool, Ticket};
use koios_telemetry::{Gauge, Histogram};
use std::sync::Arc;
use std::time::Duration;

/// Queue observability handles; both are plain relaxed atomics, so the
/// queue's mutex hold times are unchanged.
pub struct PoolInstruments {
    /// Jobs submitted but not yet picked up (`koios_queue_depth`).
    pub depth: Arc<Gauge>,
    /// Submit→dequeue wait per job (`koios_queue_wait_seconds`).
    pub wait: Arc<Histogram>,
}

impl QueueObserver for PoolInstruments {
    fn on_enqueue(&self) {
        self.depth.inc();
    }

    fn on_dequeue(&self, waited: Duration) {
        self.depth.dec();
        self.wait.record_duration(waited);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instrumented_pool_tracks_depth_and_wait() {
        let depth = Arc::new(Gauge::new());
        let wait = Arc::new(Histogram::new());
        let instruments = PoolInstruments {
            depth: Arc::clone(&depth),
            wait: Arc::clone(&wait),
        };
        let pool = Pool::new("test", 1, Some(Arc::new(instruments)));
        // Park the single worker so the next jobs measurably queue.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let parked = pool
            .submit(move || gate.recv().expect("release signal"))
            .ok()
            .expect("accepting");
        // Wait until the worker picked the parked job up (depth back to 0).
        while depth.get() != 0 {
            std::thread::yield_now();
        }
        let queued: Vec<_> = (0..3)
            .map(|i| pool.submit(move || i).ok().expect("accepting"))
            .collect();
        assert_eq!(depth.get(), 3, "three jobs wait behind the parked one");
        release.send(()).unwrap();
        parked.wait();
        for (i, t) in queued.into_iter().enumerate() {
            assert_eq!(t.wait(), i);
        }
        assert_eq!(depth.get(), 0, "every dequeue decremented");
        let snap = wait.snapshot();
        assert_eq!(snap.count(), 4, "every job recorded its queue wait");
        assert!(snap.max_ns > 0);
    }
}
