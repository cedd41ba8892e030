//! The load generator: closed-loop passes, the open-loop schedule player
//! and the writer connection. Two client threads at most (`nproc` = 2), one
//! connection each; threads only send, wait and store the reply — parsing
//! and checking happen after the window so the generator's share of the
//! cores stays small and constant.

use crate::http::Conn;
use crate::workload::{Due, WriteOp};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request as the generator saw it.
pub struct Sample {
    /// Pool index of the query (searches) or position in the op schedule
    /// (writes).
    pub item: usize,
    /// When latency starts counting: the send instant in a closed loop, the
    /// *due* instant in an open loop.
    pub start: Instant,
    /// When the request actually left.
    pub sent: Instant,
    /// When the whole reply had been read.
    pub done: Instant,
    pub status: u16,
    pub body: Vec<u8>,
    /// Ingest batches acknowledged before the send and batches started
    /// before the reply: the epochs the reply may have been served from.
    pub epochs: (u64, u64),
}

impl Sample {
    /// Counted from `start`: in an open loop the wait a stalled connection
    /// imposes on the requests queued behind it is theirs.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.start)
    }

    /// How late the generator sent it (zero in a closed loop).
    pub fn late(&self) -> Duration {
        self.sent.saturating_duration_since(self.start)
    }
}

/// Epoch bookkeeping shared by the reader and the writer of a live window.
#[derive(Default)]
pub struct Epochs {
    /// Ingest requests sent so far.
    pub started: AtomicU64,
    /// Ingest requests acknowledged so far.
    pub acked: AtomicU64,
}

fn exchange(
    conn: &mut Conn,
    request: &[u8],
    item: usize,
    start: Instant,
    epochs: Option<&Epochs>,
) -> io::Result<Sample> {
    let lo = epochs.map_or(0, |e| e.acked.load(Ordering::SeqCst));
    let sent = Instant::now();
    let reply = conn.exchange(request)?;
    let done = Instant::now();
    let hi = epochs.map_or(0, |e| e.started.load(Ordering::SeqCst));
    Ok(Sample {
        item,
        start,
        sent,
        done,
        status: reply.status,
        body: reply.body,
        epochs: (lo, hi),
    })
}

/// Runs `work(lane, connection)` on one thread per connection and gathers
/// the samples, ordered by `key`.
fn on_each_connection(
    conns: &mut [Conn],
    work: impl Fn(usize, &mut Conn) -> io::Result<Vec<Sample>> + Sync,
    key: fn(&Sample) -> Instant,
) -> io::Result<Vec<Sample>> {
    let work = &work;
    let per_conn: Vec<io::Result<Vec<Sample>>> = std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| sc.spawn(move || work(lane, conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for samples in per_conn {
        all.extend(samples?);
    }
    all.sort_by_key(key);
    Ok(all)
}

/// One closed-loop pass: `order` names the requests in due order; each
/// connection takes the next unsent one as soon as its previous reply
/// arrived. The request *sequence* is a function of the seed; which of the
/// connections carries a given request depends on timing.
pub fn closed_pass(
    conns: &mut [Conn],
    requests: &[&[u8]],
    order: &[usize],
) -> io::Result<Vec<Sample>> {
    let next = AtomicUsize::new(0);
    on_each_connection(
        conns,
        |_, conn| {
            let mut out = Vec::new();
            while let Some(&item) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                out.push(exchange(conn, requests[item], item, Instant::now(), None)?);
            }
            Ok(out)
        },
        |s| s.sent,
    )
}

/// How long to sleep before a request due at `due` when the clock reads
/// `now`: nothing if the previous reply came back late.
pub fn wait_before_send(due: Duration, now: Duration) -> Duration {
    due.saturating_sub(now)
}

/// Plays an open-loop schedule: request `i` goes to connection
/// `i mod conns.len()` and is sent at its due time — or at once if that has
/// passed because the connection's previous reply was slow.
pub fn open_window(
    conns: &mut [Conn],
    requests: &[&[u8]],
    schedule: &[Due],
) -> io::Result<Vec<Sample>> {
    let lanes = conns.len();
    let t0 = Instant::now();
    on_each_connection(
        conns,
        |lane, conn| {
            let mut out = Vec::new();
            for due in schedule.iter().skip(lane).step_by(lanes) {
                std::thread::sleep(wait_before_send(due.at, t0.elapsed()));
                let start = t0 + due.at;
                out.push(exchange(conn, requests[due.query], due.query, start, None)?);
            }
            Ok(out)
        },
        |s| s.start,
    )
}

/// The pre-encoded requests of a writer connection.
pub struct WriteRequests<'a> {
    /// `POST /ingest`, one per batch of the op log.
    pub ingest: &'a [Vec<u8>],
    /// `POST /snapshot` to the run's snapshot file.
    pub snapshot: &'a [u8],
}

/// When the writer sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// At each op's due time; latency counts from the due time.
    Due,
    /// The ops of the schedule one after the other, due times ignored;
    /// latency counts from the send.
    BackToBack,
}

/// Follows a writer schedule on one connection.
pub fn write_window(
    conn: &mut Conn,
    schedule: &[(Duration, WriteOp)],
    requests: &WriteRequests,
    epochs: &Epochs,
    pacing: Pacing,
) -> io::Result<Vec<(WriteOp, Sample)>> {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(schedule.len());
    for (i, &(due, op)) in schedule.iter().enumerate() {
        let bytes = match op {
            WriteOp::Ingest(batch) => requests.ingest[batch].as_slice(),
            WriteOp::Snapshot => requests.snapshot,
        };
        let start = match pacing {
            Pacing::Due => {
                std::thread::sleep(wait_before_send(due, t0.elapsed()));
                t0 + due
            }
            Pacing::BackToBack => Instant::now(),
        };
        if matches!(op, WriteOp::Ingest(_)) {
            epochs.started.fetch_add(1, Ordering::SeqCst);
        }
        let sample = exchange(conn, bytes, i, start, None)?;
        if matches!(op, WriteOp::Ingest(_)) && sample.status == 200 {
            epochs.acked.fetch_add(1, Ordering::SeqCst);
        }
        out.push((op, sample));
    }
    Ok(out)
}

/// The live window: the writer follows its schedule while one closed-loop
/// reader cycles over `order` until the writer is done. Returns the reader
/// passes (the last one possibly partial) and the writer's samples.
#[allow(clippy::type_complexity)]
pub fn live_window(
    reader: &mut Conn,
    writer: &mut Conn,
    requests: &[&[u8]],
    order: &[usize],
    schedule: &[(Duration, WriteOp)],
    write_requests: &WriteRequests,
    epochs: &Epochs,
) -> io::Result<(Vec<Vec<Sample>>, Vec<(WriteOp, Sample)>)> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|sc| {
        let stop = &stop;
        let read = sc.spawn(move || -> io::Result<Vec<Vec<Sample>>> {
            let mut passes = Vec::new();
            'window: loop {
                let mut pass = Vec::with_capacity(order.len());
                for &item in order {
                    if stop.load(Ordering::SeqCst) {
                        passes.push(pass);
                        break 'window;
                    }
                    pass.push(exchange(
                        reader,
                        requests[item],
                        item,
                        Instant::now(),
                        Some(epochs),
                    )?);
                }
                passes.push(pass);
            }
            Ok(passes)
        });
        let written = write_window(writer, schedule, write_requests, epochs, Pacing::Due);
        stop.store(true, Ordering::SeqCst);
        let passes = read.join().expect("reader thread panicked")?;
        Ok((passes, written?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn sample(base: Instant, due: Duration, sent: Duration, done: Duration) -> Sample {
        Sample {
            item: 0,
            start: base + due,
            sent: base + sent,
            done: base + done,
            status: 200,
            body: Vec::new(),
            epochs: (0, 0),
        }
    }

    #[test]
    fn open_loop_arithmetic_when_a_reply_is_late() {
        // One connection, requests due at 0, 10, 20, 30 ms; the first reply
        // takes 25 ms, the others 2 ms.
        let base = Instant::now();
        let dues = [ms(0), ms(10), ms(20), ms(30)];
        let service = [ms(25), ms(2), ms(2), ms(2)];
        let mut clock = ms(0);
        let mut seen = Vec::new();
        for (due, took) in dues.into_iter().zip(service) {
            clock += wait_before_send(due, clock);
            let sent = clock;
            clock += took;
            let s = sample(base, due, sent, clock);
            seen.push((s.late(), s.latency()));
        }
        // #0 on time. #1 was due at 10 but left at 25: 15 late, and its
        // 2 ms exchange reads as 17 ms because users waited from 10.
        // #2 left at 27 (7 late, 9 ms). #3 is back on schedule.
        assert_eq!(seen[0], (ms(0), ms(25)));
        assert_eq!(seen[1], (ms(15), ms(17)));
        assert_eq!(seen[2], (ms(7), ms(9)));
        assert_eq!(seen[3], (ms(0), ms(2)));
    }

    #[test]
    fn never_waits_for_a_due_time_in_the_past() {
        assert_eq!(wait_before_send(ms(10), ms(40)), ms(0));
        assert_eq!(wait_before_send(ms(40), ms(10)), ms(30));
    }
}
