//! One run of one workload: build → warm-up → measured rounds → write
//! phase → checks → metrics. The traced variant ([`crate::layers`]) reuses
//! the same [`Session`] steps with spans around them.

use crate::http::{body_json, Conn};
use crate::load::{self, Epochs, Pacing, Sample, WriteRequests};
use crate::stats::{median, percentile, samples_beyond, sorted};
use crate::system::{
    json_matches, matches_exhaustive, reference_pass, reply_matches, same_corpus, Error, Inputs,
    Mirror, Served,
};
use crate::workload::{self, Load, Spec, WriteOp, ALPHA, K};
use koios_common::Json;
use koios_core::{Hit, KoiosConfig};
use koios_service::{SearchRequest, SearchService, ServiceConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Queries checked against the exhaustive baseline in every run.
pub const EXHAUSTIVE_SAMPLE: usize = 12;
/// Set-ups timed after the run's own, for the median behind `setup_s` (a
/// set-up is half a second of mostly warm-up requests, and the first one in
/// a process runs a third slower than the rest).
const EXTRA_SETUPS: usize = 4;
/// Open-loop windows are reported in slices of this length.
const OPEN_SLICE: Duration = Duration::from_secs(1);
/// Share of an open-loop workload's seconds spent playing the schedule; the
/// rest goes to the saturated replay of the same request mix
/// ([`replay_window`]).
pub const OPEN_SHARE: f64 = 1.0 / 3.0;
/// Requests per round of the saturated replay, about two seconds of work:
/// some 300 distinct queries, more than the result LRU holds, so that no
/// round is served from what the previous one left in the cache.
pub const REPLAY_ROUND: usize = 800;
/// Connections of the saturated replay. One: with two, whether the kernel
/// keeps each client → handler → worker chain on one core or lets the
/// chains cross cores is settled once per process and decides a run's rate
/// (1,300 or 1,900 requests/s on the same seed, five runs each of ten).
const REPLAY_CLIENTS: usize = 1;
/// A run whose median request left later than this (the generator, or the
/// connection it waits on, cannot hold the schedule), or whose host was
/// stolen for more than [`NOISY_STEAL_SHARE`] of the window, is `noisy`.
pub const NOISY_LATE_P50: Duration = Duration::from_millis(1);
pub const NOISY_STEAL_SHARE: f64 = 0.05;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: half the pool, one set-up, a short write probe.
    pub quick: bool,
    /// Repository root: `BENCHMARK.json`, `bench/out`, `bench/baseline`.
    pub root: PathBuf,
    /// The command line, for the artifact stamp.
    pub command_line: String,
}

impl RunOpts {
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("bench").join("out")
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Host was stolen or the generator ran late: do not compare.
    pub noisy: bool,
    /// Rounds, per-round rates, sample counts — for the artifact.
    pub detail: Json,
}

/// Operations attempted and failed so far, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(what());
            }
        }
        ok
    }
}

/// The measured read traffic: rounds of samples with their verdicts.
pub struct ReadWindow {
    /// Closed loop: one pass over the pool per round. Open loop: one-second
    /// slices of the schedule. Live: reader passes.
    pub rounds: Vec<Vec<Sample>>,
    /// `ok[r][i]`: reply `i` of round `r` was a correct 200.
    pub ok: Vec<Vec<bool>>,
    /// Rounds that ran to completion (a live window cuts the last one).
    pub complete: usize,
}

impl ReadWindow {
    pub fn samples(&self) -> impl Iterator<Item = (&Sample, bool)> {
        self.rounds
            .iter()
            .zip(&self.ok)
            .flat_map(|(r, ok)| r.iter().zip(ok.iter().copied()))
    }

    /// The complete rounds with their verdicts.
    pub fn complete_rounds(&self) -> impl Iterator<Item = (&Vec<Sample>, &Vec<bool>)> {
        self.rounds
            .iter()
            .zip(&self.ok)
            .take(self.complete)
            .filter(|(r, _)| !r.is_empty())
    }
}

/// Write traffic: every `/ingest` and `/snapshot` with its verdict.
#[derive(Default)]
pub struct WriteWindow {
    pub ops: Vec<(WriteOp, Sample, bool)>,
    /// What the mirror's replay of each acknowledged batch took:
    /// `(MutableEngine::apply, backend())`.
    pub replay: Vec<(Duration, Duration)>,
}

impl WriteWindow {
    fn latencies_ms(&self, want_ingest: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|(op, _, _)| matches!(op, WriteOp::Ingest(_)) == want_ingest)
            .map(|(_, s, _)| s.latency().as_secs_f64() * 1e3)
            .collect()
    }

    pub fn ingest_ms(&self) -> Vec<f64> {
        self.latencies_ms(true)
    }

    pub fn snapshot_ms(&self) -> Vec<f64> {
        self.latencies_ms(false)
    }
}

/// `steal` and total jiffies of the host so far (`/proc/stat`).
fn cpu_jiffies() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Share of host CPU time stolen between two `/proc/stat` readings.
pub struct StealMeter(Option<(f64, f64)>);

impl StealMeter {
    pub fn start() -> Self {
        StealMeter(cpu_jiffies())
    }

    pub fn share(&self) -> f64 {
        match (self.0, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) / (t1 - t0),
            _ => 0.0,
        }
    }
}

/// The state one run threads through its steps.
pub struct Session<'a> {
    pub spec: &'a Spec,
    pub opts: &'a RunOpts,
    pub inputs: Inputs,
    pub served: Served,
    pub mirror: Mirror,
    /// Epoch-0 references of the served corpus, by pool index.
    pub refs: HashMap<usize, Vec<Hit>>,
    pub tally: Tally,
    /// Ingest batches acknowledged so far (the next batch to send).
    pub batches_sent: usize,
    /// Read windows run so far; each open-loop window continues the
    /// schedule's random stream instead of repeating the previous one.
    pub windows_run: u64,
    /// Closed-loop rounds run so far (each has an order of its own).
    pub rounds_run: u64,
    /// How long each set-up took.
    pub setups: Vec<Duration>,
    /// `VmHWM` when the last read window had received its last reply:
    /// corpus, one built service, references, the window's stored replies —
    /// before the ledger's own judging, mirror, probe and checks pile on.
    pub rss_after_window: f64,
}

impl<'a> Session<'a> {
    /// Generates the inputs and sets the system up.
    pub fn start(spec: &'a Spec, opts: &'a RunOpts) -> Result<Session<'a>, Error> {
        let pool = if opts.quick { spec.pool / 2 } else { spec.pool };
        let batches = match spec.load {
            // One spare batch: a traced run splits the window in two and
            // rounds each half up.
            Load::Live { ingest_every, .. } => {
                (opts.seconds / ingest_every.as_secs_f64()).ceil() as usize + 1
            }
            _ if opts.quick => workload::PROBE_BATCHES / 5,
            _ => workload::PROBE_BATCHES,
        };
        let inputs = Inputs::generate(spec, pool, batches, opts.seed);
        std::fs::create_dir_all(opts.out_dir())?;
        let snapshot = opts
            .out_dir()
            .join(format!("{}-{}.ksnap", spec.name, std::process::id()));
        let warmup = inputs.warmup_order(opts.seed);
        let (served, took) = Served::set_up(&inputs, &snapshot, &warmup)?;
        let mirror = Mirror::new(&inputs, matches!(spec.load, Load::Live { .. }))?;
        Ok(Session {
            spec,
            opts,
            inputs,
            served,
            mirror,
            refs: HashMap::new(),
            tally: Tally::default(),
            batches_sent: 0,
            windows_run: 0,
            rounds_run: 0,
            setups: vec![took],
            rss_after_window: 0.0,
        })
    }

    /// Ends the run's system and times `more` further set-ups of the same
    /// inputs, each torn down again (they come last so that the run's peak
    /// memory is the measured system's, not three builds').
    pub fn finish(self, more: usize) -> Result<(Vec<Duration>, Tally), Error> {
        let Session {
            inputs,
            served,
            mut setups,
            tally,
            opts,
            ..
        } = self;
        let snapshot = served.snapshot.clone();
        served.tear_down();
        let warmup = inputs.warmup_order(opts.seed);
        for _ in 0..more {
            let (again, took) = Served::set_up(&inputs, &snapshot, &warmup)?;
            again.tear_down();
            setups.push(took);
        }
        Ok((setups, tally))
    }

    pub fn is_live(&self) -> bool {
        matches!(self.spec.load, Load::Live { .. })
    }

    /// Computes the epoch-0 references the coming reads need (none for the
    /// live workload: its corpus moves, the mirror answers per epoch).
    pub fn reference(&mut self, queries: impl IntoIterator<Item = usize>) {
        if self.is_live() {
            return;
        }
        let mut missing: Vec<usize> = queries
            .into_iter()
            .filter(|q| !self.refs.contains_key(q))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        self.refs
            .extend(reference_pass(&self.served.service, &self.inputs, &missing));
    }

    /// Judges read samples: against the epoch-0 references, or — once the
    /// corpus has moved — against the mirror at every epoch the reply may
    /// have been served from.
    pub fn judge_reads(&mut self, rounds: &[Vec<Sample>]) -> Vec<Vec<bool>> {
        let moved = self.is_live() || self.batches_sent > 0;
        let by_epoch = if moved {
            let flat: Vec<&Sample> = rounds.iter().flatten().collect();
            self.mirror.references(&self.inputs, &flat)
        } else {
            HashMap::new()
        };
        rounds
            .iter()
            .map(|round| {
                round
                    .iter()
                    .map(|s| {
                        let ok = if moved {
                            (s.epochs.0..=s.epochs.1).any(|e| {
                                reply_matches(s.status, &s.body, &by_epoch[&(s.item, e)])
                            })
                        } else {
                            reply_matches(s.status, &s.body, &self.refs[&s.item])
                        };
                        self.tally.check(ok, || {
                            format!(
                                "search reply for pool query {} (status {}) differs from the reference",
                                s.item, s.status
                            )
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// Closed loop: one pass over the whole pool, in this round's order.
    pub fn closed_round(
        &mut self,
        conns: &mut [Conn],
        explain: bool,
    ) -> Result<Vec<Sample>, Error> {
        let order = workload::round_order(self.inputs.pool.len(), self.opts.seed, self.rounds_run);
        self.rounds_run += 1;
        Ok(load::closed_pass(
            conns,
            &self.inputs.requests(explain),
            &order,
        )?)
    }

    /// Replays the acknowledged batches on the mirror and judges the write
    /// samples: 200, the batch's insert/remove counts, the next epoch.
    pub fn judge_writes(&mut self, written: Vec<(WriteOp, Sample)>) -> Result<WriteWindow, Error> {
        let mut window = WriteWindow::default();
        for (op, sample) in written {
            let reply = body_json(&sample.body);
            let field = |key| {
                reply
                    .as_ref()
                    .and_then(|r| r.get(key))
                    .and_then(Json::as_u64)
            };
            let ok = match op {
                WriteOp::Ingest(batch) => {
                    let acked = sample.status == 200;
                    if acked {
                        let took = self.mirror.apply(&self.inputs.oplog[batch])?;
                        window.replay.push(took);
                        self.batches_sent = batch + 1;
                    }
                    acked
                        && field("inserted") == Some(workload::INSERTS_PER_BATCH as u64)
                        && field("removed") == Some(workload::REMOVES_PER_BATCH as u64)
                        && field("epoch") == Some(self.mirror.epoch())
                }
                WriteOp::Snapshot => sample.status == 200 && field("bytes").is_some(),
            };
            self.tally.check(ok, || {
                format!(
                    "{op:?} answered {} {:?}",
                    sample.status,
                    reply.map(|r| r.encode())
                )
            });
            window.ops.push((op, sample, ok));
        }
        Ok(window)
    }

    /// The write traffic of a workload without a live writer: the op log
    /// against the otherwise idle service after the read window, a
    /// `/snapshot` after every `/ingest`, back to back (gaps let the cores
    /// go cold and the timings wander).
    pub fn write_probe(&mut self) -> Result<WriteWindow, Error> {
        let schedule: Vec<(Duration, WriteOp)> = (self.batches_sent..self.inputs.oplog.len())
            .flat_map(|b| [WriteOp::Ingest(b), WriteOp::Snapshot])
            .map(|op| (Duration::ZERO, op))
            .collect();
        let mut conn = self.served.connect(1)?.remove(0);
        let written = load::write_window(
            &mut conn,
            &schedule,
            &WriteRequests {
                ingest: &self.inputs.ingest_requests,
                snapshot: &self.served.snapshot_request,
            },
            &Epochs::default(),
            Pacing::BackToBack,
        )?;
        self.judge_writes(written)
    }

    /// One live window over batches `range`: reader passes with verdicts,
    /// and the writer's samples.
    pub fn live_window(
        &mut self,
        batches: std::ops::Range<usize>,
        explain: bool,
    ) -> Result<(ReadWindow, WriteWindow), Error> {
        let Load::Live {
            ingest_every,
            snapshot_every,
        } = self.spec.load
        else {
            return Err("not a live workload".into());
        };
        let schedule = workload::write_schedule(batches, ingest_every, snapshot_every);
        let order: Vec<usize> = (0..self.inputs.pool.len()).collect();
        let mut conns = self.served.connect(2)?;
        let (reader, writer) = conns.split_at_mut(1);
        // The reader's epoch window counts from the batches already applied.
        let epochs = Epochs::default();
        let base = self.batches_sent as u64;
        epochs
            .started
            .store(base, std::sync::atomic::Ordering::SeqCst);
        epochs
            .acked
            .store(base, std::sync::atomic::Ordering::SeqCst);
        let (rounds, written) = load::live_window(
            &mut reader[0],
            &mut writer[0],
            &self.inputs.requests(explain),
            &order,
            &schedule,
            &WriteRequests {
                ingest: &self.inputs.ingest_requests,
                snapshot: &self.served.snapshot_request,
            },
            &epochs,
        )?;
        self.rss_after_window = rss_mb();
        // Writes first: the mirror must hold every epoch the reads cite.
        let writes = self.judge_writes(written)?;
        let ok = self.judge_reads(&rounds);
        let complete = rounds.len().saturating_sub(1);
        Ok((
            ReadWindow {
                rounds,
                ok,
                complete,
            },
            writes,
        ))
    }

    /// The checks every run ends with: a final snapshot; the served corpus
    /// against the mirror's cold rebuild over the acknowledged op log; a
    /// second service warm-started from the snapshot file (same epoch,
    /// identical hits); and a seeded sample of queries against the
    /// exhaustive baseline. Returns the delta-chain length of the snapshot.
    pub fn final_checks(&mut self) -> Result<u64, Error> {
        let mut conn = self.served.connect(1)?.remove(0);
        let snap = conn.exchange(&self.served.snapshot_request)?;
        let reply = body_json(&snap.body);
        let field = |key| {
            reply
                .as_ref()
                .and_then(|r| r.get(key))
                .and_then(Json::as_u64)
        };
        let (latest, deltas) = (field("latest_epoch"), field("deltas").unwrap_or(0));
        let epoch = self.mirror.epoch();
        self.tally
            .check(snap.status == 200 && latest == Some(epoch), || {
                format!(
                    "final snapshot: status {}, latest_epoch {latest:?}, expected {epoch}",
                    snap.status
                )
            });

        let (repo, sim) = self.mirror.latest();
        let served_repo = self.served.service.repository();
        let served_epoch = self.served.service.engine_epoch();
        self.tally
            .check(served_epoch == epoch && same_corpus(&served_repo, &repo), || {
                format!("served corpus (epoch {served_epoch}) differs from the cold rebuild (epoch {epoch})")
            });

        // A seeded sample of the pool: the exhaustive check uses it over
        // HTTP, the restart check in-process on both services.
        let stride = (self.inputs.pool.len() / EXHAUSTIVE_SAMPLE).max(1);
        let offset = (self.opts.seed as usize) % stride;
        let sample: Vec<usize> = (0..self.inputs.pool.len())
            .skip(offset)
            .step_by(stride)
            .take(EXHAUSTIVE_SAMPLE)
            .collect();

        let warm = SearchService::from_snapshot(
            &self.served.snapshot,
            KoiosConfig::new(K, ALPHA),
            ServiceConfig::new().with_workers(1),
        );
        match warm {
            Ok(warm) => {
                let warm_epoch = warm.engine_epoch();
                self.tally.check(warm_epoch == epoch, || {
                    format!("warm start resumed at epoch {warm_epoch}, served {epoch}")
                });
                for &q in &sample {
                    let req =
                        || SearchRequest::new(self.inputs.pool[q].tokens.clone()).bypassing_cache();
                    let a = warm.search(req()).result.hits;
                    let b = self.served.service.search(req()).result.hits;
                    self.tally.check(a == b, || {
                        format!("warm-started service answers pool query {q} differently")
                    });
                }
            }
            Err(e) => {
                self.tally
                    .check(false, || format!("warm start failed: {e}"));
            }
        }

        for &q in &sample {
            let reply = conn.exchange(&self.inputs.pool[q].request)?;
            let ok = reply.status == 200
                && body_json(&reply.body).is_some_and(|json| {
                    let tokens = &self.inputs.pool[q].tokens;
                    json_matches(&json, &self.mirror.search(tokens, epoch))
                        && matches_exhaustive(&json, &repo, &sim, tokens)
                });
            self.tally.check(ok, || {
                format!("pool query {q} differs from the exhaustive baseline")
            });
        }
        Ok(deltas)
    }
}

/// Splits an open-loop window into [`OPEN_SLICE`] slices by due time.
fn slice_open_window(samples: Vec<Sample>) -> Vec<Vec<Sample>> {
    let Some(t0) = samples.first().map(|s| s.start) else {
        return Vec::new();
    };
    let mut rounds: Vec<Vec<Sample>> = Vec::new();
    for s in samples {
        let slice = (s.start.duration_since(t0).as_secs_f64() / OPEN_SLICE.as_secs_f64()) as usize;
        if rounds.len() <= slice {
            rounds.resize_with(slice + 1, Vec::new);
        }
        rounds[slice].push(s);
    }
    rounds
}

/// The measured read window of the workload (with the live writer where
/// the workload has one).
pub fn read_window(
    session: &mut Session,
    seconds: f64,
    explain: bool,
) -> Result<(ReadWindow, WriteWindow), Error> {
    session.windows_run += 1;
    match session.spec.load {
        Load::Closed { clients } => {
            session.reference(0..session.inputs.pool.len());
            let mut conns = session.served.connect(clients)?;
            let t0 = Instant::now();
            let mut rounds = Vec::new();
            while rounds.is_empty() || t0.elapsed().as_secs_f64() < seconds {
                rounds.push(session.closed_round(&mut conns, explain)?);
            }
            session.rss_after_window = rss_mb();
            let ok = session.judge_reads(&rounds);
            let complete = rounds.len();
            Ok((
                ReadWindow {
                    rounds,
                    ok,
                    complete,
                },
                WriteWindow::default(),
            ))
        }
        Load::Open {
            rate,
            connections,
            zipf_s,
        } => {
            let count = (seconds * rate).round().max(1.0) as usize;
            let seed = session.opts.seed ^ (session.windows_run << 32);
            let schedule =
                workload::open_schedule(session.inputs.pool.len(), rate, zipf_s, count, seed);
            session.reference(schedule.iter().map(|d| d.query));
            let mut conns = session.served.connect(connections)?;
            let samples =
                load::open_window(&mut conns, &session.inputs.requests(explain), &schedule)?;
            session.rss_after_window = rss_mb();
            let rounds = slice_open_window(samples);
            let ok = session.judge_reads(&rounds);
            // The last slice is as long as the others only when the window
            // is a whole number of slices; count it when it is full (a
            // window shorter than one slice is its own round).
            let full = (OPEN_SLICE.as_secs_f64() * rate).round() as usize;
            let complete = match rounds.iter().filter(|r| r.len() >= full).count() {
                0 => rounds.len(),
                n => n,
            };
            Ok((
                ReadWindow {
                    rounds,
                    ok,
                    complete,
                },
                WriteWindow::default(),
            ))
        }
        Load::Live { ingest_every, .. } => {
            let left = session.inputs.oplog.len() - session.batches_sent;
            let n = ((seconds / ingest_every.as_secs_f64()).ceil() as usize).min(left);
            let from = session.batches_sent;
            session.live_window(from..from + n, explain)
        }
    }
}

/// The saturated replay of an open-loop workload: the same request mix —
/// every round the same [`REPLAY_ROUND`] requests, which follow the
/// popularity law exactly, in a seeded order of its own — offered closed
/// loop on
/// [`REPLAY_CLIENTS`] connection for `seconds` of measured time. The
/// open-loop schedule leaves the cores idle nine tenths of the time, so
/// what its latencies measure on a shared host is how long the host takes
/// to wake a sleeping thread, and any slow-down of the host is amplified by
/// the requests queueing behind one another (the same code read p50 0.6 ms
/// in one set of ten runs and 3 ms in the next); the replay reads the same
/// hit and miss paths at the speed the program runs them.
pub fn replay_window(session: &mut Session, seconds: f64) -> Result<ReadWindow, Error> {
    let Load::Open { zipf_s, .. } = session.spec.load else {
        return Err("not an open-loop workload".into());
    };
    let mix = workload::replay_mix(session.inputs.pool.len(), zipf_s, REPLAY_ROUND);
    let mut conns = session.served.connect(REPLAY_CLIENTS)?;
    let (mut rounds, mut ok) = (Vec::new(), Vec::new());
    let mut measured = Duration::ZERO;
    // The first round is played and judged but not reported: it brings the
    // LRU and the token cache from what the open loop left to the mix's
    // own steady state (it ran a fifth slower than the rounds after it).
    let mut warm = false;
    while !warm || rounds.is_empty() || measured.as_secs_f64() < seconds {
        let order: Vec<usize> =
            workload::round_order(mix.len(), session.opts.seed, session.rounds_run)
                .into_iter()
                .map(|i| mix[i])
                .collect();
        session.rounds_run += 1;
        // References are computed between rounds, outside the measured time.
        session.reference(order.iter().copied());
        let t0 = Instant::now();
        let mut round = load::closed_pass(&mut conns, &session.inputs.requests(false), &order)?;
        let took = t0.elapsed();
        // Judged between rounds and the replies dropped: hundreds of
        // requests a second would otherwise make the run's memory a
        // function of its speed.
        let verdicts = session.judge_reads(std::slice::from_ref(&round));
        if warm {
            measured += took;
            round.iter_mut().for_each(|s| s.body = Vec::new());
            rounds.push(round);
            ok.extend(verdicts);
        }
        warm = true;
    }
    session.rss_after_window = rss_mb();
    let complete = rounds.len();
    Ok(ReadWindow {
        rounds,
        ok,
        complete,
    })
}

/// What one round of a read window measured.
#[derive(Debug, Clone, Copy)]
pub struct RoundSummary {
    /// Correct replies per second of wall time, first start (or due time)
    /// to last reply.
    pub qps: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Share of the round's requests answered correctly within the limit.
    pub slo_share: f64,
}

fn latency_ms(s: &Sample) -> f64 {
    s.latency().as_secs_f64() * 1e3
}

fn summarize_round(round: &[Sample], ok: &[bool], slo_ms: f64) -> RoundSummary {
    let first = round
        .iter()
        .map(|s| s.start)
        .min()
        .expect("non-empty round");
    let last = round.iter().map(|s| s.done).max().expect("non-empty round");
    let correct = ok.iter().filter(|&&o| o).count() as f64;
    let lat = sorted(round.iter().map(latency_ms).collect());
    let within = round
        .iter()
        .zip(ok)
        .filter(|(s, &ok)| ok && latency_ms(s) <= slo_ms)
        .count();
    RoundSummary {
        qps: correct / last.duration_since(first).as_secs_f64(),
        p50_ms: percentile(&lat, 0.50),
        p95_ms: percentile(&lat, 0.95),
        slo_share: within as f64 / round.len() as f64,
    }
}

/// A read window as reported: every read metric is the **median of its
/// per-round values**. The rounds of a window are identical (closed loop)
/// or equally long (open loop), and on a shared two-core box one of them
/// regularly catches a stall of the host — which moves a percentile pooled
/// over the whole window (a 0.1 s stall in an open loop delays the next 20
/// requests: the pooled p95 of the same seed read 12 ms in five runs and
/// 142 ms in the sixth) but not the median of the rounds.
pub struct ReadSummary {
    pub rounds: Vec<RoundSummary>,
    pub qps: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub slo_share: f64,
    /// Pooled over every request of the window, for information.
    pub pooled_p95_ms: f64,
    pub pooled_p99_ms: Option<f64>,
    pub requests: usize,
    /// Samples beyond the p95 position in the smallest complete round.
    pub beyond_p95: usize,
    pub late_p50_us: f64,
    pub late_p95_us: f64,
}

impl ReadSummary {
    pub fn noisy(&self, steal_share: f64) -> bool {
        steal_share > NOISY_STEAL_SHARE || self.late_p50_us > NOISY_LATE_P50.as_secs_f64() * 1e6
    }
}

pub fn summarize_reads(window: &ReadWindow, spec: &Spec) -> ReadSummary {
    let rounds: Vec<RoundSummary> = window
        .complete_rounds()
        .map(|(round, ok)| summarize_round(round, ok, spec.slo_ms))
        .collect();
    let of = |f: fn(&RoundSummary) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let lat = sorted(window.samples().map(|(s, _)| latency_ms(s)).collect());
    let late = sorted(
        window
            .samples()
            .map(|(s, _)| s.late().as_secs_f64() * 1e6)
            .collect(),
    );
    let n = lat.len();
    ReadSummary {
        qps: of(|r| r.qps),
        p50_ms: of(|r| r.p50_ms),
        p95_ms: of(|r| r.p95_ms),
        slo_share: of(|r| r.slo_share),
        rounds,
        pooled_p95_ms: percentile(&lat, 0.95),
        pooled_p99_ms: (samples_beyond(n, 0.99) >= 10).then(|| percentile(&lat, 0.99)),
        requests: n,
        beyond_p95: window
            .complete_rounds()
            .map(|(r, _)| samples_beyond(r.len(), 0.95))
            .min()
            .unwrap_or(0),
        late_p50_us: percentile(&late, 0.50),
        late_p95_us: percentile(&late, 0.95),
    }
}

fn per_round(summary: &ReadSummary, f: fn(&RoundSummary) -> f64) -> Json {
    Json::arr(summary.rounds.iter().map(|r| Json::num(f(r))))
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(spec: &Spec, opts: &RunOpts) -> Result<Outcome, Error> {
    let mut session = Session::start(spec, opts)?;
    println!(
        "{}: {} sets, vocabulary {}, {} partition(s), pool {} queries",
        spec.name,
        session.inputs.repo.num_sets(),
        session.inputs.repo.vocab_size(),
        spec.partitions,
        session.inputs.pool.len(),
    );

    // An open-loop workload plays its schedule for a share of the seconds
    // and spends the rest on the saturated replay of the same mix.
    let open_loop = matches!(spec.load, Load::Open { .. });
    let window_seconds = if open_loop {
        opts.seconds * OPEN_SHARE
    } else {
        opts.seconds
    };
    let steal = StealMeter::start();
    let (reads, mut writes) = read_window(&mut session, window_seconds, false)?;
    let cache_before = session.served.service.stats().cache;
    let replay = open_loop
        .then(|| replay_window(&mut session, opts.seconds - window_seconds))
        .transpose()?;
    let cache_after = session.served.service.stats().cache;
    let steal_share = steal.share();
    let summary = summarize_reads(&reads, spec);
    let replayed = replay.as_ref().map(|window| summarize_reads(window, spec));
    // Where `qps` and `p95_ms` come from.
    let capacity = replayed.as_ref().unwrap_or(&summary);
    let rss = session.rss_after_window;
    if !session.is_live() {
        writes = session.write_probe()?;
    }
    session.final_checks()?;

    let print_rounds = |what: &str, summary: &ReadSummary| {
        for (i, r) in summary.rounds.iter().enumerate() {
            println!(
                "  {what} {:>2}: {} correct/s, p50 {} ms, p95 {} ms, within limit {}",
                i + 1,
                fmt(r.qps),
                fmt(r.p50_ms),
                fmt(r.p95_ms),
                fmt(r.slo_share)
            );
        }
        println!(
            "  {} requests, at least {} beyond p95 in every {what}; p50 {} ms, pooled p95 {} ms{} (information)",
            summary.requests,
            summary.beyond_p95,
            fmt(summary.p50_ms),
            fmt(summary.pooled_p95_ms),
            summary
                .pooled_p99_ms
                .map_or(String::new(), |p| format!(", p99 {} ms", fmt(p)))
        );
    };
    if let Some(replayed) = &replayed {
        print_rounds("slice", &summary);
        println!(
            "  open loop, from the due time: p50 {} ms, p95 {} ms, sent late p95 {} us (information)",
            fmt(summary.p50_ms),
            fmt(summary.p95_ms),
            fmt(summary.late_p95_us)
        );
        print_rounds("replay round", replayed);
        let (hits, misses) = (
            cache_after.hits - cache_before.hits,
            cache_after.misses - cache_before.misses,
        );
        println!(
            "  replay: result-cache hit rate {} (information)",
            fmt(hits as f64 / (hits + misses).max(1) as f64)
        );
    } else {
        print_rounds("round", &summary);
    }
    // Per-layer metrics of the traced run; here for information.
    let (ingest, snapshot) = (writes.ingest_ms(), writes.snapshot_ms());
    println!(
        "  {} ingests p50 {} ms, {} snapshots p50 {} ms (information)",
        ingest.len(),
        fmt(median(&ingest)),
        snapshot.len(),
        fmt(median(&snapshot))
    );

    let (setups, tally) = session.finish(if opts.quick { 0 } else { EXTRA_SETUPS })?;
    let setup_s = median(&setups.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
    let metrics = vec![
        Metric::new("qps", "1/s", capacity.qps),
        Metric::new("p95_ms", "ms", capacity.p95_ms),
        Metric::new("slo_share", "share", summary.slo_share),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("rss_mb", "MB", rss),
    ];
    let mut detail = vec![
        ("rounds", Json::num(capacity.rounds.len() as f64)),
        ("round_qps", per_round(capacity, |r| r.qps)),
        ("round_p50_ms", per_round(capacity, |r| r.p50_ms)),
        ("round_p95_ms", per_round(capacity, |r| r.p95_ms)),
        ("round_slo_share", per_round(&summary, |r| r.slo_share)),
        ("requests", Json::num(capacity.requests as f64)),
        (
            "samples_beyond_p95_per_round",
            Json::num(capacity.beyond_p95 as f64),
        ),
        ("p50_ms", Json::num(capacity.p50_ms)),
        ("pooled_p95_ms", Json::num(capacity.pooled_p95_ms)),
        (
            "pooled_p99_ms",
            capacity.pooled_p99_ms.map_or(Json::Null, Json::num),
        ),
        ("ingests", Json::num(ingest.len() as f64)),
        ("ingest_p50_ms", Json::num(median(&ingest))),
        ("snapshots", Json::num(snapshot.len() as f64)),
        ("snapshot_p50_ms", Json::num(median(&snapshot))),
        ("slo_ms", Json::num(spec.slo_ms)),
        (
            "setup_s_each",
            Json::arr(setups.iter().map(|t| Json::num(t.as_secs_f64()))),
        ),
        ("generator_late_p95_us", Json::num(summary.late_p95_us)),
        ("cpu_steal_share", Json::num(steal_share)),
        ("failures", Json::arr(tally.reasons.iter().map(Json::str))),
    ];
    if open_loop {
        detail.extend([
            ("open_requests", Json::num(summary.requests as f64)),
            ("open_p50_ms", Json::num(summary.p50_ms)),
            ("open_p95_ms", Json::num(summary.p95_ms)),
            ("open_goodput", Json::num(summary.qps)),
        ]);
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        noisy: summary.noisy(steal_share),
        detail: Json::obj(detail),
    })
}

/// Shortest decimal that keeps four significant digits readable.
pub fn fmt(v: f64) -> String {
    if v == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else if v.abs() >= 0.1 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}
