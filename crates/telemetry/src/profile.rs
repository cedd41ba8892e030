//! The `GET /debug/profile` format: a tree of recorded stage times,
//! rendered as a self-time table and as flamegraph-compatible collapsed
//! stacks.
//!
//! A [`Profile`] keeps no clock of its own. Its builder adds one node per
//! recorded series with that series' *inclusive* time (for the service:
//! the histogram `_sum` the same series exports on `/metrics`), under a
//! `;`-joined path below the `koios` root — `search`, `search;postprocess`,
//! `search;postprocess;verify`. Rendering derives each node's self time as
//! its inclusive time minus the inclusive times of its direct children,
//! clamped at 0, so the two views agree with the recorded sums by
//! construction.
//!
//! A frame containing `:` names an instance of the frame above it
//! (`shard;shard:3`); the self-time table folds instances into that stage.
//! The `idle` node is reported last with fraction 0.
//!
//! ```
//! use koios_telemetry::Profile;
//! use std::time::Duration;
//!
//! let mut p = Profile::new(Duration::from_secs(1), 1);
//! p.add("search", Duration::from_micros(900));
//! p.add("search;refine", Duration::from_micros(600));
//! p.add("idle", Duration::from_micros(100));
//! assert_eq!(
//!     p.collapsed_stacks(),
//!     "koios;search 300\nkoios;search;refine 600\nkoios;idle 100\n"
//! );
//! ```

use koios_common::Json;
use std::time::Duration;

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Stage name (instances such as `shard:3` folded into `shard`).
    pub stage: String,
    /// Self time in microseconds.
    pub us: u64,
    /// Fraction of all non-idle self time (0 for `idle`, and for every
    /// row while nothing was recorded).
    pub fraction: f64,
}

/// A stage tree of inclusive times; see the module docs.
#[derive(Debug, Clone)]
pub struct Profile {
    uptime: Duration,
    workers: usize,
    /// `(path below the koios root, inclusive nanoseconds)`, in the order
    /// the collapsed stacks list them.
    nodes: Vec<(String, u64)>,
}

impl Profile {
    /// An empty profile of a process up for `uptime` with `workers`
    /// worker threads (both reported as-is in [`Profile::to_json`]).
    pub fn new(uptime: Duration, workers: usize) -> Self {
        Profile {
            uptime,
            workers,
            nodes: Vec::new(),
        }
    }

    /// Adds the node at `path` (frames joined by `;`, without the `koios`
    /// root) with its inclusive time.
    pub fn add(&mut self, path: impl Into<String>, inclusive: Duration) {
        let ns = u64::try_from(inclusive.as_nanos()).unwrap_or(u64::MAX);
        self.nodes.push((path.into(), ns));
    }

    /// Every node's path and self time in nanoseconds, in insertion order.
    fn self_ns(&self) -> impl Iterator<Item = (&str, u64)> {
        self.nodes.iter().map(|(path, inclusive)| {
            let children: u64 = self
                .nodes
                .iter()
                .filter_map(|(p, ns)| {
                    let rest = p.strip_prefix(path.as_str())?.strip_prefix(';')?;
                    (!rest.contains(';')).then_some(*ns)
                })
                .sum();
            (path.as_str(), inclusive.saturating_sub(children))
        })
    }

    /// Flamegraph-compatible collapsed stacks: one `koios;<path> <µs>`
    /// line per node with a non-zero self time, weighted in microseconds.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for (path, ns) in self.self_ns() {
            let us = ns / 1_000;
            if us > 0 {
                out.push_str(&format!("koios;{path} {us}\n"));
            }
        }
        out
    }

    /// The self-time table: one row per stage (the last frame of a path
    /// without `:`), descending by self time, `idle` last.
    pub fn self_time(&self) -> Vec<SelfTime> {
        let mut folded: Vec<(&str, u64)> = Vec::new();
        for (path, ns) in self.self_ns() {
            let stage = path.rsplit(';').find(|f| !f.contains(':')).unwrap_or(path);
            match folded.iter_mut().find(|(s, _)| *s == stage) {
                Some((_, total)) => *total += ns,
                None => folded.push((stage, ns)),
            }
        }
        let busy: u64 = folded
            .iter()
            .filter(|(s, _)| *s != "idle")
            .map(|&(_, ns)| ns)
            .sum();
        let mut rows: Vec<SelfTime> = folded
            .into_iter()
            .map(|(stage, ns)| SelfTime {
                stage: stage.to_string(),
                us: ns / 1_000,
                fraction: if stage == "idle" || busy == 0 {
                    0.0
                } else {
                    ns as f64 / busy as f64
                },
            })
            .collect();
        rows.sort_by(|a, b| {
            (a.stage == "idle")
                .cmp(&(b.stage == "idle"))
                .then(b.us.cmp(&a.us))
                .then(a.stage.cmp(&b.stage))
        });
        rows
    }

    /// The `GET /debug/profile` report: uptime, worker count, the
    /// self-time table and the collapsed-stack text in one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("uptime_us", Json::num(self.uptime.as_micros() as f64)),
            ("workers", Json::num(self.workers as f64)),
            (
                "self_time",
                Json::arr(self.self_time().iter().map(|r| {
                    Json::obj([
                        ("stage", Json::str(&r.stage)),
                        ("us", Json::num(r.us as f64)),
                        ("fraction", Json::num(r.fraction)),
                    ])
                })),
            ),
            ("collapsed", Json::str(self.collapsed_stacks())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn self_time_fractions_ignore_idle() {
        let mut p = Profile::new(us(5_000), 2);
        p.add("search", us(40));
        p.add("search;postprocess", us(20));
        p.add("search;postprocess;verify", us(30));
        p.add("shard;shard:0", us(6));
        p.add("shard;shard:1", us(4));
        p.add("idle", us(9_960));
        let rows = p.self_time();
        let row = |stage: &str| rows.iter().find(|r| r.stage == stage).unwrap().clone();
        assert_eq!(row("verify").us, 30);
        assert_eq!(row("search").us, 20);
        assert_eq!(row("postprocess").us, 0, "clamped: verify exceeds it");
        assert_eq!(row("shard").us, 10, "instances fold into their stage");
        assert!((row("verify").fraction - 0.5).abs() < 1e-12);
        let busy: f64 = rows.iter().map(|r| r.fraction).sum();
        assert!((busy - 1.0).abs() < 1e-12);
        let last = rows.last().unwrap();
        assert_eq!(
            (last.stage.as_str(), last.us, last.fraction),
            ("idle", 9_960, 0.0)
        );

        let json = p.to_json();
        assert_eq!(json.get("uptime_us").unwrap().as_u64(), Some(5_000));
        assert_eq!(json.get("workers").unwrap().as_u64(), Some(2));
        let collapsed = json.get("collapsed").unwrap().as_str().unwrap();
        assert_eq!(
            collapsed,
            "koios;search 20\nkoios;search;postprocess;verify 30\n\
             koios;shard;shard:0 6\nkoios;shard;shard:1 4\nkoios;idle 9960\n"
        );
    }

    #[test]
    fn an_empty_profile_reports_no_fractions() {
        let mut p = Profile::new(us(0), 1);
        p.add("search", us(0));
        p.add("idle", us(0));
        assert!(p.collapsed_stacks().is_empty());
        assert!(p.self_time().iter().all(|r| r.us == 0 && r.fraction == 0.0));
    }
}
