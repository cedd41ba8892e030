//! The ledger's own span recorder.
//!
//! Spans are recorded from the benchmark's side of every call into a
//! crate (the spans inside the program are a later change): name, start,
//! end, the span that caused it, the request it belongs to, and the counts
//! observed at that boundary. They are kept in memory and written as one
//! JSON object per line when the run ends; the per-layer table is derived
//! from that file alone.

use koios_common::Json;
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in its trace (ids are dense, parents come first).
    pub id: u32,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// Spans of one request share this id (`0`: not tied to a request).
    pub request: u64,
    /// `<layer>.<operation>`, the layer being the crate name.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Counts observed at this boundary (work done, bytes, outcomes).
    pub counts: Vec<(String, f64)>,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The named count, if recorded.
    pub fn count(&self, key: &str) -> Option<f64> {
        self.counts.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::num(self.id as f64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::num(p as f64)),
            ),
            ("request", Json::num(self.request as f64)),
            ("name", Json::str(&self.name)),
            ("start_ns", Json::num(self.start_ns as f64)),
            ("end_ns", Json::num(self.end_ns as f64)),
            (
                "counts",
                Json::obj(self.counts.iter().map(|(k, v)| (k.clone(), Json::num(*v)))),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<Span> {
        let counts = match j.get("counts")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(Span {
            id: j.get("id")?.as_u64()? as u32,
            parent: match j.get("parent")? {
                Json::Null => None,
                p => Some(p.as_u64()? as u32),
            },
            request: j.get("request")?.as_u64()?,
            name: j.get("name")?.as_str()?.to_string(),
            start_ns: j.get("start_ns")?.as_u64()?,
            end_ns: j.get("end_ns")?.as_u64()?,
            counts,
        })
    }
}

/// In-memory span sink with one clock.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &str,
        parent: Option<u32>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        counts: Vec<(String, f64)>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
            counts,
        });
        id
    }

    /// Opens a span now; children recorded meanwhile may name it as parent.
    /// Close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str, parent: Option<u32>, request: u64) -> u32 {
        let now = self.at(Instant::now());
        self.push(name, parent, request, now, now, Vec::new())
    }

    /// Ends an open span now and attaches its counts.
    pub fn close(&mut self, id: u32, counts: Vec<(String, f64)>) {
        let now = self.at(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.counts = counts;
    }

    /// Times one call as a span.
    pub fn timed<T>(
        &mut self,
        name: &str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id, Vec::new());
        (out, id)
    }

    /// Attaches counts to an already recorded span.
    pub fn set_counts(&mut self, id: u32, counts: Vec<(String, f64)>) {
        self.spans[id as usize].counts = counts;
    }

    pub fn span(&self, id: u32) -> &Span {
        &self.spans[id as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Count key marking a span as a parallel lane (one shard of a fan-out):
/// lanes overlap each other, so they are reported but neither cover their
/// parent's interval nor enter [`tree_self_sums`] — the parent owns the
/// wall time while its lanes run.
pub const LANE: &str = "lane";

/// Self time of every span: its duration minus the part of its interval
/// its (non-lane) children cover, children clipped to the parent and
/// overlapping children counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans.iter().filter(|s| s.count(LANE).is_none()) {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// For every root span, `(root index, Σ self times of its tree)`, lanes
/// excluded. When children nest inside their parents and siblings do not
/// overlap, the sum equals the root's duration exactly: whatever no child
/// accounts for is the root's own (unattributed) self time.
pub fn tree_self_sums(spans: &[Span]) -> Vec<(usize, u64)> {
    let selfs = self_times(spans);
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut root_of: Vec<usize> = (0..spans.len()).collect();
    let mut sums: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    // Parents precede children, so one forward pass resolves every root.
    for (i, s) in spans.iter().enumerate() {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            root_of[i] = root_of[p];
        }
        if s.count(LANE).is_none() {
            *sums.entry(root_of[i]).or_default() += selfs[i];
        }
    }
    sums.into_iter().collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(w, "{}", s.to_json().encode())?;
    }
    w.flush()
}

/// Reads a trace file back.
pub fn read_jsonl(path: &Path) -> io::Result<Vec<Span>> {
    let reader = io::BufReader::new(std::fs::File::open(path)?);
    let mut spans = Vec::new();
    for (n, line) in reader.lines().enumerate() {
        let line = line?;
        let span = Json::parse(&line)
            .ok()
            .as_ref()
            .and_then(Span::from_json)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: line {} is not a span", path.display(), n + 1),
                )
            })?;
        spans.push(span);
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            counts: vec![("n".into(), id as f64)],
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // root [0,100]
        //   a [10,40]      sequential child
        //     a1 [15,25]   grandchild
        //   b [50,80], c [60,90]   overlapping siblings, counted once
        //   d [95,120]     sticks out of the root: clipped to [95,100]
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 80),
            span(4, Some(0), 60, 90),
            span(5, Some(0), 95, 120),
        ];
        let selfs = self_times(&spans);
        // covered: [10,40] + [50,90] + [95,100] = 30 + 40 + 5
        assert_eq!(selfs[0], 100 - 75);
        assert_eq!(selfs[1], 30 - 10);
        assert_eq!(selfs[2], 10);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 30);
        assert_eq!(selfs[5], 25);
    }

    #[test]
    fn sequential_tree_self_times_sum_to_the_root() {
        let spans = vec![
            span(0, None, 0, 1000),
            span(1, Some(0), 5, 105),
            span(2, Some(0), 110, 900),
            span(3, Some(2), 120, 500),
            span(4, Some(3), 130, 400),
            span(5, Some(2), 500, 890),
            span(6, Some(0), 905, 990),
        ];
        let sums = tree_self_sums(&spans);
        assert_eq!(sums, vec![(0, 1000)]);
    }

    #[test]
    fn lanes_neither_cover_their_parent_nor_enter_the_sum() {
        let mut lane_a = span(2, Some(1), 12, 60);
        let mut lane_b = span(3, Some(1), 12, 88);
        lane_a.counts.push((LANE.into(), 1.0));
        lane_b.counts.push((LANE.into(), 1.0));
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 90),
            lane_a,
            lane_b,
            span(4, Some(0), 90, 100),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[1], 80, "the fan-out span owns its wall time");
        assert_eq!(selfs[0], 10);
        assert_eq!(tree_self_sums(&spans), vec![(0, 100)]);
    }

    #[test]
    fn jsonl_round_trips() {
        let dir = std::env::temp_dir().join(format!("ledger-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let spans = vec![span(0, None, 0, 7), span(1, Some(0), 1, 3)];
        write_jsonl(&path, &spans).unwrap();
        assert_eq!(read_jsonl(&path).unwrap(), spans);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recorder_nests_open_spans() {
        let mut rec = Recorder::new();
        let root = rec.open("root", None, 9);
        let ((), child) = rec.timed("child", Some(root), 9, || {
            std::hint::black_box(0u64);
        });
        rec.close(root, vec![("k".into(), 2.0)]);
        let r = rec.span(root);
        let c = rec.span(child);
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
        assert_eq!(r.count("k"), Some(2.0));
        assert_eq!(c.parent, Some(root));
    }
}
