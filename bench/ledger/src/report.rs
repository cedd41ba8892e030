//! What a run leaves behind and what is done with it: the metric table and
//! the result line on standard output, the stamped artifact under
//! `bench/out`, `ledger all`, `ledger compare` and `ledger selfcheck`.

use crate::layers::run_traced;
use crate::run::{fmt, run_untraced, Outcome, RunOpts};
use crate::stats::{median, quartile_spread};
use crate::system::Error;
use crate::workload::{self, Spec};
use crate::Cli;
use koios_common::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `run_seconds` when `BENCHMARK.json` cannot be read.
const DEFAULT_SECONDS: f64 = 15.0;
/// The seed the workloads were sized on, and one they were not.
const SIZING_SEED: u64 = 42;
const FRESH_SEED: u64 = 7;

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may get worse.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the ledger itself uses.
pub struct Benchmark {
    pub run_seconds: f64,
    pub end_to_end: Vec<Bound>,
}

pub fn load_benchmark(root: &Path) -> Result<Benchmark, Error> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |m: &Json, k: &str| -> Result<String, Error> {
        Ok(m.get(k)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: metric without {k:?}", path.display()))?
            .to_string())
    };
    let end_to_end = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: field(m, "name")?,
                higher_is_better: field(m, "better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: end_to_end metric without a bound")?,
            })
        })
        .collect::<Result<Vec<_>, Error>>()?;
    Ok(Benchmark {
        run_seconds: json
            .get("run_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(DEFAULT_SECONDS),
        end_to_end,
    })
}

/// `run_seconds` of `BENCHMARK.json` (the default when it cannot be read).
pub fn run_seconds(root: &Path) -> f64 {
    load_benchmark(root).map_or(DEFAULT_SECONDS, |b| b.run_seconds)
}

/// The commit of the checkout, when it is a git checkout with `git` around.
fn git_commit(root: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn metrics_json(outcome: &Outcome) -> Json {
    Json::obj(outcome.metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// `bench/out/<workload>.json` (`.trace.json` for a traced run).
fn artifact_path(dir: &Path, workload: &str, traced: bool) -> PathBuf {
    dir.join(format!(
        "{workload}{}.json",
        if traced { ".trace" } else { "" }
    ))
}

/// Runs one workload, prints its metrics by name and unit, writes the
/// stamped artifact, and ends with the result line.
pub fn run_and_report(spec: &Spec, opts: &RunOpts) -> Result<bool, Error> {
    let outcome = if opts.trace {
        run_traced(spec, opts)?
    } else {
        run_untraced(spec, opts)?
    };
    let width = outcome
        .metrics
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(0);
    for m in &outcome.metrics {
        println!("  {:<width$}  {:>12} {}", m.name, fmt(m.value), m.unit);
    }
    println!(
        "  attempted {}  failed {}{}",
        outcome.attempted,
        outcome.failed,
        if outcome.noisy {
            "  NOISY (generator late or host stolen): do not compare"
        } else {
            ""
        }
    );
    if let Some(reasons) = outcome.detail.get("failures").and_then(Json::as_array) {
        for r in reasons {
            println!("  failed: {}", r.as_str().unwrap_or(""));
        }
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let artifact = Json::obj([
        ("workload", Json::str(spec.name)),
        ("why", Json::str(spec.why)),
        ("commit", Json::str(git_commit(&opts.root))),
        ("nproc", Json::num(nproc as f64)),
        ("seed", Json::num(opts.seed as f64)),
        ("scale", Json::num(spec.scale)),
        ("partitions", Json::num(spec.partitions as f64)),
        ("seconds", Json::num(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        ("quick", Json::Bool(opts.quick)),
        ("command", Json::str(&opts.command_line)),
        ("noisy", Json::Bool(outcome.noisy)),
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", metrics_json(&outcome)),
        ("detail", outcome.detail.clone()),
    ]);
    let path = artifact_path(&opts.out_dir(), spec.name, opts.trace);
    std::fs::write(&path, artifact.encode() + "\n")?;
    println!("  artifact: {}", path.display());

    // The result line: exactly these keys, last on standard output.
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(outcome.failed == 0)),
            ("attempted", Json::num(outcome.attempted as f64)),
            ("failed", Json::num(outcome.failed as f64)),
            ("metrics", metrics_json(&outcome)),
        ])
        .encode()
    );
    Ok(true)
}

/// One child run of this executable; echoes its report and returns the
/// parsed result line.
fn child_run(cli: &Cli, workload: &str, seed: u64, traced: bool) -> Result<Json, Error> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--root")
        .arg(&cli.root);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!(
            "run of {workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )
        .into());
    }
    Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})").into())
}

fn failed_of(result: &Json) -> u64 {
    result
        .get("failed")
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX)
}

fn metric_of(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `ledger all`: every workload, untraced then traced, each in a process
/// of its own so `rss_mb` is that run's.
pub fn all(cli: &Cli) -> Result<bool, Error> {
    let mut clean = true;
    for spec in workload::specs() {
        for traced in [false, true] {
            let result = child_run(cli, spec.name, cli.seed, traced)?;
            clean &= failed_of(&result) == 0;
        }
    }
    Ok(clean)
}

/// How much worse `now` is than `then`, as a share of `then` (negative:
/// better).
fn worsening(bound: &Bound, then: f64, now: f64) -> f64 {
    let change = (now - then) / then.abs().max(f64::MIN_POSITIVE);
    if bound.higher_is_better {
        -change
    } else {
        change
    }
}

fn artifact_metrics(path: &Path) -> Result<BTreeMap<String, (f64, String)>, Error> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err(format!("{}: no metrics", path.display()).into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| {
            let unit = m.get("unit")?.as_str()?.to_string();
            Some((name.clone(), (m.get("value")?.as_f64()?, unit)))
        })
        .collect())
}

/// `ledger compare <baseline>`: per-metric deltas of `bench/out` against
/// the baseline artifacts, end-to-end ones against their bounds. Reports
/// only; the pipeline does the gating.
pub fn compare(root: &Path, baseline: &Path) -> Result<bool, Error> {
    let bench = load_benchmark(root)?;
    let out = root.join("bench").join("out");
    for spec in workload::specs() {
        for traced in [false, true] {
            let (then, now) = (
                artifact_path(baseline, spec.name, traced),
                artifact_path(&out, spec.name, traced),
            );
            if !then.exists() || !now.exists() {
                println!(
                    "{}{}: nothing to compare ({} or {} is missing)",
                    spec.name,
                    if traced { " (traced)" } else { "" },
                    then.display(),
                    now.display()
                );
                continue;
            }
            let (then, now) = (artifact_metrics(&then)?, artifact_metrics(&now)?);
            println!(
                "{}{}:",
                spec.name,
                if traced { " (traced, no bounds)" } else { "" }
            );
            for (name, (old, unit)) in &then {
                let Some((new, _)) = now.get(name) else {
                    println!("  {name:<34} missing from this run");
                    continue;
                };
                let delta = if *old != 0.0 {
                    (new - old) / old.abs()
                } else {
                    0.0
                };
                let verdict = match bench.end_to_end.iter().find(|b| &b.name == name) {
                    Some(b) if worsening(b, *old, *new) > b.bound => {
                        format!("WORSE than the {:.0}% bound", b.bound * 100.0)
                    }
                    Some(b) => format!("within {:.0}%", b.bound * 100.0),
                    None => String::new(),
                };
                println!(
                    "  {name:<34} {:>12} -> {:>12} {unit:<6} {:>+7.1}%  {verdict}",
                    fmt(*old),
                    fmt(*new),
                    delta * 100.0
                );
            }
        }
    }
    Ok(true)
}

/// `ledger selfcheck`: two back-to-back sets of runs of the same code must
/// agree within the benchmark's own bounds, and a seed the workloads were
/// not sized on must not fail a single operation.
pub fn selfcheck(cli: &Cli) -> Result<bool, Error> {
    let bench = load_benchmark(&cli.root)?;
    let specs = workload::specs();
    let mut offenders: Vec<String> = Vec::new();
    // sets[set][workload][metric] -> one value per run
    let mut sets: Vec<BTreeMap<&str, BTreeMap<String, Vec<f64>>>> = Vec::new();
    for set in 0..2 {
        let mut by_workload = BTreeMap::new();
        for spec in &specs {
            let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for run in 0..cli.runs {
                println!("== set {} run {} of {}", set + 1, run + 1, spec.name);
                let result = child_run(cli, spec.name, SIZING_SEED, false)?;
                if failed_of(&result) != 0 {
                    offenders.push(format!(
                        "{}: failed operations with seed {SIZING_SEED}",
                        spec.name
                    ));
                }
                for b in &bench.end_to_end {
                    match metric_of(&result, &b.name) {
                        Some(v) => by_metric.entry(b.name.clone()).or_default().push(v),
                        None => offenders.push(format!("{}: {} not reported", spec.name, b.name)),
                    }
                }
            }
            by_workload.insert(spec.name, by_metric);
        }
        sets.push(by_workload);
    }
    for spec in &specs {
        println!("== seed {FRESH_SEED} run of {}", spec.name);
        let result = child_run(cli, spec.name, FRESH_SEED, false)?;
        if failed_of(&result) != 0 {
            offenders.push(format!(
                "{}: {} failed operations with seed {FRESH_SEED}",
                spec.name,
                failed_of(&result)
            ));
        }
    }

    println!(
        "\n{:<14} {:<16} {:>12} {:>12} {:>8} {:>8} {:>9}",
        "workload", "metric", "set 1", "set 2", "differ", "bound", "spread"
    );
    for spec in &specs {
        for b in &bench.end_to_end {
            let values = |set: usize| -> &[f64] {
                sets[set][spec.name].get(&b.name).map_or(&[], Vec::as_slice)
            };
            let (first, second) = (median(values(0)), median(values(1)));
            let differ = (second - first).abs() / first.abs().max(f64::MIN_POSITIVE);
            let every: Vec<f64> = values(0).iter().chain(values(1)).copied().collect();
            let spread =
                quartile_spread(&every).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let over = differ > b.bound;
            println!(
                "{:<14} {:<16} {:>12} {:>12} {:>7.1}% {:>7.0}% {:>9}{}",
                spec.name,
                b.name,
                fmt(first),
                fmt(second),
                differ * 100.0,
                b.bound * 100.0,
                spread,
                if over { "  <-- over" } else { "" }
            );
            if over {
                offenders.push(format!(
                    "{}: {} differs by {:.1}% between two sets of runs (bound {:.0}%)",
                    spec.name,
                    b.name,
                    differ * 100.0,
                    b.bound * 100.0
                ));
            }
        }
    }
    if offenders.is_empty() {
        println!(
            "\nselfcheck passed: two sets of {} run(s) agree within the bounds",
            cli.runs
        );
    } else {
        println!("\nselfcheck FAILED:");
        for o in &offenders {
            println!("  {o}");
        }
    }
    Ok(offenders.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = Bound {
            name: "p50_ms".into(),
            higher_is_better: false,
            bound: 0.1,
        };
        let higher = Bound {
            higher_is_better: true,
            ..lower.clone()
        };
        assert!((worsening(&lower, 10.0, 11.5) - 0.15).abs() < 1e-12);
        assert!((worsening(&lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening(&higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn benchmark_json_names_the_ledgers_workloads_and_metrics() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let bench = load_benchmark(&root).expect("BENCHMARK.json loads");
        let names: Vec<&str> = bench.end_to_end.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["qps", "p95_ms", "slo_share", "setup_s", "rss_mb"]);
        assert!(bench
            .end_to_end
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let json = Json::parse(&text).unwrap();
        let listed: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = workload::specs().iter().map(|s| s.name).collect();
        assert_eq!(listed, ours);
    }
}
