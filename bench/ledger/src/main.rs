//! `ledger` — the perf ledger.
//!
//! Drives a real in-process `KoiosServer` over loopback HTTP, checks every
//! answer, and prints every metric by name and unit. See `bench/README.md`.

mod http;
mod layers;
mod load;
mod report;
mod run;
mod stats;
mod system;
mod trace;
mod workload;

use run::RunOpts;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--root DIR]
  ledger all        [--seed N] [--seconds S] [--quick] [--root DIR]
  ledger selfcheck  [--runs N] [--seconds S] [--root DIR]
  ledger compare <baseline-dir> [--root DIR]

workloads: large_sharded small_stream repeat_open live_mix
--root is the repository root (BENCHMARK.json, bench/out); default: the working directory";

/// Parsed command line.
pub struct Cli {
    pub command: String,
    pub workload: Option<String>,
    pub baseline: Option<PathBuf>,
    pub runs: usize,
    /// `None`: `run_seconds` of `BENCHMARK.json` (or 2 with `--quick`).
    pub seconds: Option<f64>,
    pub seed: u64,
    pub trace: bool,
    pub quick: bool,
    pub root: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        workload: None,
        baseline: None,
        runs: 3,
        seconds: None,
        seed: 42,
        trace: false,
        quick: false,
        root: PathBuf::from("."),
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            cli.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                cli.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if cli.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--quick" => cli.quick = true,
            "--root" => cli.root = PathBuf::from(value("a directory")?),
            other
                if cli.command == "compare"
                    && cli.baseline.is_none()
                    && !other.starts_with("--") =>
            {
                cli.baseline = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let command_line = std::iter::once("ledger".to_string())
        .chain(args.iter().cloned())
        .collect::<Vec<_>>()
        .join(" ");
    let result = match cli.command.as_str() {
        "run" => match cli.workload.as_deref().and_then(workload::spec) {
            Some(spec) => report::run_and_report(&spec, &opts(&cli, command_line)),
            None => Err(format!("--workload must name a workload\n{USAGE}").into()),
        },
        "all" => report::all(&cli),
        "selfcheck" => report::selfcheck(&cli),
        "compare" => match &cli.baseline {
            Some(dir) => report::compare(&cli.root, dir),
            None => Err(format!("compare needs a baseline directory\n{USAGE}").into()),
        },
        other => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn opts(cli: &Cli, command_line: String) -> RunOpts {
    let seconds = cli.seconds.unwrap_or_else(|| {
        if cli.quick {
            2.0
        } else {
            report::run_seconds(&cli.root)
        }
    });
    RunOpts {
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        quick: cli.quick,
        root: cli.root.clone(),
        command_line,
    }
}
