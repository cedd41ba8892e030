//! The Koios experiment harness.
//!
//! Regenerates every table and figure of the paper's evaluation (§VIII) on
//! the scaled synthetic profiles. Run it in release mode:
//!
//! ```text
//! cargo run --release -p koios-bench --bin harness -- all
//! cargo run --release -p koios-bench --bin harness -- table3 --scale 0.3
//! ```
//!
//! Subcommands: `table1 table2 table3 table4 table5 fig5 fig6 fig7 fig8
//! silkmoth ablation token_cache all`. The serving stack (HTTP, sharded
//! backends, snapshots, live mutation, tracing overhead) is measured by the
//! perf ledger instead: `bench/README.md`. Options: `--scale F`
//! (corpus scale, default 0.1), `--k N`, `--alpha F`, `--partitions N`,
//! `--queries N` (per interval), `--timeout SECS`, `--seed N`.

use koios_bench::experiments::{self, HarnessConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: harness <table1|table2|table3|table4|table5|fig5|fig6|fig7|fig8|silkmoth|ablation|token_cache|all>\n\
         \x20       [--scale F] [--k N] [--alpha F] [--partitions N] [--queries N] [--timeout SECS] [--seed N]"
    );
    std::process::exit(2);
}

fn parse_args() -> (Vec<String>, HarnessConfig) {
    let mut cfg = HarnessConfig::default();
    let mut cmds = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match a.as_str() {
            "--scale" => cfg.scale = take("--scale").parse().unwrap_or_else(|_| usage()),
            "--k" => cfg.k = take("--k").parse().unwrap_or_else(|_| usage()),
            "--alpha" => cfg.alpha = take("--alpha").parse().unwrap_or_else(|_| usage()),
            "--partitions" => {
                cfg.partitions = take("--partitions").parse().unwrap_or_else(|_| usage())
            }
            "--queries" => {
                cfg.queries_per_interval = take("--queries").parse().unwrap_or_else(|_| usage())
            }
            "--timeout" => {
                cfg.timeout =
                    Duration::from_secs(take("--timeout").parse().unwrap_or_else(|_| usage()))
            }
            "--seed" => cfg.seed = take("--seed").parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            cmd if !cmd.starts_with('-') => cmds.push(cmd.to_string()),
            _ => usage(),
        }
    }
    if cmds.is_empty() {
        usage();
    }
    (cmds, cfg)
}

fn main() {
    let (cmds, cfg) = parse_args();
    let all = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "silkmoth",
        "ablation",
        "token_cache",
    ];
    let selected: Vec<&str> = if cmds.iter().any(|c| c == "all") {
        all.to_vec()
    } else {
        cmds.iter().map(|s| s.as_str()).collect()
    };
    println!(
        "koios harness — scale {}, k {}, alpha {}, partitions {}, {} queries/interval, {}s timeout\n",
        cfg.scale,
        cfg.k,
        cfg.alpha,
        cfg.partitions,
        cfg.queries_per_interval,
        cfg.timeout.as_secs()
    );
    for cmd in selected {
        let t0 = std::time::Instant::now();
        let out = match cmd {
            "table1" => experiments::table1(&cfg),
            "table2" => experiments::table2(&cfg),
            "table3" => experiments::table3(&cfg),
            "table4" => experiments::table4(&cfg),
            "table5" => experiments::table5(&cfg),
            "fig5" => experiments::fig5(&cfg),
            "fig6" => experiments::fig6(&cfg),
            "fig7" => experiments::fig7(&cfg),
            "fig8" => experiments::fig8(&cfg),
            "silkmoth" => experiments::silkmoth(&cfg),
            "ablation" => experiments::ablation(&cfg),
            "token_cache" => experiments::token_cache(&cfg),
            other => {
                eprintln!("unknown experiment: {other}");
                usage()
            }
        };
        println!("{out}");
        println!("[{cmd} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}
