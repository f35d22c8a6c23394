//! `tbi_bench`: regenerates one table, sweep or artifact of the workspace,
//! or runs the regression gate over the committed `BENCH_*.json` artifacts.
//!
//! ```text
//! cargo run --release -p tbi_bench -- <workload> [flags]
//! cargo run --release -p tbi_bench -- <workload> --help
//! cargo run --release -p tbi_bench -- gate [--bursts <n>] [--workers <n>] [artifact.json ...]
//! ```
//!
//! Exit codes: 2 for a malformed command line, 1 for a failed run, a
//! bit-identity divergence or a gate regression.

use tbi_bench::workload::{run_gate, GATE_ABOUT, GATE_BURSTS, GATE_FLAGS};
use tbi_bench::{HarnessOptions, Workload};

fn usage() -> String {
    let mut out = "usage: tbi_bench <workload> [flags]    (tbi_bench <workload> --help lists its \
                   flags)\n\nworkloads:\n"
        .to_string();
    for workload in Workload::ALL {
        out.push_str(&format!("  {:<16}{}\n", workload.name(), workload.about()));
    }
    out.push_str(&format!("  {:<16}{GATE_ABOUT}", "gate"));
    out
}

fn gate_defaults() -> HarnessOptions {
    HarnessOptions {
        bursts: GATE_BURSTS,
        ..HarnessOptions::new()
    }
}

fn gate_usage() -> String {
    gate_defaults().usage("gate", &format!("Gate: {GATE_ABOUT}."), GATE_FLAGS)
}

/// Parses the arguments of `command`, exiting 2 with its usage on error and
/// 0 after printing it for `--help`.
fn parse_or_exit(
    parsed: Result<HarnessOptions, String>,
    usage: impl Fn() -> String,
) -> HarnessOptions {
    match parsed {
        Ok(options) if options.help => {
            println!("{}", usage());
            std::process::exit(0);
        }
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    if command == "--help" || command == "-h" {
        println!("{}", usage());
        return;
    }
    if command == "gate" {
        let options = parse_or_exit(gate_defaults().parse(GATE_FLAGS, args), gate_usage);
        if run_gate(&options) {
            println!("gate: all artifacts within tolerance");
        } else {
            println!("gate: PERFORMANCE REGRESSION DETECTED");
            std::process::exit(1);
        }
        return;
    }
    let Some(workload) = Workload::parse(&command) else {
        if command.is_empty() {
            eprintln!("error: missing workload");
        } else {
            eprintln!("error: unknown workload `{command}`");
        }
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let options = parse_or_exit(workload.parse_options(args), || workload.usage());
    let document = match workload.run(&options, None) {
        Ok(document) => document,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    };
    for line in &document.table {
        println!("{line}");
    }
    if let Err(message) = workload.write(&document, &options) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
    if document.diverged {
        std::process::exit(1);
    }
}
