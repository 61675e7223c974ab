//! `gqlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then one JSON result line. Exits 1 (and
//! prints no result) when the correctness gate trips, 2 on bad usage.

use std::path::PathBuf;
use std::process::ExitCode;

use gqlbench::workload::{Scale, Workload};
use gqlbench::{run, Options};

const USAGE: &str = "usage: gqlbench --workload <interactive|thesis-mine|routed> --seed <n> \
--seconds <s> --trace <0|1> [--scale full|kick] [--work-dir <dir>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Interactive,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        work_dir: PathBuf::from(".gqlbench-work"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad value for {flag}: {value}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                }
            }
            "--scale" => {
                opts.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "kick" => Scale::Kick,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                }
            }
            "--work-dir" => opts.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("gqlbench: {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }
    match run(&opts) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gqlbench: FAILED, no result posted:\n{e}");
            ExitCode::FAILURE
        }
    }
}
