//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress and failed checks on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero when an output check fails.
//!
//! `--print-expected` instead runs one untraced round and prints the
//! outputs to record in `src/expected.rs` for that seed.

use perfbench::{RunConfig, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <spec-roi|storm-audit|smith-campaign> \
                     --seed <n> --seconds <s> --trace <0|1> [--print-expected]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_expected: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut print_expected = false;
    while let Some(flag) = it.next() {
        if flag == "--print-expected" {
            print_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected an integer"))?;
                if s == 0 {
                    return Err(bad("must be at least 1"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        print_expected,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig::new(args.workload, args.seed, args.seconds as f64, args.trace);
    if args.print_expected {
        return match perfbench::record(&cfg) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cfg.expected.is_none() {
        eprintln!(
            "perfbench: no recorded outputs for seed {}; checking self-consistency only",
            cfg.seed
        );
    }
    let out = perfbench::run(&cfg);
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
