//! `cs-chaos` — systematic fault injection against the CleanupSpec engine.
//!
//! ```sh
//! cs-chaos --matrix                         # fault-detection matrix, all 8 classes
//! cs-chaos --matrix --max-seeds 128         # widen the per-fault seed scan
//! cs-chaos --list-faults                    # print the fault taxonomy
//! cs-chaos --fault drop-sefe-entry --seeds 32 --artifacts out/  # one-fault campaign
//! cs-chaos --seeds 64 --panic-at 7 --artifacts out/  # crash-isolation self-test
//! cs-chaos --replay 0x2a --fault double-undo # probe one seed verbosely
//! ```
//!
//! The matrix drives every [`FaultKind`] until it fires and is flagged by
//! at least one detector (the three cs-smith oracles, the forward-progress
//! watchdog, or the dual-run victim witness). Exit status: 0 when the
//! mode's expectation holds (matrix: all faults detected; fault campaign:
//! at least one seed flagged; clean campaign: no violations and — with
//! `--panic-at` — the planted panic isolated), 1 otherwise, 2 usage.

use cleanupspec_bench::chaos::{
    detection_matrix, probe_fault, render_matrix, run_chaos_campaign, ChaosOpts,
};
use cleanupspec_bench::cli::{parse_u64, CommonCli};
use cleanupspec_mem::fault::FaultKind;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    matrix: bool,
    list_faults: bool,
    fault: Option<FaultKind>,
    seeds: u64,
    start: u64,
    max_seeds: u64,
    replay: Option<u64>,
    artifacts: Option<PathBuf>,
    shrink: bool,
    panic_at: Option<u64>,
    resume: Option<PathBuf>,
}

fn common_cli() -> CommonCli {
    CommonCli::new().with_seeds().with_start().with_resume()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cs-chaos --matrix [--start N] [--max-seeds N]\n\
         \x20      cs-chaos --list-faults\n\
         \x20      cs-chaos [--fault NAME] [--seeds N] [--start N] [--artifacts DIR]\n\
         \x20               [--shrink] [--panic-at SEED] [--resume DIR]\n\
         \x20      cs-chaos --replay SEED [--fault NAME]"
    );
    eprintln!("{}", common_cli().help());
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut common = common_cli();
    let mut args = Args {
        matrix: false,
        list_faults: false,
        fault: None,
        seeds: 32,
        start: 0,
        max_seeds: 256,
        replay: None,
        artifacts: None,
        shrink: false,
        panic_at: None,
        resume: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match common.accept(a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("cs-chaos: {e}");
                return Err(usage());
            }
        }
        match a.as_str() {
            "--matrix" => args.matrix = true,
            "--list-faults" => args.list_faults = true,
            "--shrink" => args.shrink = true,
            "--fault" => match it.next().and_then(|v| FaultKind::parse(v)) {
                Some(k) => args.fault = Some(k),
                None => {
                    eprintln!("unknown fault; try --list-faults");
                    return Err(usage());
                }
            },
            "--max-seeds" => match it.next().and_then(|v| parse_u64(v)) {
                Some(n) => args.max_seeds = n,
                None => return Err(usage()),
            },
            "--replay" => match it.next().and_then(|v| parse_u64(v)) {
                Some(n) => args.replay = Some(n),
                None => return Err(usage()),
            },
            "--panic-at" => match it.next().and_then(|v| parse_u64(v)) {
                Some(n) => args.panic_at = Some(n),
                None => return Err(usage()),
            },
            "--artifacts" => match it.next() {
                Some(p) => args.artifacts = Some(PathBuf::from(p)),
                None => return Err(usage()),
            },
            _ => return Err(usage()),
        }
    }
    args.seeds = common.seeds_or(32);
    args.start = common.start_or_default();
    args.resume = common.resume;
    Ok(args)
}

fn list_faults() -> ExitCode {
    println!("{:<30} description", "fault");
    for k in FaultKind::ALL {
        println!("{:<30} {}", k.name(), k.description());
    }
    ExitCode::SUCCESS
}

fn matrix(args: &Args) -> ExitCode {
    let rows = detection_matrix(args.start, args.max_seeds);
    print!("{}", render_matrix(&rows));
    if rows.iter().all(|r| r.detected()) {
        println!("every fault class is caught by at least one detector");
        ExitCode::SUCCESS
    } else {
        for r in rows.iter().filter(|r| !r.detected()) {
            eprintln!(
                "UNDETECTED: {} survived {} seed(s) — a real bug of this class would ship",
                r.kind.name(),
                r.seeds_scanned
            );
        }
        ExitCode::FAILURE
    }
}

fn replay(seed: u64, fault: Option<FaultKind>) -> ExitCode {
    match fault {
        Some(kind) => {
            let p = probe_fault(kind, seed);
            println!(
                "seed {seed:#x} fault {}: {} opportunit(ies), {} fire(s)",
                kind.name(),
                p.opportunities,
                p.fires
            );
            for v in &p.violations {
                println!("  {v}");
            }
            if p.detected() {
                println!("DETECTED by: {}", p.detectors.join(", "));
                ExitCode::SUCCESS
            } else if p.fires == 0 {
                println!("fault never fired on this seed (try another)");
                ExitCode::FAILURE
            } else {
                println!("NOT DETECTED");
                ExitCode::FAILURE
            }
        }
        None => match cleanupspec_bench::run_seed(seed) {
            cleanupspec_bench::SeedVerdict::Pass { squashes } => {
                println!("seed {seed:#x}: PASS ({squashes} squashes)");
                ExitCode::SUCCESS
            }
            cleanupspec_bench::SeedVerdict::Fail(vs) => {
                for v in &vs {
                    println!("FAIL {v}");
                }
                ExitCode::FAILURE
            }
        },
    }
}

fn campaign(args: &Args) -> ExitCode {
    let opts = ChaosOpts {
        start: args.start,
        count: args.seeds,
        fault: args.fault,
        artifact_dir: args.artifacts.clone(),
        shrink: args.shrink,
        panic_at: args.panic_at,
        resume_dir: args.resume.clone(),
    };
    // Resume preflight: surface a journal/campaign mismatch as a clear
    // error before any seed runs, not as a mid-run warning.
    if let Some(dir) = &args.resume {
        match cleanupspec_bench::journal::check_resume(dir, &opts.journal_header()) {
            Ok(done) => eprintln!(
                "cs-chaos: resuming from {} ({done} completed seed(s) journaled)",
                dir.display()
            ),
            Err(e) => {
                eprintln!("cs-chaos: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let sum = run_chaos_campaign(&opts);
    // Resume accounting goes to stderr: stdout must stay byte-identical
    // to an uninterrupted campaign.
    if sum.resumed > 0 {
        eprintln!(
            "cs-chaos: {} of {} seed(s) replayed from the campaign journal",
            sum.resumed, sum.seeds
        );
    }
    println!(
        "cs-chaos: {} seed(s), {} pass, {} fail, {} panic(s){}",
        sum.seeds,
        sum.passes,
        sum.failures,
        sum.panics,
        args.fault
            .map(|k| format!(" [fault: {}]", k.name()))
            .unwrap_or_default()
    );
    for line in &sum.triage {
        println!("  {line}");
    }
    for a in &sum.artifacts {
        println!("  artifacts: {}", a.display());
    }
    if let Some(seed) = args.panic_at {
        // Isolation self-test: the planted panic must be *recorded*, and
        // the campaign must have run every seed after it.
        let isolated = sum.panics >= 1 && sum.seeds == args.seeds;
        let artifact_ok = args.artifacts.is_none() || !sum.artifacts.is_empty();
        if isolated && artifact_ok {
            println!("planted panic at seed {seed:#x} was isolated and recorded");
            return ExitCode::SUCCESS;
        }
        eprintln!("planted panic at seed {seed:#x} was NOT handled (isolation broken)");
        return ExitCode::FAILURE;
    }
    match args.fault {
        // A fault campaign succeeds when the oracles caught the fault
        // somewhere (witness-only faults are a matrix concern).
        Some(_) => {
            if sum.failures > 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("fault was never flagged — oracles may be toothless for it");
                ExitCode::FAILURE
            }
        }
        // A clean campaign succeeds when nothing failed or crashed.
        None => {
            if sum.failures == 0 && sum.panics == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(c) => return c,
    };
    if args.list_faults {
        return list_faults();
    }
    if args.matrix {
        return matrix(&args);
    }
    if let Some(seed) = args.replay {
        return replay(seed, args.fault);
    }
    campaign(&args)
}
