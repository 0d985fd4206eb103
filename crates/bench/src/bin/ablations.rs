//! Ablation study (beyond the paper's tables): slowdown of every
//! implemented mode vs the non-secure baseline, including
//!
//! * the invalidate-only strawman (Section 2.4.1) — fast but insecure;
//! * the delay-on-miss family (Section 7.3.2);
//! * the delay-everything family (NDA/SpecShield-like);
//! * CleanupSpec with a constant-time cleanup stall (the paper's stated
//!   future work in Section 4b).

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::fmt::{geomean, slowdown_pct, table};
use cleanupspec_bench::runner::ExperimentConfig;
use cleanupspec_bench::Sweep;

fn main() {
    let cfg = ExperimentConfig::default();
    println!("== Ablations: every mode vs non-secure ==");
    println!("   {} instructions per workload\n", cfg.insts);
    // One sweep over the full mode x workload matrix: the executor
    // balances all of it instead of |ALL| serial per-mode passes.
    let sweep = Sweep::new().modes(&SecurityMode::ALL).config(&cfg).run();
    sweep.warn_if_incomplete();
    let base = &sweep.mode(SecurityMode::NonSecure).expect("baseline").runs;
    let mut rows = Vec::new();
    for mode in SecurityMode::ALL {
        if mode == SecurityMode::NonSecure {
            continue;
        }
        let rs = &sweep.mode(mode).expect("swept mode").runs;
        let factors: Vec<f64> = base
            .iter()
            .zip(rs.iter())
            .map(|(b, r)| r.report.slowdown_vs(&b.report))
            .collect();
        rows.push(vec![
            mode.name().to_string(),
            slowdown_pct(geomean(&factors)),
            if mode.defends_install_channel() {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
            if mode.defends_eviction_channel() {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    println!(
        "{}",
        table(&["mode", "slowdown", "stops F+R", "stops P+P"], &rows)
    );
    println!("\nTakeaways: invalidate-only is as fast as full CleanupSpec but");
    println!("leaves Prime+Probe open; delay-on-miss defends both channels at");
    println!("a moderate cost; the constant-time cleanup variant trades a");
    println!("fixed stall per squash for closing the cleanup-duration channel.");
}
