//! cs-snap resume-exactness: running to cycle N, snapshotting, and
//! continuing — or restoring and re-running — must be indistinguishable
//! from an uninterrupted run, for every security mode. The comparison is
//! byte-level on the canonical `snap::report_json` serialization, so any
//! un-captured state (RNG streams, SEFE slots, CEASER keys, predictor
//! tables, watchdog progress) that changes a single counter fails loudly.
//!
//! Seeds come from a SplitMix64 stream (the repo's hermetic-test
//! convention): deterministic, no `rand` dependency.

use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, Simulator};
use cleanupspec::snap::{self, CheckpointKey};
use cleanupspec_core::system::RunLimits;
use cleanupspec_mem::rng::SplitMix64;
use cleanupspec_obs::{RingSink, Shared};
use cleanupspec_workloads::micro::mispredict_storm;
use cleanupspec_workloads::spec::spec_workload;

const INSTS: u64 = 3_000;
/// The unlearnable-branch storm input (`micro::mispredict_storm`).
const STORM: &str = "mispredict_storm";
const WORKLOADS: [&str; 3] = ["gcc", "mcf", STORM];

fn build_sim(mode: SecurityMode, workload: &str, seed: u64) -> Simulator {
    let program = if workload == STORM {
        mispredict_storm(400, 3, seed)
    } else {
        spec_workload(workload).expect("known workload").build(seed)
    };
    SimBuilder::new(mode).program(program).seed(seed).build()
}

/// Cycles to checkpoint at. The SPEC-like workloads use three mid-run
/// points. The storm uses the cycle that ends with a squash, past a third
/// of the run: the snapshot then carries the squashed instructions'
/// stale completion-queue entries, whose seqs dispatch reuses next.
fn fork_points(mode: SecurityMode, workload: &str, seed: u64, total_cycles: u64) -> Vec<u64> {
    if workload != STORM {
        return [3u64, 2, 4].map(|frac| total_cycles / frac).to_vec();
    }
    let mut probe = build_sim(mode, workload, seed);
    let mut squashes = 0;
    for at in 1..total_cycles {
        probe.run(RunLimits {
            max_cycles: at,
            ..full_limits()
        });
        let now = probe.core_stats(0).squashes;
        if now > squashes && at >= total_cycles / 3 {
            return vec![at];
        }
        squashes = now;
    }
    panic!(
        "{mode}/{workload}: no squash after cycle {}",
        total_cycles / 3
    );
}

/// The limits `Simulator::run_insts(INSTS)` uses, reproduced so the
/// interrupted run can finish under identical absolute bounds.
fn full_limits() -> RunLimits {
    RunLimits {
        max_cycles: 400 * INSTS + 1_000_000,
        max_insts_per_core: INSTS,
        ..RunLimits::default()
    }
}

/// snapshot-at-N / continue and snapshot-at-N / restore / re-run must
/// both reproduce the uninterrupted report byte-for-byte, for every
/// mode, across seeds and several mid-run checkpoint points.
#[test]
fn resume_is_bit_exact_for_every_mode() {
    let mut rng = SplitMix64::new(0xC55A_AB20_19AB);
    for mode in SecurityMode::ALL {
        for workload in WORKLOADS {
            let seed = rng.next_u64();
            let mut base = build_sim(mode, workload, seed);
            base.run_insts(INSTS);
            let expect = snap::report_json(&base.report());
            let total_cycles = base.report().cycles;
            assert!(
                total_cycles > 100,
                "{mode}/{workload}: run too short to interrupt"
            );

            // With per-workload squash rates in the hundreds the mid-run
            // points land inside squash/cleanup windows routinely; the
            // storm's point lands right after one by construction.
            for at in fork_points(mode, workload, seed, total_cycles) {
                let mut sim = build_sim(mode, workload, seed);
                sim.run(RunLimits {
                    max_cycles: at,
                    ..full_limits()
                });
                let snap_state = sim.snapshot();
                assert_eq!(snap_state.mode(), mode);

                // Taking a snapshot must not perturb the run.
                sim.run(full_limits());
                let continued = snap::report_json(&sim.report());
                assert_eq!(
                    continued, expect,
                    "{mode}/{workload} seed {seed:#x}: continue after snapshot at cycle {at} diverged"
                );

                // Rewinding to the checkpoint and re-running the tail must
                // land on the identical report again.
                sim.restore(&snap_state);
                sim.run(full_limits());
                let restored = snap::report_json(&sim.report());
                assert_eq!(
                    restored, expect,
                    "{mode}/{workload} seed {seed:#x}: restore+rerun from cycle {at} diverged"
                );
            }
        }
    }
}

/// The interrupted run's event stream (minus the snapshot markers
/// themselves) must match the uninterrupted run's byte-for-byte.
#[test]
fn event_stream_is_bit_exact_across_snapshot() {
    let mode = SecurityMode::CleanupSpec;
    let seed = SplitMix64::new(0xEE_2019).next_u64();
    let capacity = 1 << 20;

    let dump_of = |sim: &mut Simulator, interrupt_at: Option<u64>| {
        let ring = Shared::new(RingSink::new(capacity));
        sim.set_sinks(vec![Box::new(ring.clone())]);
        if let Some(at) = interrupt_at {
            sim.run(RunLimits {
                max_cycles: at,
                ..full_limits()
            });
            let _ = sim.snapshot();
        }
        sim.run(full_limits());
        sim.finish_observer();
        let dump = ring.with(|r| {
            assert_eq!(r.dropped(), 0, "ring too small for byte-exact comparison");
            r.dump()
        });
        dump.lines()
            .filter(|l| !l.contains("snapshot-taken") && !l.contains("snapshot-restored"))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let mut base = build_sim(mode, "gcc", seed);
    let expect = dump_of(&mut base, None);
    let mid = base.report().cycles / 2;

    let mut interrupted = build_sim(mode, "gcc", seed);
    let got = dump_of(&mut interrupted, Some(mid));
    assert_eq!(
        got, expect,
        "event stream changed across a snapshot at cycle {mid}"
    );
}

/// cs-snap-v1 serialization roundtrip at integration level: a real
/// workload report survives write → parse → re-serialize unchanged, for
/// a randomized and a non-randomized mode.
#[test]
fn serialized_checkpoint_roundtrips_real_reports() {
    let mut rng = SplitMix64::new(0x5E41_2019);
    for mode in [SecurityMode::NonSecure, SecurityMode::CleanupSpec] {
        let seed = rng.next_u64();
        let mut sim = build_sim(mode, "astar", seed);
        sim.run_insts(INSTS);
        let report = sim.report();
        let key = CheckpointKey {
            workload: "astar".into(),
            mode,
            insts: INSTS,
            seed,
            warmup: 0,
        };
        let text = snap::write_checkpoint(&key, &report).expect("successful runs are cacheable");
        let back = snap::read_checkpoint(&text, &key).expect("own output must parse");
        assert_eq!(snap::report_json(&report), snap::report_json(&back));
    }
}
