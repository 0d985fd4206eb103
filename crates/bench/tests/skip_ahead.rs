//! Harness skip-ahead is exact.
//!
//! `System::tick_mem_only_until` advances the memory hierarchy only at
//! cycles where an MSHR entry can be due, plus the target cycle. This test
//! forks a system mid-flight while its MSHRs hold entries due in the
//! future — in every security mode, and once with a fault injected — and
//! drains one copy one cycle at a time and the other with skip-ahead. At
//! every drain checkpoint the two must agree on the cycle, the per-core
//! CPI stacks, the L1/L2 digests, MSHR occupancy, fault fire counters and
//! the recorded event stream. A short resumed run after the drain then
//! checks the state the checkpoints do not show (the watchdog marker).

use cleanupspec::SecurityMode;
use cleanupspec_bench::fuzz::fuzz_mem_config;
use cleanupspec_core::pipeline::CoreConfig;
use cleanupspec_core::stats::CpiStack;
use cleanupspec_core::system::{RunLimits, System};
use cleanupspec_mem::fault::{FaultInjector, FaultKind, FaultPlan};
use cleanupspec_mem::hierarchy::MemHierarchy;
use cleanupspec_mem::types::{Addr, CoreId, Cycle, LineAddr};
use cleanupspec_obs::{Observer, RingSink, Shared};
use cleanupspec_workloads::smith::{assemble_plan, plan};
use std::sync::Arc;

/// Drain checkpoints, in cycles after the fork. The last matches the
/// cs-smith post-halt drain.
const CHECKPOINTS: [Cycle; 6] = [1, 2, 9, 64, 700, 4_000];

/// Fork points taken per run.
const FORKS: usize = 3;

fn build(seed: u64, mode: SecurityMode, faults: Option<&FaultInjector>) -> System {
    let progs: Vec<_> = assemble_plan(&plan(seed))
        .into_iter()
        .map(Arc::new)
        .collect();
    let mut cfg = mode.apply_mem_config(fuzz_mem_config(progs.len(), seed));
    if faults.is_some() {
        cfg.mshrs_per_core = 4;
    }
    let mut mem = MemHierarchy::new(cfg);
    if let Some(f) = faults {
        mem.set_fault_injector(f.clone());
    }
    let schemes = (0..progs.len()).map(|_| mode.build_scheme()).collect();
    System::new(mem, CoreConfig::default(), schemes, progs)
}

/// Everything the two drains must agree on at a checkpoint.
#[derive(Debug, PartialEq)]
struct Observed {
    now: Cycle,
    cpi: Vec<CpiStack>,
    l1: Vec<u64>,
    l2: u64,
    mshr: Vec<usize>,
    fires: Vec<u64>,
    events: String,
}

fn observe(sys: &System, ring: &Shared<RingSink>, faults: &FaultInjector) -> Observed {
    let n = sys.mem().config().num_cores;
    let dmem = sys.dmem();
    let data = |l: LineAddr| dmem.read(Addr::new(l.raw() << 6));
    Observed {
        now: sys.now(),
        cpi: (0..n)
            .map(|i| sys.core_stats(i).cpi_stack.clone())
            .collect(),
        l1: (0..n)
            .map(|i| sys.mem().l1_digest(CoreId(i), data))
            .collect(),
        l2: sys.mem().l2_digest(data),
        mshr: (0..n)
            .map(|i| sys.mem().mshr_occupancy(CoreId(i)))
            .collect(),
        fires: FaultKind::ALL.iter().map(|&k| faults.fires(k)).collect(),
        events: ring.with(|r| format!("{} {}", r.total_recorded(), r.dump())),
    }
}

/// Drains a copy of `fork` through every checkpoint, then resumes the
/// cores briefly. `step` advances it to a target cycle.
fn drain(
    fork: &System,
    faults: &FaultInjector,
    step: impl Fn(&mut System, Cycle),
) -> Vec<Observed> {
    let mut sys = fork.clone();
    let ring = Shared::new(RingSink::new(1 << 20));
    sys.set_observer(Observer::single(Box::new(ring.clone())));
    let start = sys.now();
    let mut seen: Vec<Observed> = CHECKPOINTS
        .iter()
        .map(|&c| {
            step(&mut sys, start + c);
            observe(&sys, &ring, faults)
        })
        .collect();
    sys.run(RunLimits {
        max_cycles: sys.now() + 2_000,
        watchdog: Some(3_000),
        ..RunLimits::default()
    });
    seen.push(observe(&sys, &ring, faults));
    seen
}

/// Runs `seed` under `mode`, forking wherever an MSHR entry is due
/// strictly later than the next cycle, and compares the two drains of
/// each fork. Returns the number of forks taken.
fn compare_drains(seed: u64, mode: SecurityMode, faults: Option<FaultInjector>) -> usize {
    let injector = faults.clone().unwrap_or_else(FaultInjector::disabled);
    let mut sys = build(seed, mode, faults.as_ref());
    let mut forks = 0;
    while forks < FORKS && !sys.all_halted() && sys.now() < 200_000 {
        sys.run(RunLimits {
            max_cycles: sys.now() + 1,
            watchdog: None,
            ..RunLimits::default()
        });
        let due = sys.mem().next_due();
        if due <= sys.now() + 1 || due == Cycle::MAX {
            continue;
        }
        forks += 1;
        let at = injector.counters_snapshot();
        let per_cycle = drain(&sys, &injector, |s, target| {
            while s.now() < target {
                s.tick_mem_only();
            }
        });
        injector.restore_counters(&at);
        let skipped = drain(&sys, &injector, System::tick_mem_only_until);
        injector.restore_counters(&at);
        for (i, (a, b)) in per_cycle.iter().zip(&skipped).enumerate() {
            assert_eq!(
                a,
                b,
                "{} seed {seed}: fork at cycle {} diverged at checkpoint {i}",
                mode.name(),
                sys.now()
            );
        }
        // Space the forks out over the run.
        sys.run(RunLimits {
            max_cycles: sys.now() + 150,
            watchdog: None,
            ..RunLimits::default()
        });
    }
    forks
}

#[test]
fn skip_ahead_matches_per_cycle_drain_in_every_mode() {
    for mode in SecurityMode::ALL {
        let forks: usize = (0..3).map(|seed| compare_drains(seed, mode, None)).sum();
        assert!(forks > 0, "{}: no fork with a future MSHR due", mode.name());
    }
}

#[test]
fn skip_ahead_matches_per_cycle_drain_under_a_leaked_mshr_fault() {
    let faults = FaultInjector::new(FaultPlan::single(FaultKind::LeakMshrSlot));
    let forks = compare_drains(1, SecurityMode::CleanupSpec, Some(faults.clone()));
    assert!(forks > 0, "no fork with a future MSHR due");
    assert!(
        faults.fires(FaultKind::LeakMshrSlot) > 0,
        "the fault never fired"
    );
}
