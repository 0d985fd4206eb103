//! End-to-end tests of speculation-window protection (Section 3.6): while
//! a transiently installed line is still speculative, another core's
//! access must be serviced as a dummy miss — revealing nothing — and after
//! retirement the same access behaves normally.

use cleanupspec::prelude::*;
use cleanupspec_suite::core_sim::isa::{AluOp, BranchCond, Operand};

/// Victim program: legitimately (correct path, but speculatively at issue)
/// loads `target`, then spins long enough for the attacker to probe while
/// the load is still in the speculation window, then halts.
fn victim(target: u64, spin: u64) -> Program {
    let mut b = ProgramBuilder::new("victim");
    let r_t = Reg(2);
    let r_s = Reg(3);
    let r_i = Reg(4);
    b.movi(r_t, target);
    b.load(r_s, r_t, 0);
    b.movi(r_i, spin);
    let top = b.here();
    b.alu(r_i, AluOp::Sub, Operand::Reg(r_i), Operand::Imm(1));
    b.branch(r_i, BranchCond::NotZero, top);
    b.halt();
    b.build()
}

fn idle() -> Program {
    let mut b = ProgramBuilder::new("idle");
    b.halt();
    b.build()
}

#[test]
fn cross_core_probe_during_window_gets_dummy_miss() {
    let target = 0x0123_4000u64;
    let mut sim = SimBuilder::new(SecurityMode::CleanupSpec)
        .program(victim(target, 5_000))
        .program(idle())
        .seed(9)
        .build();
    // Run until the victim's load has installed (it completes within a few
    // hundred cycles) but is far from retiring... actually it retires
    // quickly; instead install transiently via the hierarchy directly:
    // issue a speculative load from core 0 and probe from core 1 before
    // retirement.
    use cleanupspec_mem::hierarchy::{LoadKind, LoadReq};
    use cleanupspec_mem::types::LoadId;
    let line = Addr::new(target).line();
    let now = sim.system().now();
    let out = sim
        .system_mut()
        .mem_mut()
        .load(
            CoreId(0),
            line,
            now,
            LoadReq {
                load: LoadId(1),
                spec: true,
                allow_downgrade: false,
                kind: LoadKind::Demand,
            },
        )
        .expect("MSHR free");
    sim.drain(out.complete_at - now + 1);
    if let Some(t) = out.token {
        let _ = sim.system_mut().mem_mut().collect(t);
    }
    // Core 1 probes while the install is still speculative.
    let lat_during = sim.probe_load(CoreId(1), Addr::new(target));
    let cfg = sim.mem().config();
    assert_eq!(
        lat_during,
        cfg.l2_effective_rt() + cfg.dram_rt,
        "window protection must service the probe as a full dummy miss"
    );
    assert!(
        sim.mem().l1(CoreId(1)).probe(line).is_none(),
        "a dummy miss leaves no state for the prober"
    );
    // The victim retires the load: the line becomes safe.
    sim.system_mut().mem_mut().retire_load(CoreId(0), line);
    let lat_after = sim.probe_load(CoreId(1), Addr::new(target));
    assert!(
        lat_after < lat_during,
        "after retirement the line is served normally ({lat_after} vs {lat_during})"
    );
}

#[test]
fn same_core_hits_its_own_speculative_line() {
    // The installing core itself must NOT be penalized (Section 3.6 only
    // protects against OTHER threads/cores).
    let target = 0x0222_8000u64;
    let mut sim = SimBuilder::new(SecurityMode::CleanupSpec)
        .program(idle())
        .program(idle())
        .seed(9)
        .build();
    use cleanupspec_mem::hierarchy::{LoadKind, LoadReq};
    use cleanupspec_mem::types::LoadId;
    let line = Addr::new(target).line();
    let now = sim.system().now();
    let out = sim
        .system_mut()
        .mem_mut()
        .load(
            CoreId(0),
            line,
            now,
            LoadReq {
                load: LoadId(1),
                spec: true,
                allow_downgrade: false,
                kind: LoadKind::Demand,
            },
        )
        .expect("MSHR free");
    sim.drain(out.complete_at - now + 1);
    if let Some(t) = out.token {
        let _ = sim.system_mut().mem_mut().collect(t);
    }
    let lat = sim.probe_load(CoreId(0), Addr::new(target));
    assert_eq!(lat, 1, "own speculative line is a normal L1 hit");
}

#[test]
fn window_protection_disabled_on_nonsecure() {
    let target = 0x0333_4000u64;
    let mut sim = SimBuilder::new(SecurityMode::NonSecure)
        .program(victim(target, 200))
        .program(idle())
        .seed(9)
        .build();
    sim.run(RunLimits {
        max_cycles: 100_000,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    });
    sim.drain(500);
    // On the baseline, core 1 sees the line in the shared L2 immediately.
    let lat = sim.probe_load(CoreId(1), Addr::new(target));
    let cfg = sim.mem().config();
    assert!(
        lat <= cfg.l2_effective_rt() + cfg.remote_penalty,
        "baseline probe is served from the hierarchy ({lat})"
    );
}
