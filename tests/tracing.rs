//! Tests of the event-bus ring buffer against a known attack timeline.

use cleanupspec::prelude::*;
use cleanupspec_obs::{RingSink, Shared, SimEvent};
use cleanupspec_suite::workloads::attacks::{meltdown_program, MeltdownConfig};

fn run_meltdown(mode: SecurityMode, ring: Option<Shared<RingSink>>) -> Simulator {
    let mut b = SimBuilder::new(mode).program(meltdown_program(&MeltdownConfig::default()));
    if let Some(ring) = ring {
        b = b.sink(Box::new(ring));
    }
    let mut sim = b.build();
    sim.run(RunLimits {
        max_cycles: 200_000,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    });
    sim.finish_observer();
    sim
}

#[test]
fn trace_captures_meltdown_timeline() {
    let ring = Shared::new(RingSink::new(1 << 16));
    run_meltdown(SecurityMode::CleanupSpec, Some(ring.clone()));
    let records = ring.with(|r| r.to_vec());
    // The secret load and the transient transmission both issued...
    let loads: Vec<_> = records
        .iter()
        .filter(|r| matches!(r.event, SimEvent::LoadIssue { core: 0, .. }))
        .collect();
    assert!(loads.len() >= 2, "secret + transmission loads: {loads:?}");
    // ...a fault was raised...
    assert!(records
        .iter()
        .any(|r| matches!(r.event, SimEvent::Fault { core: 0, .. })));
    // ...and the timeline is cycle-monotonic.
    assert!(records.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    // The dump is renderable and mentions the fault.
    let dump = ring.with(|r| r.dump());
    assert!(dump.contains("] fault"), "{dump}");
    assert!(dump.contains("] dispatch"), "{dump}");
}

#[test]
fn trace_disabled_by_default_and_bounded_when_on() {
    let sim = run_meltdown(SecurityMode::NonSecure, None);
    assert!(!sim.observer().is_enabled());
    let ring = Shared::new(RingSink::new(4));
    run_meltdown(SecurityMode::NonSecure, Some(ring.clone()));
    let (retained, total) = ring.with(|r| (r.events().count(), r.total_recorded()));
    assert!(retained <= 4, "ring buffer bound respected");
    assert!(total > 4, "more events happened than retained");
}
