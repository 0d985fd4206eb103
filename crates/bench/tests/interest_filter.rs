//! Interest filtering is invisible to the verdict sinks.
//!
//! The observer hands a sink only the event kinds it declared through
//! `EventSink::interest`. This test captures complete event streams with
//! an all-kinds sink — a mispredict storm under CleanupSpec and the
//! insecure baseline, and cs-smith seeds under every fuzzed mode — then
//! replays each stream into the leakage audit, the episode ledger and the
//! commit log twice: once with every event, once through a filtering
//! `Observer`. The audit reports, episode reports and commit logs must be
//! identical.

use cleanupspec::{SecurityMode, SimBuilder};
use cleanupspec_bench::fuzz::{fuzz_mem_config, FUZZ_MODES};
use cleanupspec_core::pipeline::CoreConfig;
use cleanupspec_core::system::{RunLimits, System};
use cleanupspec_mem::hierarchy::MemHierarchy;
use cleanupspec_obs::{
    AuditReport, CommitEntry, CommitLogSink, EpisodeBuilder, EpisodeReport, EventSink,
    LeakageAuditSink, Observer, Shared, SimEvent,
};
use cleanupspec_workloads::micro::mispredict_storm;
use cleanupspec_workloads::smith::{assemble_plan, plan};
use std::sync::Arc;

/// Post-run memory-only drain, as the cs-smith harness does.
const DRAIN_CYCLES: u64 = 4_000;

/// Keeps every event (default interest: all kinds).
#[derive(Default)]
struct Capture(Vec<(u64, SimEvent)>);

impl EventSink for Capture {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        self.0.push((cycle, *event));
    }
}

type Stream = Vec<(u64, SimEvent)>;

#[derive(Debug, PartialEq)]
struct Verdicts {
    audit: AuditReport,
    episodes: EpisodeReport,
    commits: Vec<Vec<CommitEntry>>,
}

fn verdicts(audit: &LeakageAuditSink, episodes: &EpisodeBuilder, log: &CommitLogSink) -> Verdicts {
    Verdicts {
        audit: audit.report(),
        episodes: episodes.report(),
        commits: (0..log.cores()).map(|i| log.stream(i).to_vec()).collect(),
    }
}

/// Every event straight into `record`, bypassing the observer.
fn unfiltered(stream: &Stream) -> Verdicts {
    let mut audit = LeakageAuditSink::new();
    let mut episodes = EpisodeBuilder::new();
    let mut log = CommitLogSink::new();
    for (cycle, e) in stream {
        audit.record(*cycle, e);
        episodes.record(*cycle, e);
        log.record(*cycle, e);
    }
    verdicts(&audit, &episodes, &log)
}

/// Every event through an observer that filters by declared interest.
fn filtered(stream: &Stream) -> Verdicts {
    let audit = Shared::new(LeakageAuditSink::new());
    let episodes = Shared::new(EpisodeBuilder::new());
    let log = Shared::new(CommitLogSink::new());
    let obs = Observer::new(vec![
        Box::new(audit.clone()),
        Box::new(episodes.clone()),
        Box::new(log.clone()),
    ]);
    for (cycle, e) in stream {
        obs.emit(*cycle, *e);
    }
    audit.with(|a| episodes.with(|ep| log.with(|l| verdicts(a, ep, l))))
}

/// Replays `stream` both ways and requires identical verdicts. Returns
/// how many events no verdict sink reads (the filter's saving).
fn check(label: &str, stream: &Stream) -> usize {
    assert!(!stream.is_empty(), "{label}: empty stream");
    let (all, some) = (unfiltered(stream), filtered(stream));
    assert_eq!(all, some, "{label}: interest filtering changed a verdict");
    let read = [
        LeakageAuditSink::new().interest(),
        EpisodeBuilder::new().interest(),
        CommitLogSink::new().interest(),
    ]
    .into_iter()
    .reduce(|a, b| a.union(b))
    .expect("three masks");
    stream.iter().filter(|(_, e)| !read.wants(e)).count()
}

fn storm_stream(mode: SecurityMode) -> Stream {
    let capture = Shared::new(Capture::default());
    let mut sim = SimBuilder::new(mode)
        .program(mispredict_storm(400, 3, 7))
        .sink(Box::new(capture.clone()))
        .build();
    sim.run_to_completion();
    sim.drain(DRAIN_CYCLES);
    capture.with(|c| std::mem::take(&mut c.0))
}

/// One cs-smith seed under `mode`, built the way the fuzz harness builds
/// it, with its run and post-halt drain captured in full.
fn smith_stream(seed: u64, mode: SecurityMode) -> Stream {
    let progs: Vec<_> = assemble_plan(&plan(seed))
        .into_iter()
        .map(Arc::new)
        .collect();
    let mem = MemHierarchy::new(mode.apply_mem_config(fuzz_mem_config(progs.len(), seed)));
    let schemes = (0..progs.len()).map(|_| mode.build_scheme()).collect();
    let mut sys = System::new(mem, CoreConfig::default(), schemes, progs);
    let capture = Shared::new(Capture::default());
    sys.set_observer(Observer::single(Box::new(capture.clone())));
    sys.run(RunLimits {
        max_cycles: 2_000_000,
        ..RunLimits::default()
    });
    sys.tick_mem_only_until(sys.now() + DRAIN_CYCLES);
    capture.with(|c| std::mem::take(&mut c.0))
}

#[test]
fn storm_verdicts_survive_filtering() {
    for mode in [SecurityMode::CleanupSpec, SecurityMode::NonSecure] {
        let stream = storm_stream(mode);
        let skipped = check(&format!("storm/{}", mode.name()), &stream);
        assert!(
            skipped > 0,
            "{}: every event was read, so the filter was not exercised",
            mode.name()
        );
    }
}

#[test]
fn smith_verdicts_survive_filtering() {
    for seed in 0..48 {
        for mode in FUZZ_MODES {
            check(
                &format!("smith seed {seed}/{}", mode.name()),
                &smith_stream(seed, mode),
            );
        }
    }
}
