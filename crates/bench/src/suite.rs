//! The cs-bench suite as a library: run a workload×mode matrix on the
//! shared `cs-exec` executor (optionally with shared warmup
//! snapshots) and assemble the schema-versioned [`BenchReport`].
//!
//! Living in the library rather than the `cs-bench` binary lets
//! `tests/exec_invariance.rs` build the full BENCH document in-process
//! at several thread counts and assert byte-identity; the binary is a
//! thin CLI over [`run_suite`].

use crate::bench_report::{BenchReport, ModeSection};
use crate::exec::{run_indexed, ExecConfig, ExecStats};
use crate::journal::{Journal, JournalHeader};
use crate::runner::{
    checkpoint_key, load_checkpoint, store_checkpoint, warmup_insts, ExperimentConfig,
};
use crate::store::{ArtifactStore, DirStore};
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, SimReport};
use cleanupspec_mem::MemConfig;
use cleanupspec_obs::{MetricsRegistry, RingSink, Shared};
use cleanupspec_workloads::spec::{SpecWorkload, SPEC_WORKLOADS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// CI-sized subset: one workload per behavior class (high-MLP, memory
/// bound, squash heavy, compute bound, mixed).
pub const SMOKE_WORKLOADS: [&str; 5] = ["gcc", "mcf", "lbm", "astar", "milc"];

/// Resolves [`SMOKE_WORKLOADS`] to their Table-3 definitions.
pub fn smoke_workloads() -> Vec<SpecWorkload> {
    SPEC_WORKLOADS
        .iter()
        .filter(|w| SMOKE_WORKLOADS.contains(&w.name))
        .copied()
        .collect()
}

/// One row of a mode sweep: (workload name, report, wall seconds, events
/// recorded, events dropped).
pub type RunRow = (String, SimReport, f64, u64, u64);

/// Where an unshared matrix cell's report came from.
enum RunSource {
    /// Simulated in this process.
    Fresh,
    /// Served from the cs-snap checkpoint cache.
    Checkpoint,
    /// Replayed from the campaign journal (resume).
    Journal,
}

/// Prints the standard early-stop warning for a truncated report.
fn warn_if_truncated(name: &str, mode: SecurityMode, report: &SimReport) {
    if let Some(stop) = report.stop.as_ref().filter(|s| !s.is_success()) {
        eprintln!(
            "warning: {name} under {} stopped early ({stop}); report is truncated",
            mode.name()
        );
    }
}

/// One workload×mode run with an events ring attached, timed on the host
/// wall clock. Returns (report, wall_secs, events_recorded,
/// events_dropped, served_from_checkpoint). A checkpoint hit skips the
/// simulation entirely, so its wall time is the file read and its event
/// counts are zero.
pub fn run_one(
    w: &SpecWorkload,
    mode: SecurityMode,
    cfg: &ExperimentConfig,
    ring_capacity: usize,
    checkpoint_dir: Option<&Path>,
) -> (SimReport, f64, u64, u64, bool) {
    let key = checkpoint_key(w, mode, cfg);
    if let Some(dir) = checkpoint_dir {
        let start = Instant::now();
        if let Some(report) = load_checkpoint(dir, &key) {
            return (report, start.elapsed().as_secs_f64(), 0, 0, true);
        }
    }
    let seed = cfg.seed ^ cleanupspec_mem::rng::mix_str(w.name);
    let ring = Shared::new(RingSink::new(ring_capacity));
    let mut sim = SimBuilder::new(mode)
        .program(w.build(seed))
        .seed(seed)
        .sink(Box::new(ring.clone()))
        .build();
    let start = Instant::now();
    sim.run_with_warmup(warmup_insts(cfg.insts), cfg.insts);
    let wall = start.elapsed().as_secs_f64();
    sim.finish_observer();
    let report = sim.report();
    warn_if_truncated(w.name, mode, &report);
    if let Some(dir) = checkpoint_dir {
        store_checkpoint(dir, &key, &report);
    }
    let (recorded, dropped) = ring.with(|s| (s.total_recorded(), s.dropped()));
    (report, wall, recorded, dropped, false)
}

/// Host-side accounting for `--shared-warmup`.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarmupShareStats {
    /// Warmup phases actually simulated.
    pub warmups_run: u64,
    /// Warmup phases skipped because a class-mate's snapshot was forked.
    pub warmups_saved: u64,
    /// Wall seconds spent inside warmup simulation.
    pub warmup_wall: f64,
}

impl WarmupShareStats {
    fn merge(&mut self, other: WarmupShareStats) {
        self.warmups_run += other.warmups_run;
        self.warmups_saved += other.warmups_saved;
        self.warmup_wall += other.warmup_wall;
    }

    /// Estimated wall seconds saved by forking instead of re-warming.
    pub fn saved_secs_est(&self) -> f64 {
        if self.warmups_run == 0 {
            return 0.0;
        }
        self.warmup_wall / self.warmups_run as f64 * self.warmups_saved as f64
    }
}

/// Runs every mode for one workload, warming once per hardware
/// equivalence class and forking the warmed cs-snap snapshot per mode.
/// Returns one row per mode, in `modes` order.
///
/// Methodology caveat (also in EXPERIMENTS.md): the shared warmup phase
/// executes under the class representative's *scheme*, so modes whose
/// scheme shapes warmup-era cache contents (e.g. InvisiSpec) measure
/// from a slightly different warm state than an unshared run. Results
/// are deterministic and comparable across modes, but not bit-identical
/// to the default protocol — which is why this is opt-in and the CI
/// baseline is recorded without it.
fn run_workload_shared(
    w: &SpecWorkload,
    modes: &[SecurityMode],
    cfg: &ExperimentConfig,
    ring_capacity: usize,
) -> (Vec<RunRow>, WarmupShareStats) {
    let seed = cfg.seed ^ cleanupspec_mem::rng::mix_str(w.name);
    let warmup = warmup_insts(cfg.insts);
    let classes = SecurityMode::mem_config_classes(modes, &MemConfig::default());
    let mut stats = WarmupShareStats::default();
    let mut rows: Vec<(SecurityMode, RunRow)> = Vec::new();
    for class in &classes {
        let rep = class[0];
        let warm_start = Instant::now();
        let mut warm = SimBuilder::new(rep)
            .program(w.build(seed))
            .seed(seed)
            .build();
        let warm_stop = warm.run_insts(warmup);
        stats.warmup_wall += warm_start.elapsed().as_secs_f64();
        stats.warmups_run += 1;
        if !warm_stop.is_success() {
            // A truncated warmup cannot seed forks; fall back to the
            // unshared protocol so each mode reports its own stop reason.
            eprintln!(
                "warning: shared warmup of {} under {} stopped early ({warm_stop}); \
                 falling back to per-mode warmup for this class",
                w.name,
                rep.name()
            );
            for &m in class {
                let (r, wall, rec, drop, _) = run_one(w, m, cfg, ring_capacity, None);
                rows.push((m, (w.name.to_string(), r, wall, rec, drop)));
                stats.warmups_run += 1;
            }
            continue;
        }
        stats.warmups_saved += class.len() as u64 - 1;
        let snap = warm.snapshot();
        for &m in class {
            let ring = Shared::new(RingSink::new(ring_capacity));
            let start = Instant::now();
            let mut fork = snap.fork_for_mode(m);
            fork.set_sinks(vec![Box::new(ring.clone())]);
            fork.run_measure(cfg.insts);
            let wall = start.elapsed().as_secs_f64();
            fork.finish_observer();
            let report = fork.report();
            warn_if_truncated(w.name, m, &report);
            let (rec, drop) = ring.with(|s| (s.total_recorded(), s.dropped()));
            rows.push((m, (w.name.to_string(), report, wall, rec, drop)));
        }
    }
    // Classes interleave the mode order; restore it.
    let ordered = modes
        .iter()
        .map(|m| {
            let i = rows
                .iter()
                .position(|(rm, _)| rm == m)
                .expect("every mode ran exactly once");
            rows.remove(i).1
        })
        .collect();
    (ordered, stats)
}

/// How to run the suite matrix.
#[derive(Clone, Debug)]
pub struct SuiteOptions {
    /// Sizing (insts, seed, threads).
    pub cfg: ExperimentConfig,
    /// Modes to measure. `NonSecure` is forced in (first) as the
    /// slowdown baseline even when omitted.
    pub modes: Vec<SecurityMode>,
    /// Workloads to run.
    pub workloads: Vec<SpecWorkload>,
    /// Event-ring capacity per run.
    pub ring_capacity: usize,
    /// Warm once per hardware class and fork per mode (disables the
    /// checkpoint cache: its key describes the unshared protocol).
    pub shared_warmup: bool,
    /// cs-snap result cache directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Campaign directory holding the crash-safe journal. When set, a
    /// journal is opened (or resumed) there, completed cells are replayed
    /// without re-simulating, and every finished cell is recorded — so a
    /// killed suite can be rerun with the same directory and produce a
    /// byte-identical document. Ignored (with a warning) under
    /// `shared_warmup`, whose snapshot-forking protocol has no journaled
    /// per-cell results.
    pub resume_dir: Option<PathBuf>,
}

impl SuiteOptions {
    /// Suite over `modes`/`workloads` with default sizing, no sharing,
    /// no cache.
    pub fn new(modes: &[SecurityMode], workloads: &[SpecWorkload]) -> Self {
        SuiteOptions {
            cfg: ExperimentConfig::default(),
            modes: modes.to_vec(),
            workloads: workloads.to_vec(),
            ring_capacity: crate::cli::DEFAULT_RING_CAPACITY,
            shared_warmup: false,
            checkpoint_dir: None,
            resume_dir: None,
        }
    }

    /// The journal identity of this suite: everything that determines the
    /// *results* (sizing, modes, workloads) and nothing that only affects
    /// execution (threads, ring capacity), so an interrupted campaign may
    /// resume at a different parallelism.
    pub fn journal_header(&self) -> JournalHeader {
        let mut modes = self.modes.clone();
        modes.retain(|m| *m != SecurityMode::NonSecure);
        modes.insert(0, SecurityMode::NonSecure);
        let mode_names: Vec<&str> = modes.iter().map(|m| m.name()).collect();
        let workload_names: Vec<&str> = self.workloads.iter().map(|w| w.name).collect();
        JournalHeader {
            campaign: "cs-bench-suite".to_string(),
            config: format!(
                "insts={} seed={} warmup={} modes={} workloads={}",
                self.cfg.insts,
                self.cfg.seed,
                warmup_insts(self.cfg.insts),
                mode_names.join(","),
                workload_names.join(",")
            ),
        }
    }
}

/// Everything [`run_suite`] produced beyond the report itself.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// The schema-versioned document (host metrics already recorded).
    pub report: BenchReport,
    /// The modes actually run, baseline first.
    pub modes: Vec<SecurityMode>,
    /// Names of workloads whose simulation panicked, per mode.
    pub failed: Vec<(SecurityMode, String)>,
    /// Runs served from the checkpoint cache.
    pub cache_hits: u64,
    /// Runs replayed from the campaign journal (resume).
    pub resumed: u64,
    /// Shared-warmup accounting (zero when not enabled).
    pub warmup: WarmupShareStats,
    /// Executor counters.
    pub exec: ExecStats,
    /// Total events recorded / dropped across every ring.
    pub events: (u64, u64),
    /// End-to-end wall-clock of the sweep.
    pub wall_secs: f64,
}

/// Runs the whole matrix and assembles the [`BenchReport`].
///
/// The unshared path flattens modes×workloads into **one** task list on
/// the executor (task `i` = mode `i / W`, workload `i % W`), so a slow
/// workload in one mode never holds up another mode's cells. The
/// shared-warmup path parallelizes over workloads (all modes of a
/// workload fork one warm snapshot on the same worker). Either way, rows
/// are regrouped to `[mode][workload]` in input order, so the emitted
/// document is identical at any thread count.
pub fn run_suite(opts: &SuiteOptions) -> SuiteOutcome {
    let cfg = opts.cfg;
    let baseline_mode = SecurityMode::NonSecure;
    let mut modes = opts.modes.clone();
    modes.retain(|m| *m != baseline_mode);
    modes.insert(0, baseline_mode);
    let workloads = &opts.workloads;
    let checkpoint_dir = opts
        .checkpoint_dir
        .as_deref()
        .filter(|_| !opts.shared_warmup);

    // Open (or resume) the campaign journal. A journal that belongs to a
    // different campaign is refused up front by the CLI preflight
    // (`journal::check_resume`); reaching that state through the library
    // degrades to running without a journal rather than mixing results.
    let journal: Option<Journal> = opts.resume_dir.as_deref().and_then(|dir| {
        if opts.shared_warmup {
            eprintln!(
                "warning: --resume is ignored with shared warmup \
                 (the snapshot-forking protocol has no journaled per-cell results)"
            );
            return None;
        }
        let store = std::sync::Arc::new(DirStore::new(dir)) as std::sync::Arc<dyn ArtifactStore>;
        match Journal::open(store, &opts.journal_header()) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("warning: not journaling this campaign: {e}");
                None
            }
        }
    });

    let mut host = MetricsRegistry::new();
    let suite_start = Instant::now();
    let exec_cfg = ExecConfig::with_threads(cfg.threads);

    // Collect rows per mode (same order as `modes`), either by forking
    // shared warm snapshots or by independent per-mode runs.
    let mut warmup = WarmupShareStats::default();
    let mut failed: Vec<(SecurityMode, String)> = Vec::new();
    let mut cache_hits = 0u64;
    let mut resumed = 0u64;
    let (mut mode_rows, exec_stats): (Vec<Vec<RunRow>>, ExecStats) = if opts.shared_warmup {
        // One task per workload: all of its modes fork one warm snapshot.
        let outcome = run_indexed(workloads.len(), &exec_cfg, |wi| {
            run_workload_shared(&workloads[wi], &modes, &cfg, opts.ring_capacity)
        });
        for f in &outcome.failures {
            failed.push((baseline_mode, workloads[f.index].name.to_string()));
        }
        let mut per_workload: Vec<Vec<RunRow>> = Vec::new();
        for slot in outcome.slots.into_iter().flatten() {
            let (rows, s) = slot;
            warmup.merge(s);
            per_workload.push(rows);
        }
        // Transpose [workload][mode] -> [mode][workload].
        let per_mode = (0..modes.len())
            .map(|mi| per_workload.iter().map(|rows| rows[mi].clone()).collect())
            .collect();
        (per_mode, outcome.stats)
    } else {
        // One task per matrix cell: workers claim cells across the whole
        // modes×workloads matrix, not within one mode at a time. With a
        // journal, completed cells replay from it (skipping simulation
        // entirely) and fresh completions are recorded as they land, so a
        // SIGKILL costs only the in-flight cells.
        let nw = workloads.len();
        let journal = journal.as_ref();
        let outcome = run_indexed(modes.len() * nw, &exec_cfg, |i| {
            let (mode, w) = (modes[i / nw], &workloads[i % nw]);
            let task_id = format!("{}/{}", mode.name(), w.name);
            if let Some(payload) = journal.and_then(|j| j.completed(&task_id)) {
                match cleanupspec_obs::JsonValue::parse(&payload)
                    .and_then(|v| cleanupspec::snap::parse_report(&v))
                {
                    Ok(r) => return ((w.name.to_string(), r, 0.0, 0, 0), RunSource::Journal),
                    Err(e) => {
                        eprintln!("warning: re-running {task_id}: journaled result unusable ({e})")
                    }
                }
            }
            let (r, wall, rec, drop, cached) =
                run_one(w, mode, &cfg, opts.ring_capacity, checkpoint_dir);
            if let Some(j) = journal {
                // Only completed (non-truncated) runs are replayable facts.
                if r.stop.as_ref().is_none_or(|s| s.is_success()) {
                    j.record(&task_id, &cleanupspec::snap::report_json(&r));
                }
            }
            let source = if cached {
                RunSource::Checkpoint
            } else {
                RunSource::Fresh
            };
            ((w.name.to_string(), r, wall, rec, drop), source)
        });
        for f in &outcome.failures {
            failed.push((
                modes[f.index / nw],
                workloads[f.index % nw].name.to_string(),
            ));
        }
        let mut slots = outcome.slots.into_iter();
        let per_mode = (0..modes.len())
            .map(|_| {
                (0..nw)
                    .filter_map(|_| slots.next().flatten())
                    .map(|(row, source)| {
                        match source {
                            RunSource::Fresh => {}
                            RunSource::Checkpoint => cache_hits += 1,
                            RunSource::Journal => resumed += 1,
                        }
                        row
                    })
                    .collect()
            })
            .collect();
        (per_mode, outcome.stats)
    };

    for (mode, name) in &failed {
        eprintln!(
            "warning: workload {name} panicked under {} and was dropped from the sweep",
            mode.name()
        );
    }

    // Host-side accounting, in the same shape cs-bench always emitted.
    if opts.shared_warmup {
        host.add_timing("warmup.shared", warmup.warmup_wall);
        host.add("warmup_runs", warmup.warmups_run);
        host.add("warmup_saved_runs", warmup.warmups_saved);
        if warmup.warmups_run > 0 {
            host.set_gauge("warmup_secs_saved_est", warmup.saved_secs_est());
        }
    } else {
        host.add("checkpoint_hits", cache_hits);
        host.add("journal_resumed", resumed);
    }
    for (mi, mode) in modes.iter().enumerate() {
        host.add_timing(
            &format!("mode.{}", mode.name()),
            mode_rows[mi].iter().map(|(_, _, wall, _, _)| wall).sum(),
        );
    }

    // Build sections, pairing each run with its baseline *by name*: a
    // workload that survived only some modes must not shift the
    // positional alignment of everything after it.
    let mut sections: Vec<ModeSection> = Vec::new();
    let mut baseline_named: Vec<(String, SimReport)> = Vec::new();
    let (mut total_insts, mut total_events, mut total_dropped) = (0u64, 0u64, 0u64);
    for (mi, mode) in modes.iter().enumerate() {
        let mut entries = Vec::new();
        for (name, report, wall, recorded, dropped) in mode_rows[mi].drain(..) {
            total_insts += report.total_insts();
            total_events += recorded;
            total_dropped += dropped;
            host.add("workloads_run", 1);
            entries.push((name, report, wall));
        }
        if *mode == baseline_mode {
            baseline_named = entries
                .iter()
                .map(|(n, r, _)| (n.clone(), r.clone()))
                .collect();
        }
        let mut aligned_base = Vec::new();
        entries.retain(
            |(name, _, _)| match baseline_named.iter().find(|(bn, _)| bn == name) {
                Some((_, base)) => {
                    aligned_base.push(base.clone());
                    true
                }
                None => {
                    eprintln!(
                        "warning: dropping {name} under {}: no {} baseline to compare against",
                        mode.name(),
                        baseline_mode.name()
                    );
                    false
                }
            },
        );
        sections.push(ModeSection::build(*mode, entries, &aligned_base));
    }
    let suite_wall = suite_start.elapsed().as_secs_f64();
    host.add_timing("suite", suite_wall);
    host.add("events_recorded", total_events);
    host.add("events_dropped", total_dropped);
    host.set_gauge("ring_capacity", opts.ring_capacity as f64);
    if suite_wall > 0.0 {
        host.set_gauge("sim_kips", total_insts as f64 / 1000.0 / suite_wall);
        host.set_gauge("events_per_sec", total_events as f64 / suite_wall);
    }
    // The pool's own counters land in the same host section.
    exec_stats.record_into(&mut host, "exec");

    let report = BenchReport {
        insts: cfg.insts,
        seed: cfg.seed,
        baseline_mode,
        modes: sections,
        host,
    };
    SuiteOutcome {
        report,
        modes,
        failed,
        cache_hits,
        resumed,
        warmup,
        exec: exec_stats,
        events: (total_events, total_dropped),
        wall_secs: suite_wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> SuiteOptions {
        let mut opts = SuiteOptions::new(&[SecurityMode::CleanupSpec], &SPEC_WORKLOADS[..3]);
        opts.cfg = ExperimentConfig {
            insts: 2_000,
            seed: 11,
            threads: 2,
        };
        opts
    }

    #[test]
    fn baseline_is_forced_in_first() {
        let out = run_suite(&tiny_opts());
        assert_eq!(out.modes[0], SecurityMode::NonSecure);
        assert_eq!(out.report.modes.len(), 2);
        assert_eq!(out.report.modes[0].mode, SecurityMode::NonSecure);
        assert_eq!(out.report.modes[1].mode, SecurityMode::CleanupSpec);
        for section in &out.report.modes {
            assert_eq!(section.entries.len(), 3);
        }
    }

    #[test]
    fn emitted_document_passes_its_own_check() {
        let out = run_suite(&tiny_opts());
        let doc = cleanupspec_obs::JsonValue::parse(&out.report.to_json()).unwrap();
        crate::bench_report::check_document(&doc).unwrap();
    }

    #[test]
    fn exec_counters_reach_the_host_section() {
        let out = run_suite(&tiny_opts());
        // 2 modes x 3 workloads = 6 pool tasks.
        assert_eq!(out.exec.tasks_run, 6);
        assert_eq!(out.report.host.counter("exec.tasks"), 6);
        assert_eq!(out.report.host.counter("workloads_run"), 6);
    }
}
