//! The repository benchmark: three workloads of the CleanupSpec
//! simulator, measured end to end with tracing off, and layer by layer
//! in a separate traced run. `README.md` in this directory explains the
//! workloads and the metrics.

pub mod expected;
pub mod layers;
pub mod report;
pub mod smith_campaign;
pub mod spec_roi;
pub mod storm_audit;

use report::Outcome;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 19 SPEC-like programs, warmed, sink-free.
    SpecRoi,
    /// The mispredict storm with the leakage audit and episode ledger.
    StormAudit,
    /// A journaled cs-smith fuzzing campaign.
    SmithCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SpecRoi,
        Workload::StormAudit,
        Workload::SmithCampaign,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecRoi => "spec-roi",
            Workload::StormAudit => "storm-audit",
            Workload::SmithCampaign => "smith-campaign",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work each workload does. The recorded expected outputs hold
/// for [`Sizes::FULL`] only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// spec-roi: warmup instructions per program (untimed).
    pub spec_warmup: u64,
    /// spec-roi: measured instructions per program and mode.
    pub spec_measure: u64,
    /// spec-roi: instructions per timed slice (one task).
    pub spec_slice: u64,
    /// storm-audit: storms per mode, each with its own outcome table.
    pub storm_jobs: u64,
    /// storm-audit: loop iterations of each storm.
    pub storm_iters: u64,
    /// storm-audit: instructions per timed slice (one task).
    pub storm_slice: u64,
    /// smith-campaign: seeds per campaign round.
    pub smith_seeds: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        spec_warmup: 20_000,
        spec_measure: 40_000,
        spec_slice: 1_000,
        storm_jobs: 4,
        storm_iters: 3_000,
        storm_slice: 200,
        smith_seeds: 1_000,
    };
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the inputs are a function of it alone.
    pub seed: u64,
    /// Measuring time budget in seconds; at least one round always runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Work sizes.
    pub sizes: Sizes,
    /// Outputs the run must reproduce, when recorded for this seed.
    pub expected: Option<expected::Expected>,
}

impl RunConfig {
    /// A run at [`Sizes::FULL`] checked against the recorded outputs for
    /// `seed`, if there are any.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            sizes: Sizes::FULL,
            expected: expected::recorded(workload, seed),
        }
    }
}

/// Runs one benchmark invocation.
pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::SpecRoi => spec_roi::run(cfg),
        Workload::StormAudit => storm_audit::run(cfg),
        Workload::SmithCampaign => smith_campaign::run(cfg),
    }
}

/// Runs one untraced round and renders its outputs as entries for
/// `expected.rs` (used when a change to the model is meant to move
/// them).
pub fn record(cfg: &RunConfig) -> Result<String, String> {
    match cfg.workload {
        Workload::SpecRoi => spec_roi::record(cfg),
        Workload::StormAudit => storm_audit::record(cfg),
        Workload::SmithCampaign => smith_campaign::record(cfg),
    }
}

/// Loops `round` until `seconds` of wall time have passed since the
/// first round started, running at least `min_rounds` rounds, or until a
/// round returns an error. `round(i)` gets the round index.
pub(crate) fn for_duration(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = std::time::Instant::now();
    let mut i = 0;
    while i < min_rounds || start.elapsed().as_secs_f64() < seconds {
        round(i)?;
        i += 1;
    }
    Ok(())
}

/// The per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("core.tick_self_ns_per_cycle", "ns"),
    ("core.idle_cycle_frac", "ratio"),
    ("core.squashes_pki", "1/kinst"),
    ("mem.advance_ns_per_cycle", "ns"),
    ("mem.mshr_occupancy_mean", "count"),
    ("schemes.issue_load_ns", "ns"),
    ("schemes.issue_load_calls", "count"),
    ("schemes.on_squash_ns", "ns"),
    ("schemes.on_squash_calls", "count"),
    ("schemes.commit_load_ns", "ns"),
    ("schemes.commit_load_calls", "count"),
    ("schemes.hook_share", "ratio"),
    ("schemes.cleanup_ops", "count"),
    ("obs.events", "count"),
    ("obs.sink_share", "ratio"),
    ("obs.record_ns_per_event", "ns"),
    ("obs.record_ns_per_event.audit.non-secure", "ns"),
    ("obs.record_ns_per_event.audit.cleanupspec", "ns"),
    ("obs.record_ns_per_event.episodes.non-secure", "ns"),
    ("obs.record_ns_per_event.episodes.cleanupspec", "ns"),
    ("sim.build_ms", "ms"),
    ("sim.warmup_s", "s"),
    ("workloads.smith_plan_us", "us"),
    ("reference.interpret_us", "us"),
    ("fuzz.mode_run_ms", "ms"),
    ("fuzz.checkpoint_resume_ms", "ms"),
    ("fuzz.violating_seeds", "count"),
    ("exec.utilization", "ratio"),
    ("exec.tasks_stolen", "count"),
    ("exec.max_task_s", "s"),
    ("journal.record_us", "us"),
    ("journal.records", "count"),
    ("store.retries", "count"),
    ("store.degraded_writes", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_share", "ratio"),
    ("trace.residual_share", "ratio"),
    ("trace.untraced_round_s", "s"),
    ("trace.traced_round_s", "s"),
];

/// Each task's best time over the rounds of a run: `rounds[r][i]` is task
/// `i`'s time in round `r`. Every round runs the same tasks, so the best
/// time is the task's cost with the least interference from whatever
/// else shares the host; rounds that did not finish every task are
/// skipped.
pub(crate) fn best_of(rounds: &[Vec<f64>]) -> Vec<f64> {
    let n = rounds.iter().map(Vec::len).max().unwrap_or(0);
    let full = rounds.iter().filter(|r| r.len() == n);
    full.fold(vec![f64::INFINITY; n], |best, r| {
        best.iter().zip(r).map(|(b, t)| b.min(*t)).collect()
    })
}

/// Emits the end-to-end metrics of a run whose rounds each do `insts`
/// simulated instructions in `task_ms.len()` tasks: `round_s` is the
/// round's time when every task takes its best time, `task_ms` the best
/// task times (ms), and `setup_s` the set-up repetitions, of which the
/// median is reported.
pub(crate) fn end_to_end(
    out: &mut Outcome,
    insts: f64,
    round_s: f64,
    task_ms: &[f64],
    setup_s: &[f64],
) {
    use report::{median, quantile, ratio};
    out.metric("sim_kips", ratio(insts / 1e3, round_s), "kinst/s");
    out.metric("tasks_per_s", ratio(task_ms.len() as f64, round_s), "1/s");
    out.metric("task_p50_ms", median(task_ms), "ms");
    out.metric("task_p99_ms", quantile(task_ms, 0.99), "ms");
    out.metric("setup_s", median(setup_s), "s");
    out.metric("peak_rss_mib", report::peak_rss_mib(), "MiB");
}

/// Emits, as 0, every per-layer metric the traced run did not measure
/// because its layer does no work on this workload (`README.md` lists
/// which apply where), and puts all of them in `PER_LAYER` order.
pub(crate) fn finish_layers(out: &mut Outcome) {
    let measured = std::mem::take(&mut out.metrics);
    for (name, unit) in PER_LAYER {
        let value = measured
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        out.metric(name, value, unit);
    }
}

/// The `trace.*` metrics: how much the traced rounds cost over the
/// untraced ones, and how much of the traced wall time the layer self
/// times account for.
pub(crate) fn trace_overhead(
    out: &mut Outcome,
    untraced_round_s: &[f64],
    traced_round_s: &[f64],
    self_ns: f64,
    traced_wall_ns: f64,
) {
    let (u, t) = (
        report::median(untraced_round_s),
        report::median(traced_round_s),
    );
    let self_share = report::ratio(self_ns, traced_wall_ns);
    out.metric("trace.overhead_ratio", report::ratio(t, u), "ratio");
    out.metric("trace.self_share", self_share, "ratio");
    out.metric("trace.residual_share", 1.0 - self_share, "ratio");
    out.metric("trace.untraced_round_s", u, "s");
    out.metric("trace.traced_round_s", t, "s");
}

/// The `schemes.*` hook metrics over `rounds` traced rounds (call counts
/// are per round), with `wall_ns` the traced time they are a share of.
pub(crate) fn hook_metrics(
    out: &mut Outcome,
    hooks: &layers::HookTally,
    rounds: usize,
    wall_ns: f64,
) {
    let per_round = |t: &layers::Tally| t.calls() as f64 / rounds.max(1) as f64;
    out.metric("schemes.issue_load_ns", hooks.issue_load.mean_ns(), "ns");
    out.metric(
        "schemes.issue_load_calls",
        per_round(&hooks.issue_load),
        "count",
    );
    out.metric("schemes.on_squash_ns", hooks.on_squash.mean_ns(), "ns");
    out.metric(
        "schemes.on_squash_calls",
        per_round(&hooks.on_squash),
        "count",
    );
    out.metric("schemes.commit_load_ns", hooks.commit_load.mean_ns(), "ns");
    out.metric(
        "schemes.commit_load_calls",
        per_round(&hooks.commit_load),
        "count",
    );
    out.metric(
        "schemes.hook_share",
        report::ratio(hooks.total_ns() as f64, wall_ns),
        "ratio",
    );
}
