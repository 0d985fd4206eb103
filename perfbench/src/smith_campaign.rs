//! `smith-campaign`: `fuzz::run_campaign_resumable` over a fixed range of
//! cs-smith seeds, journaled into a fresh directory, at one worker per
//! host core.
//!
//! A round is one campaign over the same `smith_seeds` seeds; each seed
//! is one task. A seed's latency is the time from its worker's previous
//! journal append (or the round's start) to its own, stamped by a store
//! wrapper the journal writes through. The seeds run on one worker per
//! core, so a round of best seed times takes their sum over the workers.
//!
//! A round's set-up (one `setup_s` sample) is what the campaign needs
//! before its first seed: a fresh journal directory and the journal's
//! header. The committed instruction count of the five judged scheme runs
//! per seed is exactly the reference interpreter's (oracle 1 checks the
//! commit streams), so it is counted once, untimed, before the first
//! round; it gives `sim_kips` without looking inside the campaign.
//!
//! The traced round re-composes a seed from the same public calls the
//! campaign makes (`smith::plan`, `assemble_plan`, `reference::interpret`,
//! `fuzz::exec_env`, `fuzz::exec_env_checkpoint_resume`, `Journal::record`)
//! on `exec::run_indexed` and times each. The untraced rounds have already
//! judged these seeds with all of the campaign's oracles; the traced round
//! checks only that each passing seed's squash total equals its untraced
//! verdict's.

use crate::expected::Expected;
use crate::layers::{now_ns, HookTally, Tally, TimedScheme};
use crate::report::{ratio, Outcome};
use crate::{
    best_of, end_to_end, finish_layers, for_duration, hook_metrics, trace_overhead, RunConfig,
};
use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::fuzz::{
    campaign_journal_header, exec_env, exec_env_checkpoint_resume, run_campaign_resumable,
    verdict_from_json, ExecEnv, SeedVerdict, Violation, FUZZ_MODES, RESUME_CHECKPOINT,
};
use cleanupspec_bench::{run_indexed, ArtifactStore, DirStore, ExecConfig, Journal, StoreError};
use cleanupspec_core::isa::Program;
use cleanupspec_core::reference::{interpret, RefRun};
use cleanupspec_core::scheme::SpeculationScheme;
use cleanupspec_workloads::smith::{assemble_plan, plan};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Reference-interpreter step budget (the harness's own budget).
const REF_STEP_CAP: usize = 1_000_000;

/// Scratch directory for the campaign journals, relative to the working
/// directory (the benchmark runs from the checkout root).
const SCRATCH: &str = ".perfbench-tmp";

/// The campaign's first seed: consecutive workload seeds get disjoint
/// ranges.
fn first_seed(cfg: &RunConfig) -> u64 {
    cfg.seed.wrapping_mul(cfg.sizes.smith_seeds)
}

/// Worker threads: one per host core.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One journal append: the appending thread, when it finished, and the
/// line's task id (empty for the header).
type Stamp = (ThreadId, u64, String);

/// Forwards to a [`DirStore`] and stamps every journal append.
struct StampedStore {
    inner: Arc<DirStore>,
    stamps: Mutex<Vec<Stamp>>,
}

impl ArtifactStore for StampedStore {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.put(name, bytes)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.inner.get(name)
    }

    fn append_line(&self, name: &str, line: &str) -> Result<(), StoreError> {
        let r = self.inner.append_line(name, line);
        let at = now_ns();
        let id = line
            .split_once("\"id\": \"")
            .and_then(|(_, rest)| rest.split_once('"'))
            .map_or(String::new(), |(id, _)| id.to_string());
        let stamp = (std::thread::current().id(), at, id);
        self.stamps.lock().expect("stamp lock").push(stamp);
        r
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn persistent(&self) -> bool {
        self.inner.persistent()
    }

    fn quarantine(&self, name: &str, reason: &str) {
        self.inner.quarantine(name, reason);
    }
}

/// A fresh journal in `dir`, through a [`StampedStore`].
fn open_journal(cfg: &RunConfig, dir: &Path) -> Result<(Journal, Arc<StampedStore>), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let store = Arc::new(StampedStore {
        inner: Arc::new(DirStore::new(dir)),
        stamps: Mutex::new(Vec::new()),
    });
    let header = campaign_journal_header(first_seed(cfg), cfg.sizes.smith_seeds);
    let journal = Journal::open(Arc::clone(&store) as Arc<dyn ArtifactStore>, &header)?;
    Ok((journal, store))
}

/// Per-seed latencies (ms) in seed order, from the appends stamped after
/// `start`: a seed's latency runs from its worker's previous append (or
/// `start`) to its own.
fn seed_latencies(stamps: &[Stamp], start: u64, seeds: std::ops::Range<u64>) -> Vec<f64> {
    let mut last: HashMap<ThreadId, u64> = HashMap::new();
    let mut by_id = BTreeMap::new();
    for (tid, at, id) in stamps.iter().filter(|s| s.1 >= start) {
        let prev = last.insert(*tid, *at).unwrap_or(start);
        by_id.insert(id.as_str(), (at - prev) as f64 / 1e6);
    }
    seeds
        .filter_map(|s| by_id.get(task_id(s).as_str()).copied())
        .collect()
}

/// The judged instruction count of the campaign: every seed's reference
/// commits, once per judged scheme run.
fn judged_insts(cfg: &RunConfig) -> Result<u64, String> {
    let mut judged = 0;
    for seed in first_seed(cfg)..first_seed(cfg) + cfg.sizes.smith_seeds {
        let refs: Vec<RefRun> = assemble_plan(&plan(seed))
            .iter()
            .map(|p| interpret(p, REF_STEP_CAP))
            .collect();
        if refs.iter().any(|r| !r.halted) {
            return Err(format!("seed {seed:#x}: reference did not halt"));
        }
        let commits: u64 = refs.iter().map(|r| r.commits.len() as u64).sum();
        judged += FUZZ_MODES.len() as u64 * commits;
    }
    Ok(judged)
}

/// Timings of the traced round's calls.
#[derive(Default)]
struct CampaignTally {
    plan: Tally,
    interpret: Tally,
    mode_run: Tally,
    resume: Tally,
    record: Tally,
}

/// One seed of the traced round: journals `payload` (the untraced
/// round's verdict for the seed) and returns the seed's squash total.
fn traced_seed(
    seed: u64,
    payload: &str,
    journal: &Journal,
    t: &CampaignTally,
    hooks: &Arc<HookTally>,
) -> u64 {
    let t0 = now_ns();
    let progs: Vec<Arc<Program>> = assemble_plan(&plan(seed))
        .into_iter()
        .map(Arc::new)
        .collect();
    let t1 = now_ns();
    let refs: Vec<RefRun> = progs.iter().map(|p| interpret(p, REF_STEP_CAP)).collect();
    let t2 = now_ns();
    std::hint::black_box(refs);
    t.plan.add(t1 - t0);
    t.interpret.add(t2 - t1);
    let mut squashes = 0;
    for mode in FUZZ_MODES {
        let schemes =
            |_| TimedScheme::boxed(mode.build_scheme(), hooks) as Box<dyn SpeculationScheme>;
        let t0 = now_ns();
        let run = if mode == SecurityMode::CleanupSpec {
            let (run, _resumed) = exec_env_checkpoint_resume(
                &progs,
                mode,
                seed,
                schemes,
                &ExecEnv::default(),
                RESUME_CHECKPOINT,
            );
            t.resume.add(now_ns() - t0);
            run
        } else {
            let run = exec_env(&progs, mode, seed, schemes, &ExecEnv::default());
            t.mode_run.add(now_ns() - t0);
            run
        };
        squashes += run.audit.squashes;
    }
    let t0 = now_ns();
    journal.record(&task_id(seed), payload);
    t.record.add(now_ns() - t0);
    squashes
}

/// A campaign's violations as `seed scheme oracle` lines, in seed order.
fn findings(violations: &[Violation]) -> Vec<String> {
    violations
        .iter()
        .map(|v| format!("{:#x} {} {}", v.seed, v.scheme, v.oracle))
        .collect()
}

fn task_id(seed: u64) -> String {
    format!("seed-{seed:#x}")
}

/// Runs the workload (see the module docs).
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let scratch = PathBuf::from(SCRATCH).join(format!("smith-{}", std::process::id()));
    let outcome = run_in(cfg, &scratch, &mut out);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH);
    if let Err(e) = outcome {
        out.fail(1, format!("smith-campaign: {e}"));
    }
    out
}

fn run_in(cfg: &RunConfig, scratch: &Path, out: &mut Outcome) -> Result<(), String> {
    let n = cfg.sizes.smith_seeds;
    let start_seed = first_seed(cfg);
    let mut setup_s = Vec::new();
    let judged = judged_insts(cfg)?;
    let threads = threads();
    // The first untraced round's journal payload (verdict) per seed.
    let mut first: Option<Vec<String>> = None;
    let mut violating_seeds = 0;
    let mut latencies = Vec::new();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let hooks = Arc::new(HookTally::default());
    let tally = CampaignTally::default();
    let (mut task_wall, mut busy_share, mut stolen, mut max_task) = (0.0, Vec::new(), 0, 0.0f64);
    let (mut retries, mut degraded) = (0, 0);
    for_duration(cfg.seconds, if cfg.trace { 2 } else { 1 }, |round| {
        let traced = cfg.trace && round % 2 == 1;
        // The round's set-up: a fresh journal.
        let t0 = now_ns();
        let dir = scratch.join(format!("round-{round}"));
        let (journal, store) = open_journal(cfg, &dir)?;
        if !traced {
            setup_s.push((now_ns() - t0) as f64 / 1e9);
        }
        out.attempted += n;
        if traced {
            let t0 = now_ns();
            let payloads = first.as_deref().unwrap_or_default();
            let exec = run_indexed(n as usize, &ExecConfig::with_threads(threads), |i| {
                traced_seed(
                    start_seed + i as u64,
                    &payloads[i],
                    &journal,
                    &tally,
                    &hooks,
                )
            });
            traced_s.push((now_ns() - t0) as f64 / 1e9);
            task_wall += exec.stats.task_wall_secs;
            busy_share.push(ratio(
                exec.stats.task_wall_secs,
                exec.stats.threads as f64 * traced_s[traced_s.len() - 1],
            ));
            stolen += exec.stats.tasks_stolen;
            max_task = max_task.max(exec.stats.max_task_secs);
            for (i, slot) in exec.slots.into_iter().enumerate() {
                let seed = start_seed + i as u64;
                let want = verdict_from_json(&payloads[i]);
                match (slot, want) {
                    // A seed the campaign found a defect on: its verdict
                    // lists the violations but no squash total.
                    (Some(_), Ok(SeedVerdict::Fail(_))) => {}
                    (Some(sq), Ok(SeedVerdict::Pass { squashes })) if sq == squashes => {}
                    (Some(sq), want) => out.fail(
                        1,
                        format!(
                            "smith seed {seed:#x} (traced): {sq} squashes; \
                             untraced verdict {want:?}"
                        ),
                    ),
                    (None, _) => {
                        out.fail(1, format!("smith seed {seed:#x} (traced): task panicked"))
                    }
                }
            }
        } else {
            let t0 = now_ns();
            let res = run_campaign_resumable(start_seed, n, threads, Some(&journal));
            untraced_s.push((now_ns() - t0) as f64 / 1e9);
            let stamps = store.stamps.lock().expect("stamp lock");
            latencies.push(seed_latencies(&stamps, t0, start_seed..start_seed + n));
            drop(stamps);
            let payloads: Vec<String> = (start_seed..start_seed + n)
                .map(|s| journal.completed(&task_id(s)).unwrap_or_default())
                .collect();
            let findings = findings(&res.violations);
            let mut problems = Vec::new();
            if (res.seeds, res.resumed, res.panics) != (n, 0, 0) {
                problems.push(format!(
                    "{} seeds run, {} resumed, {} panicked",
                    res.seeds, res.resumed, res.panics
                ));
            }
            match &cfg.expected {
                Some(Expected::Campaign {
                    squashes,
                    findings: want,
                }) => {
                    if *squashes != res.squashes {
                        problems.push(format!("{} squashes, recorded {squashes}", res.squashes));
                    }
                    if *want != findings {
                        problems.push(format!("findings {findings:?}, recorded {want:?}"));
                    }
                }
                Some(Expected::Cells(_)) => {
                    problems.push("recorded table is not a campaign's".into())
                }
                None => {}
            }
            match &first {
                Some(f) if *f != payloads => {
                    problems.push("per-seed verdicts differ from the first round".into())
                }
                Some(_) => {}
                None => {
                    for f in &findings {
                        eprintln!("perfbench: cs-smith finding (the campaign's output, not a failed task): {f}");
                    }
                    violating_seeds = res
                        .violations
                        .iter()
                        .map(|v| v.seed)
                        .collect::<BTreeSet<_>>()
                        .len();
                    first = Some(payloads);
                }
            }
            for p in problems {
                out.fail(n, format!("smith-campaign round {round}: {p}"));
            }
        }
        let st = store.inner.stats();
        retries += st.retries;
        degraded += st.degraded_writes;
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    })?;
    if !cfg.trace {
        // `threads` workers run the seeds side by side and stay busy
        // (`exec.utilization` ~ 1), so a round of best seed times takes
        // their sum spread over the workers.
        let best = best_of(&latencies);
        let round_s = best.iter().sum::<f64>() / 1e3 / threads as f64;
        end_to_end(out, judged as f64, round_s, &best, &setup_s);
        return Ok(());
    }
    let rounds = traced_s.len();
    let us = |t: &Tally| t.mean_ns() / 1e3;
    out.metric("workloads.smith_plan_us", us(&tally.plan), "us");
    out.metric("reference.interpret_us", us(&tally.interpret), "us");
    out.metric("fuzz.mode_run_ms", tally.mode_run.mean_ns() / 1e6, "ms");
    out.metric("fuzz.violating_seeds", violating_seeds as f64, "count");
    out.metric(
        "fuzz.checkpoint_resume_ms",
        tally.resume.mean_ns() / 1e6,
        "ms",
    );
    out.metric(
        "exec.utilization",
        crate::report::median(&busy_share),
        "ratio",
    );
    out.metric("exec.tasks_stolen", stolen as f64 / rounds as f64, "count");
    out.metric("exec.max_task_s", max_task, "s");
    out.metric("journal.record_us", us(&tally.record), "us");
    out.metric(
        "journal.records",
        tally.record.calls() as f64 / rounds as f64,
        "count",
    );
    out.metric("store.retries", retries as f64, "count");
    out.metric("store.degraded_writes", degraded as f64, "count");
    let wall_ns = task_wall * 1e9;
    hook_metrics(out, &hooks, rounds, wall_ns);
    let self_ns = [
        &tally.plan,
        &tally.interpret,
        &tally.mode_run,
        &tally.resume,
        &tally.record,
    ]
    .iter()
    .map(|t| t.ns())
    .sum::<u64>() as f64;
    trace_overhead(out, &untraced_s, &traced_s, self_ns, wall_ns);
    finish_layers(out);
    Ok(())
}

/// One untraced round, rendered as `expected.rs` entries: the squash
/// total, then one finding per line.
pub fn record(cfg: &RunConfig) -> Result<String, String> {
    let scratch = PathBuf::from(SCRATCH).join(format!("record-{}", std::process::id()));
    let (journal, _) = open_journal(cfg, &scratch)?;
    let res = run_campaign_resumable(
        first_seed(cfg),
        cfg.sizes.smith_seeds,
        threads(),
        Some(&journal),
    );
    drop(journal);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH);
    if res.panics > 0 {
        return Err(format!("{} seed(s) panicked", res.panics));
    }
    let mut text = format!("squashes: {}\n", res.squashes);
    for f in findings(&res.violations) {
        text.push_str(&format!("    \"{f}\",\n"));
    }
    Ok(text)
}
