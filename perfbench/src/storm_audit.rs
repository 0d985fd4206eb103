//! `storm-audit`: `micro::mispredict_storm` (an unlearnable branch
//! guarding wrong-path loads) under CleanupSpec and NonSecure, with the
//! leakage audit and the episode ledger attached, caches empty at start.
//!
//! A round runs `storm_jobs` storms, each with its own outcome table
//! drawn from the workload seed, under both modes. Its set-up (one
//! `setup_s` sample) generates the storms and builds a fresh simulator
//! per storm and mode; then each runs to completion in slices of
//! `storm_slice` instructions, and each slice is one timed task.
//! Several short storms rather than one long one keep a run's cost from
//! hinging on a single outcome table. After every run the CleanupSpec
//! audit and episode ledger must be CLEAN.

use crate::expected::{check_cell, render_cells};
use crate::layers::{now_ns, CellResult, HookTally, LoopTally, Stepper, Tally, TimedSink};
use crate::report::{median, ratio, Outcome};
use crate::{
    best_of, end_to_end, finish_layers, for_duration, hook_metrics, trace_overhead, RunConfig,
};
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, Simulator};
use cleanupspec_core::isa::Program;
use cleanupspec_core::system::{RunLimits, StopReason};
use cleanupspec_mem::rng::mix64;
use cleanupspec_obs::{EpisodeBuilder, LeakageAuditSink, Shared};
use cleanupspec_workloads::micro::mispredict_storm;
use std::sync::Arc;

/// The modes the storm runs under.
pub const MODES: [SecurityMode; 2] = [SecurityMode::CleanupSpec, SecurityMode::NonSecure];

/// Wrong-path loads per mispredicted block of each storm.
const STORM_BLOCK_LOADS: usize = 3;

/// Timing tallies of the two sinks under one mode.
#[derive(Default)]
struct SinkTallies {
    audit: Arc<Tally>,
    episodes: Arc<Tally>,
}

/// One storm simulator and handles on its sinks.
struct Run {
    mode: SecurityMode,
    sim: Simulator,
    audit: Shared<LeakageAuditSink>,
    episodes: Shared<EpisodeBuilder>,
}

impl Run {
    /// Builds `job`'s simulator, its sinks timed into `timed` when given.
    fn build(job: &Job, timed: Option<&SinkTallies>) -> Run {
        let audit = Shared::new(LeakageAuditSink::new());
        let episodes = Shared::new(EpisodeBuilder::new());
        let b = SimBuilder::new(job.mode)
            .program_arc(Arc::clone(&job.program))
            .seed(job.seed);
        let b = match timed {
            None => b
                .sink(Box::new(audit.clone()))
                .sink(Box::new(episodes.clone())),
            Some(t) => b
                .sink(TimedSink::boxed(audit.clone(), &t.audit))
                .sink(TimedSink::boxed(episodes.clone(), &t.episodes)),
        };
        Run {
            mode: job.mode,
            sim: b.build(),
            audit,
            episodes,
        }
    }

    /// Runs to completion in timed slices, pushing each slice's
    /// milliseconds to `task_ms`. Returns the timed nanoseconds.
    fn measure(&mut self, cfg: &RunConfig, task_ms: &mut Vec<f64>) -> Result<u64, String> {
        let mut ns = 0;
        for k in 1.. {
            let t0 = now_ns();
            let stop = self.sim.run(RunLimits {
                max_insts_per_core: k * cfg.sizes.storm_slice,
                ..RunLimits::default()
            });
            let d = now_ns() - t0;
            ns += d;
            task_ms.push(d as f64 / 1e6);
            match stop {
                StopReason::InstLimit => {}
                StopReason::AllHalted => break,
                other => return Err(format!("stopped early: {other}")),
            }
        }
        Ok(ns)
    }

    /// The sinks' verdicts, as problems: under CleanupSpec the audit and
    /// the episode ledger must both be CLEAN. (NonSecure's residue depends
    /// on the outcome table: wrong-path lines are often touched
    /// architecturally later, so it is not checked.)
    fn verdicts(&self) -> Vec<String> {
        self.sim.finish_observer();
        let audit = self.audit.with(|a| a.report());
        let episodes = self.episodes.with(|e| e.report());
        let mut problems = Vec::new();
        if self.mode == SecurityMode::CleanupSpec {
            if !audit.clean() {
                let n = audit.residue.len();
                problems.push(format!("audit DIRTY: {n} residue item(s)"));
            }
            if !episodes.clean() {
                let n = episodes.leaks.len();
                problems.push(format!("episode ledger LEAKY: {n} finding(s)"));
            }
        }
        problems
    }
}

/// One storm run: a program under a mode.
struct Job {
    name: String,
    mode: SecurityMode,
    program: Arc<Program>,
    seed: u64,
}

/// `storm_jobs` storms, each with its own outcome table drawn from the
/// workload seed, under every mode.
fn jobs(cfg: &RunConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for j in 0..cfg.sizes.storm_jobs {
        let seed = mix64(cfg.seed ^ j);
        let program = Arc::new(mispredict_storm(
            cfg.sizes.storm_iters,
            STORM_BLOCK_LOADS,
            seed,
        ));
        for mode in MODES {
            jobs.push(Job {
                name: format!("mispredict-storm-{j}/{}", mode.name()),
                mode,
                program: Arc::clone(&program),
                seed,
            });
        }
    }
    jobs
}

/// Runs the workload (see the module docs).
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let n_jobs = cfg.sizes.storm_jobs as usize * MODES.len();
    let mut first: Vec<Option<CellResult>> = vec![None; n_jobs];
    let (mut rounds, mut round_insts) = (Vec::new(), 0);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let hooks = Arc::new(HookTally::default());
    let sinks: Vec<SinkTallies> = MODES.iter().map(|_| SinkTallies::default()).collect();
    let mut lt = LoopTally::default();
    let mut traced_cells: Vec<CellResult> = Vec::new();
    let mut traced_build_s = Vec::new();
    for_duration(cfg.seconds, if cfg.trace { 2 } else { 1 }, |round| {
        let traced = cfg.trace && round % 2 == 1;
        let (mut insts, mut ns, mut tasks) = (0, 0, 0);
        let mut task_ms = Vec::new();
        let wall0 = lt.wall_ns;
        // The round's set-up: generate the storms and build a simulator
        // for each, caches empty.
        let t0 = now_ns();
        let jobs = jobs(cfg);
        let runs: Vec<Run> = jobs
            .iter()
            .map(|job| {
                let mode = MODES.iter().position(|&m| m == job.mode).expect("a mode");
                Run::build(job, traced.then_some(&sinks[mode]))
            })
            .collect();
        let built_s = (now_ns() - t0) as f64 / 1e9;
        if traced {
            traced_build_s.push(built_s / jobs.len() as f64);
        } else {
            setup_s.push(built_s);
        }
        for (i, (job, mut run)) in jobs.iter().zip(runs).enumerate() {
            let before = task_ms.len();
            let got = if traced {
                let mut stepper = Stepper::from_system(run.sim.system(), &hooks);
                if stepper.run(u64::MAX, RunLimits::default().max_cycles, &mut lt) {
                    Ok(stepper.result())
                } else {
                    Err("stepped run hit the cycle cap".to_string())
                }
            } else {
                run.measure(cfg, &mut task_ms).map(|d| {
                    ns += d;
                    CellResult::from_report(&run.sim.report())
                })
            };
            let n = if traced {
                1
            } else {
                (task_ms.len() - before) as u64
            };
            tasks += n;
            let what = if traced { "traced" } else { "untraced" };
            match got {
                Ok(r) => {
                    let mut problems =
                        check_cell(cfg.expected.as_ref(), &job.name, &mut first[i], &r);
                    problems.extend(run.verdicts());
                    for p in problems {
                        out.fail(n, format!("storm-audit {} ({what}): {p}", job.name));
                    }
                    insts += r.insts;
                    if traced && round == 1 {
                        traced_cells.push(r);
                    }
                }
                Err(e) => out.fail(n, format!("storm-audit {} ({what}): {e}", job.name)),
            }
        }
        out.attempted += tasks;
        if traced {
            traced_s.push((lt.wall_ns - wall0) as f64 / 1e9);
        } else {
            untraced_s.push(ns as f64 / 1e9);
            round_insts = insts;
            rounds.push(task_ms);
        }
        Ok(())
    })
    .expect("a storm round reports its misses as failed tasks, never as an error");
    if !cfg.trace {
        let best = best_of(&rounds);
        let round_s = best.iter().sum::<f64>() / 1e3;
        end_to_end(&mut out, round_insts as f64, round_s, &best, &setup_s);
        return out;
    }
    let cycles = lt.cycles as f64;
    let wall = lt.wall_ns as f64;
    let rounds = traced_s.len() as f64;
    let sum = |f: fn(&CellResult) -> u64| traced_cells.iter().map(f).sum::<u64>() as f64;
    let (mut sink_ns, mut events) = (0, 0);
    for (mode, t) in MODES.iter().zip(&sinks) {
        for (sink, tally) in [("audit", &t.audit), ("episodes", &t.episodes)] {
            let name = format!("obs.record_ns_per_event.{sink}.{}", mode.name());
            out.metric(name, tally.mean_ns(), "ns");
            sink_ns += tally.ns();
        }
        events += t.audit.calls();
    }
    out.metric(
        "core.tick_self_ns_per_cycle",
        ratio(lt.tick_self_ns as f64, lt.ticks as f64),
        "ns",
    );
    out.metric(
        "core.idle_cycle_frac",
        ratio(sum(CellResult::idle_cycles), sum(CellResult::cpi_total)),
        "ratio",
    );
    out.metric(
        "core.squashes_pki",
        ratio(sum(|r| r.squashes) * 1e3, sum(|r| r.insts)),
        "1/kinst",
    );
    out.metric(
        "mem.advance_ns_per_cycle",
        ratio(lt.advance_self_ns as f64, cycles),
        "ns",
    );
    out.metric(
        "mem.mshr_occupancy_mean",
        ratio(lt.mshr_sum as f64, lt.ticks as f64),
        "count",
    );
    hook_metrics(&mut out, &hooks, traced_s.len(), wall);
    out.metric("schemes.cleanup_ops", sum(|r| r.counter("ops")), "count");
    out.metric("obs.events", events as f64 / rounds, "count");
    out.metric("obs.sink_share", ratio(sink_ns as f64, wall), "ratio");
    out.metric(
        "obs.record_ns_per_event",
        ratio(sink_ns as f64, events as f64),
        "ns",
    );
    out.metric("sim.build_ms", median(&traced_build_s) * 1e3, "ms");
    let self_ns = (lt.tick_self_ns + lt.advance_self_ns + hooks.total_ns() + sink_ns) as f64;
    trace_overhead(&mut out, &untraced_s, &traced_s, self_ns, wall);
    finish_layers(&mut out);
    out
}

/// One untraced round, rendered as `expected.rs` entries.
pub fn record(cfg: &RunConfig) -> Result<String, String> {
    let mut cells = Vec::new();
    for job in jobs(cfg) {
        let mut run = Run::build(&job, None);
        run.measure(cfg, &mut Vec::new())?;
        let problems = run.verdicts();
        if !problems.is_empty() {
            return Err(format!("{}: {}", job.name, problems.join("; ")));
        }
        cells.push((job.name, CellResult::from_report(&run.sim.report())));
    }
    Ok(render_cells(&cells))
}
