//! `spec-roi`: the 19 Table-3 SPEC-like programs under NonSecure and
//! CleanupSpec, warmed, sink-free, measured over their region of
//! interest.
//!
//! Set-up builds one simulator per program and mode, runs the warmup
//! (untimed, counted in `setup_s`) and snapshots the warm state. It is
//! done afresh every [`SETUP_EVERY`] rounds, so its repetitions spread
//! over the run. A round restores every snapshot and runs the measured
//! region in slices of `spec_slice` instructions; each slice is one timed
//! task. Every round simulates exactly the same thing, so every round
//! must give the same outputs, whichever set-up it restores.

use crate::expected::{check_cell, render_cells};
use crate::layers::{now_ns, CellResult, HookTally, LoopTally, Stepper};
use crate::report::{ratio, Outcome};
use crate::{
    best_of, end_to_end, finish_layers, for_duration, hook_metrics, trace_overhead, RunConfig,
};
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, Simulator, Snapshot};
use cleanupspec_core::system::{RunLimits, StopReason};
use cleanupspec_mem::rng::mix_str;
use cleanupspec_mem::types::Cycle;
use cleanupspec_workloads::spec::all_spec_programs;
use std::sync::Arc;

/// The modes every program runs under.
pub const MODES: [SecurityMode; 2] = [SecurityMode::NonSecure, SecurityMode::CleanupSpec];

/// Rounds per set-up. A set-up takes about as long as a round, so this
/// keeps most of the run for measured rounds while giving `setup_s`
/// several samples.
const SETUP_EVERY: usize = 3;

/// One program under one mode, warmed.
struct Cell {
    name: String,
    sim: Simulator,
    warm: Snapshot,
}

struct Setup {
    cells: Vec<Cell>,
    build_ns: u64,
    warmup_ns: u64,
}

fn setup(cfg: &RunConfig) -> Result<Setup, String> {
    let programs: Vec<_> = all_spec_programs(cfg.seed)
        .into_iter()
        .map(|(w, p)| (w, Arc::new(p)))
        .collect();
    let (mut build_ns, mut warmup_ns) = (0, 0);
    let mut cells = Vec::with_capacity(MODES.len() * programs.len());
    for mode in MODES {
        for (w, program) in &programs {
            let t0 = now_ns();
            let mut sim = SimBuilder::new(mode)
                .program_arc(Arc::clone(program))
                .seed(cfg.seed ^ mix_str(w.name))
                .build();
            let t1 = now_ns();
            let stop = sim.run_insts(cfg.sizes.spec_warmup);
            let warm = sim.snapshot();
            warmup_ns += now_ns() - t1;
            build_ns += t1 - t0;
            let name = format!("{}/{}", w.name, mode.name());
            if !stop.is_success() {
                return Err(format!("{name}: warmup stopped early: {stop}"));
            }
            cells.push(Cell { name, sim, warm });
        }
    }
    Ok(Setup {
        cells,
        build_ns,
        warmup_ns,
    })
}

/// `Simulator::run_measure`'s cycle cap for a region starting at `base`.
fn cycle_cap(base: Cycle, measure: u64) -> Cycle {
    base + 400 * measure + 1_000_000
}

/// Runs one cell's measured region from its warm snapshot in timed
/// slices, pushing each slice's milliseconds to `task_ms`. Returns the
/// outputs and the timed nanoseconds.
fn measure(
    cell: &mut Cell,
    cfg: &RunConfig,
    task_ms: &mut Vec<f64>,
) -> Result<(CellResult, u64), String> {
    let (m, slice) = (cfg.sizes.spec_measure, cfg.sizes.spec_slice);
    cell.sim.restore(&cell.warm);
    let cap = cycle_cap(cell.sim.system().now(), m);
    let (mut done, mut ns) = (0, 0);
    while done < m {
        let next = (done + slice).min(m);
        let t0 = now_ns();
        let stop = if done == 0 {
            cell.sim.run_measure(next)
        } else {
            cell.sim.run(RunLimits {
                max_cycles: cap,
                max_insts_per_core: next,
                ..RunLimits::default()
            })
        };
        let d = now_ns() - t0;
        ns += d;
        task_ms.push(d as f64 / 1e6);
        match stop {
            StopReason::InstLimit => done = next,
            StopReason::AllHalted => break,
            other => return Err(format!("measured region stopped early: {other}")),
        }
    }
    Ok((CellResult::from_report(&cell.sim.report()), ns))
}

/// Runs one cell's measured region from its warm snapshot through the
/// component-stepped, timed loop.
fn trace(
    cell: &mut Cell,
    cfg: &RunConfig,
    hooks: &Arc<HookTally>,
    t: &mut LoopTally,
) -> Result<CellResult, String> {
    let m = cfg.sizes.spec_measure;
    cell.sim.restore(&cell.warm);
    let mut stepper = Stepper::from_system(cell.sim.system(), hooks);
    stepper.reset_stats();
    if !stepper.run(m, cycle_cap(cell.sim.system().now(), m), t) {
        return Err("stepped region hit the cycle cap".to_string());
    }
    Ok(stepper.result())
}

/// Runs the workload (see the module docs).
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut built: Option<Setup> = None;
    let mut first: Vec<Option<CellResult>> = Vec::new();
    let (mut rounds, mut round_insts) = (Vec::new(), 0);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let hooks = Arc::new(HookTally::default());
    let mut lt = LoopTally::default();
    let mut traced_cells: Vec<CellResult> = Vec::new();
    let ran = for_duration(cfg.seconds, if cfg.trace { 2 } else { 1 }, |round| {
        if round % SETUP_EVERY == 0 {
            built = None;
            let t0 = now_ns();
            let s = setup(cfg)?;
            setup_s.push((now_ns() - t0) as f64 / 1e9);
            first.resize(s.cells.len(), None);
            built = Some(s);
        }
        let s = built.as_mut().expect("set up in the first round");
        let traced = cfg.trace && round % 2 == 1;
        let (mut insts, mut ns, mut tasks) = (0, 0, 0);
        let mut task_ms = Vec::new();
        let wall0 = lt.wall_ns;
        for (i, cell) in s.cells.iter_mut().enumerate() {
            let before = task_ms.len();
            let got = if traced {
                trace(cell, cfg, &hooks, &mut lt)
            } else {
                measure(cell, cfg, &mut task_ms).map(|(r, d)| {
                    ns += d;
                    r
                })
            };
            let n = if traced {
                1
            } else {
                (task_ms.len() - before) as u64
            };
            tasks += n;
            match got {
                Ok(r) => {
                    let what = if traced { "traced" } else { "untraced" };
                    for p in check_cell(cfg.expected.as_ref(), &cell.name, &mut first[i], &r) {
                        out.fail(n, format!("spec-roi {} ({what}): {p}", cell.name));
                    }
                    insts += r.insts;
                    if traced && round == 1 {
                        traced_cells.push(r);
                    }
                }
                Err(e) => out.fail(n, format!("spec-roi {}: {e}", cell.name)),
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
    });
    if let Err(e) = ran {
        out.fail(1, format!("spec-roi set-up: {e}"));
        return out;
    }
    let s = built.expect("the first round sets up");
    if !cfg.trace {
        let best = best_of(&rounds);
        let round_s = best.iter().sum::<f64>() / 1e3;
        end_to_end(&mut out, round_insts as f64, round_s, &best, &setup_s);
        return out;
    }
    let cycles = lt.cycles as f64;
    let wall = lt.wall_ns as f64;
    let hook_ns = hooks.total_ns() as f64;
    let sum = |f: fn(&CellResult) -> u64| traced_cells.iter().map(f).sum::<u64>() as f64;
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
    out.metric(
        "sim.build_ms",
        s.build_ns as f64 / 1e6 / s.cells.len() as f64,
        "ms",
    );
    out.metric("sim.warmup_s", s.warmup_ns as f64 / 1e9, "s");
    let self_ns = (lt.tick_self_ns + lt.advance_self_ns) as f64 + hook_ns;
    trace_overhead(&mut out, &untraced_s, &traced_s, self_ns, wall);
    finish_layers(&mut out);
    out
}

/// One untraced round, rendered as `expected.rs` entries.
pub fn record(cfg: &RunConfig) -> Result<String, String> {
    let mut s = setup(cfg)?;
    let mut cells = Vec::new();
    for cell in &mut s.cells {
        let (r, _) = measure(cell, cfg, &mut Vec::new())?;
        cells.push((cell.name.clone(), r));
    }
    Ok(render_cells(&cells))
}
