//! The executor itself: `threads` scoped workers claim task indices from
//! one shared counter, each task isolated by `catch_unwind` and timed.
//!
//! This file is the **only** place in `crates/bench` that spawns scoped
//! threads; every harness sweep goes through [`run_indexed`].

use cleanupspec_obs::MetricsRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

/// Worker-thread count honoring the `CLEANUPSPEC_THREADS` environment
/// override (documented next to `CLEANUPSPEC_INSTS` in the README):
/// `CLEANUPSPEC_THREADS` if set and positive, else the machine's
/// available parallelism, else 4. Every harness default routes through
/// here so `--threads` flags and env behave identically across CLIs.
pub fn default_threads() -> usize {
    std::env::var("CLEANUPSPEC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map_or(4, |n| n.get()))
}

/// One panicked task: its input index and the panic message.
#[derive(Clone, Debug)]
pub struct TaskFailure {
    /// Index of the task in the input range.
    pub index: usize,
    /// Best-effort panic payload text.
    pub message: String,
}

/// Scheduling counters for one [`run_indexed`] call. Everything here
/// describes the *host-side* execution (and so may vary run to run);
/// the task results themselves are scheduling-invariant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Tasks that ran to completion (including panicked ones).
    pub tasks_run: u64,
    /// Always 0: every worker claims its next task from the shared
    /// counter, so no task is ever queued behind another worker and there
    /// is nothing to steal. Kept because the perfbench smith-campaign
    /// workload still reports it as a per-layer metric.
    pub tasks_stolen: u64,
    /// Tasks that panicked (isolated by `catch_unwind`).
    pub panics: u64,
    /// Sum of per-task wall-clock seconds (CPU-side cost of the sweep).
    pub task_wall_secs: f64,
    /// Longest single task in wall-clock seconds (the floor of the
    /// sweep's wall clock).
    pub max_task_secs: f64,
    /// Worker threads actually used.
    pub threads: u64,
}

impl ExecStats {
    fn merge(&mut self, other: &ExecStats) {
        self.tasks_run += other.tasks_run;
        self.panics += other.panics;
        self.task_wall_secs += other.task_wall_secs;
        self.max_task_secs = self.max_task_secs.max(other.max_task_secs);
    }

    /// Flows the counters into a [`MetricsRegistry`] under `prefix`
    /// (e.g. `exec.tasks`, `exec.task_wall` …), the same host-profiling
    /// section `BENCH_*.json` already carries.
    pub fn record_into(&self, host: &mut MetricsRegistry, prefix: &str) {
        host.add(&format!("{prefix}.tasks"), self.tasks_run);
        host.add(&format!("{prefix}.panics"), self.panics);
        host.add_timing(&format!("{prefix}.task_wall"), self.task_wall_secs);
        host.set_gauge(&format!("{prefix}.max_task_secs"), self.max_task_secs);
        host.set_gauge(&format!("{prefix}.threads"), self.threads as f64);
    }
}

/// Result of one [`run_indexed`] call. Slot `i` holds task `i`'s value
/// (input order, independent of scheduling); a `None` slot is explained
/// by its entry in `failures`.
#[derive(Debug)]
pub struct ExecOutcome<T> {
    /// Per-task results, indexed by input position.
    pub slots: Vec<Option<T>>,
    /// Panicked tasks, sorted by index.
    pub failures: Vec<TaskFailure>,
    /// Scheduling counters for the whole call.
    pub stats: ExecStats,
}

impl<T> ExecOutcome<T> {
    /// Whether every task produced a value.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The successful results in input order, dropping empty slots.
    pub fn into_ok(self) -> Vec<T> {
        self.slots.into_iter().flatten().collect()
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Pool sizing.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Worker threads (capped at the task count; at least 1). Defaults
    /// to [`default_threads`].
    pub threads: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::with_threads(default_threads())
    }
}

impl ExecConfig {
    /// An explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig { threads }
    }
}

/// Everything one worker produced, merged by the caller after join.
struct WorkerOut<T> {
    results: Vec<(usize, T)>,
    failures: Vec<TaskFailure>,
    stats: ExecStats,
}

/// One worker: claim the next unclaimed index until the counter passes
/// `n`, running each task under `catch_unwind`.
fn claim_until_done<T, F>(n: usize, next: &AtomicUsize, task: &F) -> WorkerOut<T>
where
    F: Fn(usize) -> T,
{
    let mut out = WorkerOut {
        results: Vec::new(),
        failures: Vec::new(),
        stats: ExecStats::default(),
    };
    loop {
        // Relaxed: the counter only hands out distinct indices (the RMW
        // guarantees that at any ordering); results reach the caller
        // through the scoped join, which synchronizes on its own.
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return out;
        }
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| task(i))) {
            Ok(v) => out.results.push((i, v)),
            Err(payload) => {
                out.failures.push(TaskFailure {
                    index: i,
                    message: panic_message(&*payload),
                });
                out.stats.panics += 1;
            }
        }
        let wall = start.elapsed().as_secs_f64();
        out.stats.tasks_run += 1;
        out.stats.task_wall_secs += wall;
        out.stats.max_task_secs = out.stats.max_task_secs.max(wall);
    }
}

/// Runs tasks `0..n` on `threads` scoped workers and returns the results
/// in **input order**: slot `i` always holds `task(i)`'s value, whatever
/// worker ran it and whenever it finished. With a deterministic task
/// function the entire outcome (slots and failures) is therefore
/// identical at every thread count — the property
/// `tests/exec_invariance.rs` pins end to end for `cs-bench`.
///
/// Workers claim one index at a time from a shared counter, so a slow
/// task delays only itself: every other task goes to whichever worker
/// frees up first. Each task runs under [`catch_unwind`]; a panic costs
/// its own slot (reported in [`ExecOutcome::failures`]) and the rest of
/// the tasks still run. Every index is claimed exactly once.
pub fn run_indexed<T, F>(n: usize, cfg: &ExecConfig, task: F) -> ExecOutcome<T>
where
    F: Fn(usize) -> T + Sync,
    T: Send,
{
    let threads = cfg.threads.max(1).min(n);
    let next = AtomicUsize::new(0);
    let worker_outs: Vec<WorkerOut<T>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| claim_until_done(n, &next, &task)))
            .collect();
        handles
            .into_iter()
            // Per-task panics were caught inside the worker; a join
            // error means the executor itself crashed.
            .map(|h| h.join().expect("cs-exec worker harness panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut failures = Vec::new();
    let mut stats = ExecStats {
        threads: threads as u64,
        ..ExecStats::default()
    };
    for out in worker_outs {
        stats.merge(&out.stats);
        for (i, v) in out.results {
            slots[i] = Some(v);
        }
        failures.extend(out.failures);
    }
    failures.sort_by_key(|f| f.index);
    ExecOutcome {
        slots,
        failures,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_input_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(25, &ExecConfig::with_threads(threads), |i| i * 10);
            assert!(out.is_complete(), "threads={threads}");
            let got: Vec<usize> = out.slots.into_iter().map(Option::unwrap).collect();
            assert_eq!(got, (0..25).map(|i| i * 10).collect::<Vec<_>>());
        }
        // A large input: every index runs exactly once and lands in its
        // own slot.
        let n = 10_000;
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = run_indexed(n, &ExecConfig::with_threads(8), |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert!(out.is_complete());
        assert_eq!(out.stats.tasks_run, n as u64);
        assert_eq!(out.into_ok(), (0..n).collect::<Vec<_>>());
        let counts: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![1; n], "every index must run exactly once");
    }

    #[test]
    fn zero_tasks_is_a_clean_no_op() {
        let out = run_indexed(0, &ExecConfig::default(), |i| i);
        assert!(out.slots.is_empty());
        assert!(out.is_complete());
        assert_eq!(out.stats.tasks_run, 0);
    }

    #[test]
    fn single_thread_runs_everything_in_process() {
        let out = run_indexed(7, &ExecConfig::with_threads(1), |i| i + 1);
        assert!(out.is_complete());
        assert_eq!(out.stats.tasks_run, 7);
        assert_eq!(out.stats.tasks_stolen, 0, "one worker has nobody to rob");
        assert_eq!(out.into_ok(), vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn panicking_task_costs_only_its_slot() {
        let out = run_indexed(6, &ExecConfig::with_threads(3), |i| {
            if i == 2 {
                panic!("task {i} exploded");
            }
            i
        });
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].index, 2);
        assert!(out.failures[0].message.contains("task 2 exploded"));
        assert_eq!(out.stats.panics, 1);
        let survivors: Vec<usize> = out.into_ok();
        assert_eq!(survivors, vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn keep_going_runs_everything_despite_many_panics() {
        let out = run_indexed(12, &ExecConfig::with_threads(4), |i| {
            if i % 2 == 0 {
                panic!("even task");
            }
            i
        });
        assert_eq!(out.failures.len(), 6);
        assert_eq!(out.stats.tasks_run, 12);
        assert_eq!(out.into_ok(), vec![1, 3, 5, 7, 9, 11]);
    }

    #[test]
    fn straggler_deque_mates_are_stolen_not_stuck() {
        // Task 0 spins until every other task completes, which is only
        // possible if the other worker runs all of them while task 0 is
        // still in flight. A scheduler that assigned work in fixed
        // chunks would leave task 0's chunk-mates stuck behind it (bounded
        // by the spin cap).
        let n = 8;
        let done = AtomicUsize::new(0);
        let out = run_indexed(n, &ExecConfig::with_threads(2), |i| {
            if i == 0 {
                let start = Instant::now();
                while done.load(Ordering::SeqCst) < n - 1 {
                    assert!(
                        start.elapsed().as_secs() < 30,
                        "tasks queued behind the straggler never ran"
                    );
                    std::hint::spin_loop();
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert!(out.is_complete());
    }

    #[test]
    fn stats_flow_into_metrics_registry() {
        let out = run_indexed(5, &ExecConfig::with_threads(2), |i| i);
        let mut host = MetricsRegistry::new();
        out.stats.record_into(&mut host, "exec");
        assert_eq!(host.counter("exec.tasks"), 5);
        assert!(host.gauge("exec.threads") > 0.0);
    }
}
