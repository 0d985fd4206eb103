//! Outside-in layer timing for the traced runs.
//!
//! Every span is recorded from this package, around calls into a layer's
//! public API; nothing inside the simulator is instrumented:
//!
//! - [`Stepper`] clones a [`System`]'s components and steps them in
//!   `System::tick`'s order, timing each `MemHierarchy::advance` and each
//!   `Pipeline::tick`.
//! - [`TimedScheme`] wraps a [`SpeculationScheme`] and times its hooks.
//! - [`TimedSink`] wraps an [`EventSink`] and times `record`.
//!
//! Per-cycle and per-event calls are summed into totals, never kept as
//! individual spans. Spans nest (a sink call may run inside a hook, which
//! runs inside a core tick), so each enclosing span subtracts the time of
//! its children, read from per-thread running clocks, to get its self
//! time.

use cleanupspec::sim::SimReport;
use cleanupspec_core::scheme::{
    CommitAction, CommittedLoad, LoadIssue, LoadIssuePolicy, SpeculationScheme, SquashInfo,
    SquashResponse,
};
use cleanupspec_core::stats::CpiStack;
use cleanupspec_core::{DataMem, Pipeline, System};
use cleanupspec_mem::hierarchy::{LoadOutcome, MemHierarchy};
use cleanupspec_mem::types::{CoreId, Cycle};
use cleanupspec_mem::SimError;
use cleanupspec_obs::{EventSink, SimEvent};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    /// Time spent in timed sinks on this thread so far.
    static SINK_NS: Cell<u64> = const { Cell::new(0) };
    /// Time spent in timed hooks on this thread so far, sinks included.
    static HOOK_NS: Cell<u64> = const { Cell::new(0) };
    /// The part of `HOOK_NS` spent in sinks called from inside hooks.
    static HOOK_SINK_NS: Cell<u64> = const { Cell::new(0) };
}

fn bump(clock: &'static std::thread::LocalKey<Cell<u64>>, d: u64) {
    clock.with(|c| c.set(c.get() + d));
}

fn read(clock: &'static std::thread::LocalKey<Cell<u64>>) -> u64 {
    clock.with(Cell::get)
}

/// Call count and self time of one kind of call.
#[derive(Debug, Default)]
pub struct Tally {
    /// Self nanoseconds (children excluded).
    pub ns: AtomicU64,
    /// Calls.
    pub calls: AtomicU64,
}

impl Tally {
    /// Counts one call that took `ns` of self time.
    pub fn add(&self, ns: u64) {
        self.ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
    }

    /// Self nanoseconds so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Mean self nanoseconds per call (0 before the first call).
    pub fn mean_ns(&self) -> f64 {
        crate::report::ratio(self.ns() as f64, self.calls() as f64)
    }
}

/// The speculation-scheme hooks [`TimedScheme`] times.
#[derive(Debug, Default)]
pub struct HookTally {
    /// `issue_load`.
    pub issue_load: Tally,
    /// `commit_load`.
    pub commit_load: Tally,
    /// `on_squash`.
    pub on_squash: Tally,
    /// `on_load_visible`.
    pub on_load_visible: Tally,
}

impl HookTally {
    /// Self nanoseconds over every hook.
    pub fn total_ns(&self) -> u64 {
        self.issue_load.ns()
            + self.commit_load.ns()
            + self.on_squash.ns()
            + self.on_load_visible.ns()
    }
}

fn timed_hook<R>(tally: &Tally, f: impl FnOnce() -> R) -> R {
    let s0 = read(&SINK_NS);
    let t0 = now_ns();
    let r = f();
    let dur = now_ns() - t0;
    let sinks = read(&SINK_NS) - s0;
    bump(&HOOK_NS, dur);
    bump(&HOOK_SINK_NS, sinks);
    tally.add(dur.saturating_sub(sinks));
    r
}

/// A scheme decorator that times every hook and otherwise delegates.
#[derive(Debug)]
pub struct TimedScheme {
    inner: Box<dyn SpeculationScheme>,
    tally: Arc<HookTally>,
}

impl TimedScheme {
    /// Wraps `inner`, adding its hook times to `tally`.
    pub fn boxed(inner: Box<dyn SpeculationScheme>, tally: &Arc<HookTally>) -> Box<Self> {
        Box::new(TimedScheme {
            inner,
            tally: Arc::clone(tally),
        })
    }
}

impl SpeculationScheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        TimedScheme::boxed(self.inner.boxed_clone(), &self.tally)
    }

    fn issue_policy(&self) -> LoadIssuePolicy {
        self.inner.issue_policy()
    }

    fn issue_load(
        &mut self,
        mem: &mut MemHierarchy,
        req: LoadIssue,
    ) -> Result<LoadOutcome, SimError> {
        timed_hook(&self.tally.issue_load, || self.inner.issue_load(mem, req))
    }

    fn on_load_visible(
        &mut self,
        mem: &mut MemHierarchy,
        core: CoreId,
        load: CommittedLoad,
        now: Cycle,
    ) -> Option<Cycle> {
        timed_hook(&self.tally.on_load_visible, || {
            self.inner.on_load_visible(mem, core, load, now)
        })
    }

    fn commit_load(
        &mut self,
        mem: &mut MemHierarchy,
        core: CoreId,
        load: CommittedLoad,
        now: Cycle,
    ) -> CommitAction {
        timed_hook(&self.tally.commit_load, || {
            self.inner.commit_load(mem, core, load, now)
        })
    }

    fn waits_for_older_inflight(&self) -> bool {
        self.inner.waits_for_older_inflight()
    }

    fn stalls_issue_during_cleanup(&self) -> bool {
        self.inner.stalls_issue_during_cleanup()
    }

    fn uses_window_protection(&self) -> bool {
        self.inner.uses_window_protection()
    }

    fn on_squash(&mut self, mem: &mut MemHierarchy, info: SquashInfo<'_>) -> SquashResponse {
        timed_hook(&self.tally.on_squash, || self.inner.on_squash(mem, info))
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.stat_counters()
    }
}

/// A sink decorator that times every `record` call.
pub struct TimedSink<S> {
    inner: S,
    tally: Arc<Tally>,
}

impl<S: EventSink> TimedSink<S> {
    /// Wraps `inner`, adding its record times to `tally`.
    pub fn boxed(inner: S, tally: &Arc<Tally>) -> Box<Self> {
        Box::new(TimedSink {
            inner,
            tally: Arc::clone(tally),
        })
    }
}

impl<S: EventSink> EventSink for TimedSink<S> {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        let t0 = now_ns();
        self.inner.record(cycle, event);
        let dur = now_ns() - t0;
        bump(&SINK_NS, dur);
        self.tally.add(dur);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// The simulated outputs a measured region is checked on. Two runs of
/// the same region, however they were driven, must agree on all of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellResult {
    /// Simulated cores.
    pub cores: u64,
    /// Cycles in the measured region.
    pub cycles: u64,
    /// Instructions committed across cores.
    pub insts: u64,
    /// The CPI stack merged across cores, one entry per stall cause.
    pub cpi_stack: Vec<u64>,
    /// Pipeline squashes across cores.
    pub squashes: u64,
    /// Scheme-internal counters of every core, in core order.
    pub scheme_counters: Vec<(String, u64)>,
}

impl CellResult {
    /// From the report of an untraced run.
    pub fn from_report(r: &SimReport) -> Self {
        CellResult {
            cores: r.cores.len() as u64,
            cycles: r.cycles,
            insts: r.total_insts(),
            cpi_stack: r.cpi_stack().iter().map(|(_, n)| n).collect(),
            squashes: r.cores.iter().map(|c| c.squashes).sum(),
            scheme_counters: r.scheme_counters.iter().flatten().cloned().collect(),
        }
    }

    /// Sum of the merged CPI stack: cores × cycles when accounting holds.
    pub fn cpi_total(&self) -> u64 {
        self.cpi_stack.iter().sum()
    }

    /// Cycles no core committed in, summed over cores (everything but
    /// the `commit` bucket, which comes first).
    pub fn idle_cycles(&self) -> u64 {
        self.cpi_total() - self.cpi_stack.first().copied().unwrap_or(0)
    }

    /// A scheme counter summed over cores.
    pub fn counter(&self, name: &str) -> u64 {
        self.scheme_counters
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Totals of the stepped loop over one or more measured regions.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopTally {
    /// Simulated cycles stepped.
    pub cycles: u64,
    /// `Pipeline::tick` calls (cycles × cores).
    pub ticks: u64,
    /// `Pipeline::tick` self time: hooks and sinks excluded.
    pub tick_self_ns: u64,
    /// `MemHierarchy::advance` self time: sinks excluded.
    pub advance_self_ns: u64,
    /// Sum over stepped cycles and cores of `mshr_occupancy`.
    pub mshr_sum: u64,
    /// Wall time of the stepping loops, timers included.
    pub wall_ns: u64,
}

/// A [`System`] taken apart and stepped from outside, in
/// `System::tick`'s order: advance memory, then tick each core.
pub struct Stepper {
    cores: Vec<Pipeline>,
    schemes: Vec<Box<dyn SpeculationScheme>>,
    mem: MemHierarchy,
    dmem: DataMem,
    now: Cycle,
    base: Cycle,
}

impl Stepper {
    /// Clones `sys`'s components, wrapping each scheme in a
    /// [`TimedScheme`]. The clones share `sys`'s observer, so its sinks
    /// see the stepped run. The measured region starts at `sys.now()`.
    pub fn from_system(sys: &System, hooks: &Arc<HookTally>) -> Self {
        let n = sys.mem().config().num_cores;
        Stepper {
            cores: (0..n).map(|i| sys.core(i).clone()).collect(),
            schemes: (0..n)
                .map(|i| {
                    TimedScheme::boxed(sys.scheme(i).boxed_clone(), hooks)
                        as Box<dyn SpeculationScheme>
                })
                .collect(),
            mem: sys.mem().clone(),
            dmem: sys.dmem().clone(),
            now: sys.now(),
            base: sys.now(),
        }
    }

    /// `System::reset_stats`: the start of a warmed measured region.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.reset_stats();
        }
        for s in &mut self.schemes {
            s.reset_stats();
        }
        self.mem.reset_stats();
    }

    /// Steps until every core halted or committed `max_insts_per_core`
    /// (the two successful stops of `System::run`). Returns false if
    /// `max_cycles` ran out first.
    pub fn run(&mut self, max_insts_per_core: u64, max_cycles: Cycle, t: &mut LoopTally) -> bool {
        let start = now_ns();
        let ok = loop {
            if self
                .cores
                .iter()
                .all(|c| c.halted() || c.stats().committed_insts >= max_insts_per_core)
            {
                break true;
            }
            if self.now >= max_cycles {
                break false;
            }
            self.now += 1;
            let s0 = read(&SINK_NS);
            let t0 = now_ns();
            self.mem.advance(self.now);
            let t1 = now_ns();
            t.advance_self_ns += (t1 - t0).saturating_sub(read(&SINK_NS) - s0);
            for (core, scheme) in self.cores.iter_mut().zip(self.schemes.iter_mut()) {
                let (s0, h0, hs0) = (read(&SINK_NS), read(&HOOK_NS), read(&HOOK_SINK_NS));
                let t0 = now_ns();
                core.tick(scheme.as_mut(), &mut self.mem, &mut self.dmem, self.now);
                let dur = now_ns() - t0;
                let hooks = read(&HOOK_NS) - h0;
                let direct_sinks = (read(&SINK_NS) - s0) - (read(&HOOK_SINK_NS) - hs0);
                t.tick_self_ns += dur.saturating_sub(hooks + direct_sinks);
                t.mshr_sum += self.mem.mshr_occupancy(core.core()) as u64;
            }
            t.cycles += 1;
            t.ticks += self.cores.len() as u64;
        };
        t.wall_ns += now_ns() - start;
        ok
    }

    /// The measured region's outputs, as [`CellResult::from_report`]
    /// would give them for the same region run by `System::run`.
    pub fn result(&self) -> CellResult {
        let mut stack = CpiStack::new();
        for c in &self.cores {
            stack.merge(&c.stats().cpi_stack);
        }
        CellResult {
            cores: self.cores.len() as u64,
            cycles: self.now - self.base,
            insts: self.cores.iter().map(|c| c.stats().committed_insts).sum(),
            cpi_stack: stack.iter().map(|(_, n)| n).collect(),
            squashes: self.cores.iter().map(|c| c.stats().squashes).sum(),
            scheme_counters: self
                .schemes
                .iter()
                .flat_map(|s| s.stat_counters())
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}
