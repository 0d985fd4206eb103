//! `cs-exec` — the shared campaign executor.
//!
//! Every harness in this crate sweeps some matrix of independent,
//! deterministic simulations: workloads × security modes (`cs-bench`,
//! the figure binaries), fuzz seeds (`cs-smith`), fault classes
//! (`cs-chaos`). They all run on one self-scheduling executor:
//!
//! * `threads` scoped workers claim task indices one at a time from a
//!   **shared atomic counter**, so a straggler task delays only itself —
//!   every other task goes to whichever worker frees up first;
//! * **indexed result slots**: the result of task `i` lands in slot `i`
//!   regardless of which worker ran it or when, so output order is input
//!   order and — because every task is seed-deterministic — the whole
//!   outcome is byte-identical at any `--threads` value (pinned by
//!   `tests/exec_invariance.rs`);
//! * per-task [`std::panic::catch_unwind`] isolation: a panicking task
//!   costs its own slot and is reported by index with its panic message,
//!   while the remaining tasks still run;
//! * per-task timing counters that flow into the existing
//!   [`cleanupspec_obs::MetricsRegistry`] host-profiling section.
//!
//! Everything is std-only (scoped threads and one `AtomicUsize`),
//! respecting the hermetic no-registry build. See `docs/EXECUTOR.md` for
//! the design and the determinism guarantee.

mod pool;
mod sweep;

pub use pool::{default_threads, run_indexed, ExecConfig, ExecOutcome, ExecStats, TaskFailure};
pub use sweep::{ModeSweep, Sweep, SweepFailure, SweepResult, SweepRun};

pub(crate) use pool::panic_message;
#[cfg(test)]
pub(crate) use sweep::run_spec_once;
