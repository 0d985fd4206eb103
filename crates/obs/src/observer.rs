//! The shared [`Observer`] handle instrumented code emits through, and the
//! [`EventSink`] trait sinks implement.

use crate::event::{EventMask, SimEvent};
use std::fmt;
use std::sync::{Arc, Mutex};

/// A consumer of simulation events.
///
/// Sinks are driven strictly in emission order from the simulation thread
/// (the `Mutex` in [`Observer`] exists only to make the handle `Send` for
/// the parallel bench runner; there is no concurrent emission per run).
pub trait EventSink: Send {
    /// Consumes one event. `cycle` is the simulation cycle it occurred at.
    fn record(&mut self, cycle: u64, event: &SimEvent);

    /// The event kinds `record` reads; the observer delivers no others.
    /// Read once, when the sink is attached. Sinks that count, dump or
    /// time every event must keep the default, all kinds.
    fn interest(&self) -> EventMask {
        EventMask::ALL
    }

    /// Flushes buffered output. Called once when the run finishes.
    fn finish(&mut self) {}
}

/// The shared fan-out list behind an enabled [`Observer`]: each sink
/// with the interest it declared when attached.
type SinkList = Arc<Mutex<Vec<(EventMask, Box<dyn EventSink>)>>>;

/// A cloneable handle that fans events out to attached sinks.
///
/// The disabled handle (no sinks, the default) costs one branch per
/// emission site. So does an event no attached sink declared interest
/// in: it is dropped before any lock is taken.
#[derive(Clone, Default)]
pub struct Observer {
    sinks: Option<SinkList>,
    /// Union of the sinks' interests (empty when disabled).
    interest: EventMask,
}

impl Observer {
    /// A handle with no sinks; every `emit` is a no-op.
    pub fn disabled() -> Self {
        Observer::default()
    }

    /// A handle fanning out to `sinks` (disabled if the list is empty).
    pub fn new(sinks: Vec<Box<dyn EventSink>>) -> Self {
        if sinks.is_empty() {
            return Observer::disabled();
        }
        let sinks: Vec<_> = sinks.into_iter().map(|s| (s.interest(), s)).collect();
        let interest = sinks
            .iter()
            .fold(EventMask::NONE, |acc, &(m, _)| acc.union(m));
        Observer {
            sinks: Some(Arc::new(Mutex::new(sinks))),
            interest,
        }
    }

    /// A handle with a single sink.
    pub fn single(sink: Box<dyn EventSink>) -> Self {
        Observer::new(vec![sink])
    }

    /// Whether any sink is attached. Use to guard emission sites whose
    /// event *construction* is itself costly.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sinks.is_some()
    }

    /// Whether some attached sink reads a kind in `kinds`. Use to guard
    /// emission sites whose event construction is itself costly.
    #[inline]
    pub fn wants(&self, kinds: EventMask) -> bool {
        self.interest.intersects(kinds)
    }

    /// Records `event` at `cycle` in every sink interested in its kind.
    /// No-op when disabled.
    #[inline]
    pub fn emit(&self, cycle: u64, event: SimEvent) {
        if !self.interest.wants(&event) {
            return;
        }
        if let Some(sinks) = &self.sinks {
            let mut sinks = sinks.lock().expect("observer sink poisoned");
            for (interest, s) in sinks.iter_mut() {
                if interest.wants(&event) {
                    s.record(cycle, &event);
                }
            }
        }
    }

    /// Records the event produced by `make` — which runs only when a sink
    /// is attached, keeping argument computation off the disabled path.
    #[inline]
    pub fn emit_with(&self, cycle: u64, make: impl FnOnce() -> SimEvent) {
        if self.is_enabled() {
            self.emit(cycle, make());
        }
    }

    /// Calls [`EventSink::finish`] on every sink.
    pub fn finish(&self) {
        if let Some(sinks) = &self.sinks {
            let mut sinks = sinks.lock().expect("observer sink poisoned");
            for (_, s) in sinks.iter_mut() {
                s.finish();
            }
        }
    }
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.sinks {
            Some(s) => {
                let n = s.lock().map(|v| v.len()).unwrap_or(0);
                write!(f, "Observer({n} sinks)")
            }
            None => write!(f, "Observer(disabled)"),
        }
    }
}

/// A sink wrapper that keeps an inspectable handle on the caller's side.
///
/// [`Observer::new`] takes ownership of its sinks, but tests and the
/// `cs-trace` CLI need to read a sink back after the run (dump the ring,
/// ask the audit for its verdict). `Shared` clones hand the same
/// underlying sink to both sides:
///
/// ```
/// use cleanupspec_obs::{Observer, RingSink, Shared, SimEvent};
/// let ring = Shared::new(RingSink::new(16));
/// let obs = Observer::single(Box::new(ring.clone()));
/// obs.emit(3, SimEvent::DramWriteback { line: 0x40 });
/// assert_eq!(ring.with(|r| r.total_recorded()), 1);
/// ```
pub struct Shared<S>(Arc<Mutex<S>>);

impl<S> Clone for Shared<S> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<S: EventSink> Shared<S> {
    /// Wraps a sink for shared access.
    pub fn new(sink: S) -> Self {
        Shared(Arc::new(Mutex::new(sink)))
    }

    /// Runs `f` with exclusive access to the wrapped sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().expect("shared sink poisoned"))
    }
}

impl<S: EventSink> EventSink for Shared<S> {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        self.0
            .lock()
            .expect("shared sink poisoned")
            .record(cycle, event);
    }

    fn interest(&self) -> EventMask {
        self.0.lock().expect("shared sink poisoned").interest()
    }

    fn finish(&mut self) {
        self.0.lock().expect("shared sink poisoned").finish();
    }
}

impl<S: fmt::Debug> fmt::Debug for Shared<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        seen: u64,
        finished: bool,
    }
    impl EventSink for Counting {
        fn record(&mut self, _cycle: u64, _event: &SimEvent) {
            self.seen += 1;
        }
        fn finish(&mut self) {
            self.finished = true;
        }
    }

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        obs.emit(1, SimEvent::DramWriteback { line: 1 });
        obs.finish(); // must not panic
    }

    #[test]
    fn emit_fans_out_to_all_sinks() {
        let a = Shared::new(Counting::default());
        let b = Shared::new(Counting::default());
        let obs = Observer::new(vec![Box::new(a.clone()), Box::new(b.clone())]);
        assert!(obs.is_enabled());
        for c in 0..5 {
            obs.emit(c, SimEvent::DramWriteback { line: c });
        }
        obs.finish();
        assert_eq!(a.with(|s| s.seen), 5);
        assert_eq!(b.with(|s| s.seen), 5);
        assert!(a.with(|s| s.finished));
    }

    #[test]
    fn emit_with_skips_construction_when_disabled() {
        let obs = Observer::disabled();
        let mut called = false;
        obs.emit_with(0, || {
            called = true;
            SimEvent::DramWriteback { line: 0 }
        });
        assert!(!called);
    }

    #[test]
    fn empty_sink_list_is_disabled() {
        assert!(!Observer::new(Vec::new()).is_enabled());
    }

    /// Counts the events it is handed, declaring interest in `mask`.
    struct Picky {
        mask: EventMask,
        seen: Vec<&'static str>,
    }
    impl EventSink for Picky {
        fn record(&mut self, _cycle: u64, event: &SimEvent) {
            self.seen.push(event.kind());
        }
        fn interest(&self) -> EventMask {
            self.mask
        }
    }

    #[test]
    fn delivery_is_filtered_by_interest() {
        let writebacks = Shared::new(Picky {
            mask: EventMask::from_kinds(&["dram-writeback"]),
            seen: Vec::new(),
        });
        let all = Shared::new(Counting::default());
        let obs = Observer::new(vec![Box::new(writebacks.clone()), Box::new(all.clone())]);
        assert!(obs.wants(EventMask::from_kinds(&["dram-read"])));
        obs.emit(0, SimEvent::DramWriteback { line: 0 });
        obs.emit(1, SimEvent::DramRead { core: 0, line: 0 });
        assert_eq!(writebacks.with(|s| s.seen.clone()), ["dram-writeback"]);
        assert_eq!(all.with(|s| s.seen), 2);

        let only = Observer::single(Box::new(writebacks.clone()));
        assert!(only.wants(EventMask::from_kinds(&["dram-writeback", "commit"])));
        assert!(!only.wants(EventMask::from_kinds(&["commit"])));
        only.emit(2, SimEvent::DramRead { core: 0, line: 0 });
        assert_eq!(writebacks.with(|s| s.seen.len()), 1);
        assert!(!Observer::disabled().wants(EventMask::ALL));
    }

    #[test]
    fn declared_interests_name_real_kinds() {
        use crate::{CommitLogSink, EpisodeBuilder, LeakageAuditSink};
        let declared: [(&[&str], EventMask); 3] = [
            (
                LeakageAuditSink::INTEREST,
                LeakageAuditSink::new().interest(),
            ),
            (EpisodeBuilder::INTEREST, EpisodeBuilder::new().interest()),
            (CommitLogSink::INTEREST, CommitLogSink::new().interest()),
        ];
        for (names, mask) in declared {
            for name in names {
                assert!(SimEvent::KINDS.contains(name), "unknown kind {name}");
            }
            assert_eq!(EventMask::from_kinds(names), mask);
            assert_eq!(mask.len(), names.len(), "duplicate name in {names:?}");
        }
        assert_eq!(LeakageAuditSink::INTEREST.len(), 16);
        assert_eq!(EpisodeBuilder::INTEREST.len(), 21);
        // Both sinks wrap the same ledger, so the builder must receive
        // every kind the ledger reads.
        for name in LeakageAuditSink::INTEREST {
            assert!(EpisodeBuilder::INTEREST.contains(name), "{name}");
        }
        // A wrapper declares what it wraps.
        let shared = Shared::new(CommitLogSink::new());
        assert_eq!(shared.interest(), EventMask::from_kinds(&["commit"]));
    }

    #[test]
    fn clones_share_sinks() {
        let a = Shared::new(Counting::default());
        let obs = Observer::single(Box::new(a.clone()));
        let obs2 = obs.clone();
        obs.emit(0, SimEvent::DramWriteback { line: 0 });
        obs2.emit(1, SimEvent::DramWriteback { line: 1 });
        assert_eq!(a.with(|s| s.seen), 2);
    }
}
