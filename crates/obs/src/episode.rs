//! Speculation-episode forensics: online reconstruction of cleanup
//! *episodes* from the event stream, plus an undo-coverage ledger.
//!
//! An **episode** is one invocation of a scheme's cleanup: it opens with
//! the first [`SimEvent::Squash`] that finds no cleanup already pending
//! (squashes that merge into a wait-for-inflight phase share the episode
//! of the cleanup they widen), and closes with the matching
//! [`SimEvent::CleanupEnd`]. Every cleanup-related event carries the
//! episode id (see [`SimEvent::episode`]), so the builder can run either
//! live (attached as a sink) or offline over a replayed JSONL trace and
//! produce identical records.
//!
//! The **undo-coverage ledger** (`ledger.rs`) checks the undo invariant
//! at episode granularity: every speculative fill belonging to a squashed
//! load must be accounted for as *invalidated* (possibly raced — the fill
//! landed after the squash and was still unwound), *never installed*
//! (epoch-dropped in flight), or legitimized by the correct path. Every
//! victim displaced by a squashed install must be restored. Anything left
//! over becomes an [`EpisodeLeak`] finding, attributed to the episode
//! whose cleanup should have covered it. The builder is that ledger plus
//! the episode-shape records; [`crate::audit::LeakageAuditSink`] is the
//! same ledger with the episodes projected away.

use crate::event::{EventMask, SimEvent};
use crate::ledger::Ledger;
use crate::observer::EventSink;
use std::collections::HashMap;

/// What a cleanup episode failed to undo.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LeakKind {
    /// A transiently filled line survived in L1 past its episode.
    TransientInstallL1,
    /// A transiently filled line survived in L2 past its episode.
    TransientInstallL2,
    /// A victim of a speculative eviction was never restored.
    MissingRestore,
    /// A line was cleanup-invalidated twice with no fill in between.
    DoubleUndo,
    /// A speculative request downgraded a remote modified copy.
    SpeculativeDowngrade,
    /// A squashed load's fill installed anyway (orphan fill).
    OrphanInstall,
}

impl LeakKind {
    /// Stable kebab-case name (used by cs-report output).
    pub fn as_str(self) -> &'static str {
        match self {
            LeakKind::TransientInstallL1 => "transient-install-l1",
            LeakKind::TransientInstallL2 => "transient-install-l2",
            LeakKind::MissingRestore => "missing-restore",
            LeakKind::DoubleUndo => "double-undo",
            LeakKind::SpeculativeDowngrade => "speculative-downgrade",
            LeakKind::OrphanInstall => "orphan-install",
        }
    }
}

impl std::fmt::Display for LeakKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One ledger imbalance: undo state that outlived (or violated) its
/// episode.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EpisodeLeak {
    /// The core whose speculation leaked.
    pub core: usize,
    /// The episode whose cleanup should have covered it (0 = the leak
    /// could not be attributed to any episode, e.g. a speculative
    /// downgrade whose requester never squashed).
    pub episode: u64,
    /// The affected cache line.
    pub line: u64,
    /// What leaked.
    pub kind: LeakKind,
}

impl std::fmt::Display for EpisodeLeak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "core{} episode{} line=0x{:x}: {}",
            self.core, self.episode, self.line, self.kind
        )
    }
}

/// The reconstructed shape of one cleanup episode.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpisodeRecord {
    /// Squashing core.
    pub core: usize,
    /// Episode id (1-based, per-core monotonic).
    pub id: u64,
    /// Sequence number of the first squash that opened the episode.
    pub seq: u64,
    /// Cycle of the opening squash.
    pub start: u64,
    /// Cycle cleanup was handed to the scheme (0 until seen).
    pub cleanup_start: u64,
    /// Cycle issue resumed (0 while the episode is still open).
    pub end: u64,
    /// Squash events merged into the episode (>= 1).
    pub squashes: u64,
    /// Instructions squashed, summed over merged squashes.
    pub squashed_insns: u64,
    /// Squashed loads with a known line.
    pub loads: u64,
    /// Of those, loads that had issued to the hierarchy.
    pub loads_issued: u64,
    /// CleanupSpec invalidations performed.
    pub invals: u64,
    /// CleanupSpec victim restores performed.
    pub restores: u64,
    /// Fills epoch-dropped in flight (never installed).
    pub dropped_fills: u64,
    /// Invalidated fills that had landed *after* the squash — the race
    /// CleanupSpec's wait-for-inflight phase exists to unwind.
    pub raced_fills: u64,
    /// Window-protection dummy misses other cores took against this
    /// episode's transient lines (claimed from the prospective buffer
    /// when the episode opens).
    pub dummy_misses: u64,
    /// Epoch bumps (in-flight drop points) in the episode.
    pub epoch_bumps: u64,
    /// Issue-stall cycles the cleanup charged.
    pub stall: u64,
    /// High-water mark of live SEFE (speculative MSHR) entries while the
    /// episode was open.
    pub sefe_high: u64,
    /// Cycles the *next* squash on this core arrived before this
    /// episode's resume (0 = no overlap).
    pub overlap_next: u64,
    /// Whether the episode's CleanupEnd was seen.
    pub closed: bool,
}

impl EpisodeRecord {
    /// Full duration: opening squash to issue resume. 0 while open.
    pub fn duration(&self) -> u64 {
        if self.closed {
            self.end.saturating_sub(self.start)
        } else {
            0
        }
    }
}

/// The builder's verdict over a run (or a replayed trace).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpisodeReport {
    /// All reconstructed episodes, sorted by (core, id).
    pub episodes: Vec<EpisodeRecord>,
    /// All ledger imbalances, sorted.
    pub leaks: Vec<EpisodeLeak>,
}

impl EpisodeReport {
    /// Whether every episode closed with a balanced ledger.
    pub fn clean(&self) -> bool {
        self.leaks.is_empty()
    }

    /// Episodes still open when the run ended (truncation, livelock).
    pub fn open_episodes(&self) -> usize {
        self.episodes.iter().filter(|e| !e.closed).count()
    }
}

impl std::fmt::Display for EpisodeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "episodes: {} reconstructed ({} open at end of run)",
            self.episodes.len(),
            self.open_episodes()
        )?;
        if self.clean() {
            write!(f, "episodes: BALANCED — every undo ledger closed clean")
        } else {
            writeln!(f, "episodes: LEAKY — {} finding(s):", self.leaks.len())?;
            for l in &self.leaks {
                writeln!(f, "  {l}")?;
            }
            Ok(())
        }
    }
}

#[derive(Default, Debug)]
struct CoreState {
    /// Episodes keyed by id, so re-emission after a snapshot restore
    /// overwrites instead of duplicating.
    episodes: HashMap<u64, EpisodeRecord>,
    /// Dummy misses carrying a *prospective* episode id (the protected
    /// window has not squashed yet): `(prospective_id, line)`. Claimed
    /// when the episode opens, discarded when the protected line retires.
    pending_dummy: Vec<(u64, u64)>,
    /// Live speculative MSHR entries (SEFEs), tracked from alloc/retire.
    sefe_live: u64,
}

impl CoreState {
    fn rec(&mut self, id: u64, core: usize) -> &mut EpisodeRecord {
        self.episodes.entry(id).or_insert_with(|| EpisodeRecord {
            core,
            id,
            ..EpisodeRecord::default()
        })
    }
}

/// Online reconstruction of cleanup episodes + undo-coverage ledger.
///
/// Attach as a sink ([`crate::observer::Shared`] makes it retrievable
/// afterwards), or feed it a replayed trace event by event; call
/// [`EpisodeBuilder::report`] once the run has drained.
#[derive(Default, Debug)]
pub struct EpisodeBuilder {
    ledger: Ledger,
    cores: Vec<CoreState>,
}

impl EpisodeBuilder {
    /// The kinds [`EventSink::record`] reads: the ledger's, plus the ones
    /// only the episode shape needs.
    pub const INTEREST: &'static [&'static str] = &[
        "squash",
        "squashed-load",
        "cleanup-start",
        "cleanup-end",
        "cleanup-inval",
        "cleanup-restore",
        "dropped-fill",
        "epoch-bump",
        "dummy-miss",
        "load-issue",
        "fill",
        "orphan-fill",
        "evict",
        "back-inval",
        "clflush",
        "commit",
        "spec-retire",
        "downgrade",
        "mshr-alloc",
        "mshr-retire",
        "snapshot-restored",
    ];

    /// An empty builder.
    pub fn new() -> Self {
        EpisodeBuilder::default()
    }

    fn core(&mut self, i: usize) -> &mut CoreState {
        if self.cores.len() <= i {
            self.cores.resize_with(i + 1, CoreState::default);
        }
        &mut self.cores[i]
    }

    /// Computes the verdict from the events seen so far. Call after the
    /// simulation has drained: late orphan fills are leaks too.
    pub fn report(&self) -> EpisodeReport {
        let mut episodes: Vec<EpisodeRecord> = self
            .cores
            .iter()
            .flat_map(|c| c.episodes.values().cloned())
            .collect();
        episodes.sort_by_key(|e| (e.core, e.id));
        // Overlap: how far the next squash on the same core cut into this
        // episode's stall window.
        for i in 0..episodes.len().saturating_sub(1) {
            let (a, b) = (&episodes[i], &episodes[i + 1]);
            if a.core == b.core && a.closed && b.start < a.end {
                let overlap = a.end - b.start;
                episodes[i].overlap_next = overlap;
            }
        }
        EpisodeReport {
            episodes,
            leaks: self.ledger.leaks(),
        }
    }
}

impl EventSink for EpisodeBuilder {
    fn interest(&self) -> EventMask {
        const MASK: EventMask = EventMask::from_kinds(EpisodeBuilder::INTEREST);
        MASK
    }

    fn record(&mut self, cycle: u64, event: &SimEvent) {
        let raced = match *event {
            SimEvent::CleanupInval {
                core, line, l1, l2, ..
            } => self.ledger.raced(core, line, l1, l2),
            _ => false,
        };
        self.ledger.record(cycle, event);
        match *event {
            SimEvent::Squash {
                core,
                seq,
                squashed,
                episode,
            } if episode != 0 => {
                let c = self.core(core);
                let fresh = !c.episodes.contains_key(&episode);
                let r = c.rec(episode, core);
                if fresh {
                    r.seq = seq;
                    r.start = cycle;
                }
                r.squashes += 1;
                r.squashed_insns += squashed;
                // Claim window-protection dummies buffered under this
                // (previously prospective) episode id; ids that never
                // opened stay buffered until their line retires or the
                // run ends.
                let mut claimed = 0;
                c.pending_dummy.retain(|&(id, _)| {
                    if id == episode {
                        claimed += 1;
                        false
                    } else {
                        true
                    }
                });
                c.rec(episode, core).dummy_misses += claimed;
            }
            SimEvent::SquashedLoad {
                core,
                issued,
                episode,
                ..
            } if episode != 0 => {
                let r = self.core(core).rec(episode, core);
                r.loads += 1;
                r.loads_issued += u64::from(issued);
            }
            SimEvent::CleanupStart {
                core,
                stall,
                episode,
                ..
            } if episode != 0 => {
                let r = self.core(core).rec(episode, core);
                r.cleanup_start = cycle;
                r.stall = stall;
            }
            SimEvent::CleanupEnd {
                core,
                stall,
                episode,
            } if episode != 0 => {
                let r = self.core(core).rec(episode, core);
                r.end = cycle;
                r.stall = stall;
                r.closed = true;
            }
            SimEvent::CleanupInval { core, episode, .. } if episode != 0 => {
                let r = self.core(core).rec(episode, core);
                r.invals += 1;
                r.raced_fills += u64::from(raced);
            }
            SimEvent::CleanupRestore { core, episode, .. } if episode != 0 => {
                self.core(core).rec(episode, core).restores += 1;
            }
            SimEvent::DroppedFill { core, episode, .. } if episode != 0 => {
                self.core(core).rec(episode, core).dropped_fills += 1;
            }
            SimEvent::EpochBump { core, episode, .. } if episode != 0 => {
                self.core(core).rec(episode, core).epoch_bumps += 1;
            }
            SimEvent::DummyMiss {
                line,
                owner,
                episode,
                ..
            } if episode != 0 => {
                // Prospective attribution: buffered under the episode id
                // the owner's squash *would* open.
                let c = self.core(owner);
                if c.episodes.contains_key(&episode) {
                    // The episode already opened (more squashes merged
                    // in while its cleanup waits): claim directly.
                    c.rec(episode, owner).dummy_misses += 1;
                } else {
                    c.pending_dummy.push((episode, line));
                }
            }
            SimEvent::SpecRetire { core, line } => {
                // The protected window retired without squashing: its
                // prospective dummy misses belong to no episode.
                self.core(core).pending_dummy.retain(|&(_, l)| l != line);
            }
            SimEvent::MshrAlloc {
                core, spec: true, ..
            } => {
                let open = self.ledger.open(core);
                let c = self.core(core);
                c.sefe_live += 1;
                if let Some(id) = open {
                    let live = c.sefe_live;
                    let r = c.rec(id, core);
                    r.sefe_high = r.sefe_high.max(live);
                }
            }
            SimEvent::MshrRetire {
                core, spec: true, ..
            } => {
                let c = self.core(core);
                c.sefe_live = c.sefe_live.saturating_sub(1);
            }
            SimEvent::SnapshotRestored { at } => {
                // The timeline rewinds to `at`: episodes that closed
                // before it are final; everything else will be re-emitted
                // (possibly differently) on the resumed path, so drop the
                // volatile state rather than double-count it. The ledger
                // rewinds itself.
                for c in &mut self.cores {
                    c.episodes.retain(|_, r| r.closed && r.end <= at);
                    c.pending_dummy.clear();
                    c.sefe_live = 0;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheLevel, PathKind};

    fn issue(core: usize, line: u64, spec: bool) -> SimEvent {
        SimEvent::LoadIssue {
            core,
            seq: 0,
            line,
            path: PathKind::Mem,
            spec,
            latency: 100,
        }
    }

    fn fill(core: usize, line: u64, level: CacheLevel) -> SimEvent {
        SimEvent::Fill {
            core,
            line,
            level,
            spec: true,
        }
    }

    fn squash(core: usize, seq: u64, episode: u64) -> SimEvent {
        SimEvent::Squash {
            core,
            seq,
            squashed: 3,
            episode,
        }
    }

    fn squashed_load(core: usize, line: u64, episode: u64) -> SimEvent {
        SimEvent::SquashedLoad {
            core,
            line,
            issued: true,
            episode,
        }
    }

    fn inval(core: usize, line: u64, episode: u64) -> SimEvent {
        SimEvent::CleanupInval {
            core,
            line,
            l1: true,
            l2: true,
            seq: 1,
            episode,
        }
    }

    fn end(core: usize, episode: u64, stall: u64) -> SimEvent {
        SimEvent::CleanupEnd {
            core,
            stall,
            episode,
        }
    }

    /// Full clean episode: squash -> cleanup -> inval + restore -> end.
    #[test]
    fn clean_episode_reconstructs_and_balances() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(5, &fill(0, 7, CacheLevel::L2));
        b.record(5, &fill(0, 7, CacheLevel::L1));
        b.record(
            6,
            &SimEvent::Evict {
                core: 0,
                line: 5,
                level: CacheLevel::L1,
                dirty: false,
                evictor: Some(7),
            },
        );
        b.record(10, &squash(0, 1, 1));
        b.record(10, &squashed_load(0, 7, 1));
        b.record(
            11,
            &SimEvent::CleanupStart {
                core: 0,
                loads: 1,
                stall: 20,
                episode: 1,
            },
        );
        b.record(11, &inval(0, 7, 1));
        b.record(
            12,
            &SimEvent::CleanupRestore {
                core: 0,
                line: 5,
                evictor: 7,
                seq: 1,
                episode: 1,
            },
        );
        b.record(31, &end(0, 1, 20));
        let r = b.report();
        assert!(r.clean(), "{r}");
        assert_eq!(r.episodes.len(), 1);
        let e = &r.episodes[0];
        assert_eq!((e.core, e.id, e.seq), (0, 1, 1));
        assert_eq!((e.start, e.cleanup_start, e.end), (10, 11, 31));
        assert_eq!(e.duration(), 21);
        assert_eq!((e.loads, e.invals, e.restores), (1, 1, 1));
        assert_eq!(e.stall, 20);
        assert!(e.closed);
    }

    #[test]
    fn missing_restore_is_attributed_to_its_episode() {
        let mut b = EpisodeBuilder::new();
        b.record(
            0,
            &SimEvent::Evict {
                core: 0,
                line: 5,
                level: CacheLevel::L1,
                dirty: false,
                evictor: Some(9),
            },
        );
        b.record(1, &squash(0, 1, 4));
        b.record(1, &squashed_load(0, 9, 4));
        b.record(2, &end(0, 4, 5));
        let r = b.report();
        assert_eq!(r.leaks.len(), 1);
        assert_eq!(r.leaks[0].kind, LeakKind::MissingRestore);
        assert_eq!(r.leaks[0].episode, 4);
        assert_eq!(r.leaks[0].line, 5);
    }

    #[test]
    fn skipped_inval_leaks_transient_install_with_episode() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(1, &fill(0, 7, CacheLevel::L1));
        b.record(2, &squash(0, 1, 2));
        b.record(2, &squashed_load(0, 7, 2));
        b.record(3, &end(0, 2, 5));
        let r = b.report();
        assert_eq!(r.leaks.len(), 1);
        assert_eq!(r.leaks[0].kind, LeakKind::TransientInstallL1);
        assert_eq!(r.leaks[0].episode, 2);
    }

    #[test]
    fn double_undo_is_eager_and_episode_tagged() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(1, &fill(0, 7, CacheLevel::L1));
        b.record(2, &squash(0, 1, 1));
        b.record(2, &squashed_load(0, 7, 1));
        b.record(3, &inval(0, 7, 1));
        b.record(4, &inval(0, 7, 1));
        let r = b.report();
        assert!(r.leaks.contains(&EpisodeLeak {
            core: 0,
            episode: 1,
            line: 7,
            kind: LeakKind::DoubleUndo,
        }));
    }

    /// A fill landing after the squash but unwound by the cleanup is a
    /// raced fill, not a leak.
    #[test]
    fn raced_fill_is_counted_and_clean() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(5, &squash(0, 1, 1));
        b.record(5, &squashed_load(0, 7, 1));
        // Fill lands during the wait-for-inflight phase...
        b.record(8, &fill(0, 7, CacheLevel::L1));
        // ...and the cleanup still unwinds it.
        b.record(9, &inval(0, 7, 1));
        b.record(10, &end(0, 1, 5));
        let r = b.report();
        assert!(r.clean(), "{r}");
        assert_eq!(r.episodes[0].raced_fills, 1);
        assert_eq!(r.episodes[0].invals, 1);
    }

    #[test]
    fn dropped_fill_settles_the_ledger() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 3, true));
        b.record(1, &squash(0, 1, 1));
        b.record(1, &squashed_load(0, 3, 1));
        b.record(
            2,
            &SimEvent::EpochBump {
                core: 0,
                epoch: 1,
                dropped: 1,
                episode: 1,
            },
        );
        b.record(3, &end(0, 1, 5));
        b.record(
            40,
            &SimEvent::DroppedFill {
                core: 0,
                line: 3,
                episode: 1,
            },
        );
        let r = b.report();
        assert!(r.clean(), "{r}");
        assert_eq!(r.episodes[0].dropped_fills, 1);
        assert_eq!(r.episodes[0].epoch_bumps, 1);
    }

    #[test]
    fn orphan_fill_is_a_leak() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 9, true));
        b.record(1, &squash(0, 1, 1));
        b.record(1, &squashed_load(0, 9, 1));
        b.record(2, &end(0, 1, 0));
        b.record(50, &fill(0, 9, CacheLevel::L1));
        b.record(50, &SimEvent::OrphanFill { core: 0, line: 9 });
        let r = b.report();
        assert!(!r.clean());
        assert!(r
            .leaks
            .iter()
            .any(|l| l.kind == LeakKind::OrphanInstall && l.episode == 1));
    }

    /// Merged squashes (arriving while a cleanup waits on in-flight
    /// loads) widen the episode instead of opening a new one.
    #[test]
    fn merged_squashes_share_one_episode() {
        let mut b = EpisodeBuilder::new();
        b.record(10, &squash(0, 1, 1));
        b.record(10, &squashed_load(0, 7, 1));
        b.record(15, &squash(0, 2, 1));
        b.record(15, &squashed_load(0, 8, 1));
        b.record(30, &end(0, 1, 10));
        let r = b.report();
        assert_eq!(r.episodes.len(), 1);
        let e = &r.episodes[0];
        assert_eq!(e.squashes, 2);
        assert_eq!(e.loads, 2);
        assert_eq!(e.seq, 1, "episode keeps the opening squash's seq");
        assert_eq!(e.start, 10, "and its cycle");
    }

    /// Window-protection dummies carry a prospective episode id: claimed
    /// if that episode opens, dropped if the protected line retires.
    #[test]
    fn prospective_dummy_misses_claimed_on_open() {
        let mut b = EpisodeBuilder::new();
        let dummy = SimEvent::DummyMiss {
            core: 1,
            line: 7,
            owner: 0,
            episode: 1,
        };
        b.record(5, &dummy);
        b.record(6, &dummy);
        b.record(10, &squash(0, 1, 1));
        b.record(11, &end(0, 1, 0));
        let r = b.report();
        assert_eq!(r.episodes[0].dummy_misses, 2);
    }

    #[test]
    fn dummy_misses_for_retired_window_are_discarded() {
        let mut b = EpisodeBuilder::new();
        b.record(
            5,
            &SimEvent::DummyMiss {
                core: 1,
                line: 7,
                owner: 0,
                episode: 1,
            },
        );
        // The protected load retires: no episode 1 from this window.
        b.record(8, &SimEvent::SpecRetire { core: 0, line: 7 });
        // A later, unrelated squash opens episode 1.
        b.record(20, &squash(0, 9, 1));
        b.record(21, &end(0, 1, 0));
        let r = b.report();
        assert_eq!(r.episodes[0].dummy_misses, 0);
    }

    #[test]
    fn speculative_downgrade_attributed_via_squashed_load() {
        let mut b = EpisodeBuilder::new();
        b.record(
            0,
            &SimEvent::Downgrade {
                owner: 1,
                line: 3,
                spec: true,
            },
        );
        b.record(1, &squash(0, 1, 1));
        b.record(1, &squashed_load(0, 3, 1));
        b.record(2, &inval(0, 3, 1));
        b.record(3, &end(0, 1, 0));
        let r = b.report();
        assert_eq!(r.leaks.len(), 1);
        let l = r.leaks[0];
        assert_eq!(l.kind, LeakKind::SpeculativeDowngrade);
        assert_eq!((l.core, l.episode), (0, 1), "pinned to the requester");
    }

    #[test]
    fn unclaimed_downgrade_reports_unattributed() {
        let mut b = EpisodeBuilder::new();
        b.record(
            0,
            &SimEvent::Downgrade {
                owner: 1,
                line: 3,
                spec: true,
            },
        );
        let r = b.report();
        assert_eq!(r.leaks.len(), 1);
        assert_eq!(r.leaks[0].episode, 0);
        assert_eq!(r.leaks[0].core, 1, "falls back to the victim owner");
    }

    #[test]
    fn sefe_high_water_tracks_open_episode() {
        let mut b = EpisodeBuilder::new();
        let alloc = |occ| SimEvent::MshrAlloc {
            core: 0,
            line: occ,
            spec: true,
            occupancy: occ,
        };
        b.record(0, &alloc(1));
        b.record(1, &squash(0, 1, 1));
        b.record(2, &alloc(2));
        b.record(3, &alloc(3));
        b.record(
            4,
            &SimEvent::MshrRetire {
                core: 0,
                line: 1,
                spec: true,
                occupancy: 2,
            },
        );
        b.record(10, &end(0, 1, 0));
        let r = b.report();
        assert_eq!(r.episodes[0].sefe_high, 3);
    }

    #[test]
    fn overlap_with_next_squash_is_computed() {
        let mut b = EpisodeBuilder::new();
        b.record(10, &squash(0, 1, 1));
        b.record(30, &end(0, 1, 20));
        // Next squash lands 5 cycles before episode 1's resume would
        // have completed... (distinct episode: cleanup had finished its
        // wait phase, but the resume window still overlaps)
        b.record(25, &squash(0, 2, 2));
        b.record(40, &end(0, 2, 10));
        let r = b.report();
        assert_eq!(r.episodes[0].overlap_next, 5);
        assert_eq!(r.episodes[1].overlap_next, 0);
    }

    /// Snapshot restore: closed episodes are final; open/volatile state
    /// belongs to the abandoned timeline and is dropped, so re-emission
    /// neither double-counts nor orphans episodes.
    #[test]
    fn snapshot_restore_drops_abandoned_timeline() {
        let mut b = EpisodeBuilder::new();
        // Episode 1 closes before the snapshot point.
        b.record(10, &squash(0, 1, 1));
        b.record(10, &squashed_load(0, 7, 1));
        b.record(12, &end(0, 1, 2));
        // Episode 2 opens after it — then the run rewinds to cycle 20.
        b.record(30, &squash(0, 2, 2));
        b.record(30, &squashed_load(0, 8, 2));
        b.record(0, &SimEvent::SnapshotRestored { at: 20 });
        // The resumed timeline re-emits episode 2 (same id, forked path).
        b.record(35, &squash(0, 2, 2));
        b.record(35, &squashed_load(0, 8, 2));
        b.record(36, &inval(0, 8, 2));
        b.record(40, &end(0, 2, 5));
        let r = b.report();
        assert_eq!(r.episodes.len(), 2, "no duplicate episode 2");
        let e2 = &r.episodes[1];
        assert_eq!(e2.squashes, 1, "pre-restore squash not double-counted");
        assert_eq!(e2.loads, 1);
        assert_eq!(e2.start, 35, "record reflects the resumed timeline");
        assert!(r.clean(), "{r}");
    }

    #[test]
    fn truncated_episode_stays_open_in_report() {
        let mut b = EpisodeBuilder::new();
        b.record(10, &squash(0, 1, 1));
        b.record(10, &squashed_load(0, 7, 1));
        // Run ends (max_cycles / livelock) before CleanupEnd.
        let r = b.report();
        assert_eq!(r.open_episodes(), 1);
        assert!(!r.episodes[0].closed);
        assert_eq!(r.episodes[0].duration(), 0);
    }

    #[test]
    fn report_display_mentions_verdict() {
        let b = EpisodeBuilder::new();
        assert!(b.report().to_string().contains("BALANCED"));
    }
}
