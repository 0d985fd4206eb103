//! The undo-coverage ledger: the one state machine behind both the
//! leakage audit ([`crate::audit::LeakageAuditSink`]) and the episode
//! forensics ([`crate::episode::EpisodeBuilder`]).
//!
//! The ledger watches every speculative load issue. Fills on a watched
//! line mark speculation-attributable *presence* per cache level; evicts,
//! back-invalidations, flushes, and CleanupSpec invalidations clear it.
//! When the load commits, its presence becomes architectural and the
//! watch is dropped. When it is squashed instead, the presence must be
//! gone by the end of the run — any remaining bit is exactly the
//! secret-dependent footprint a cache side channel reads out.
//!
//! Symmetrically, a speculative install that evicts a victim line puts
//! the victim on an *owed-restore* list, tagged with the evicting line.
//! The debt comes *due* only if the evicting load is squashed — a
//! speculative load that retires keeps its eviction, exactly as a
//! non-speculative one would. A `cleanup-restore`, an L1 refill, or an
//! architectural re-access settles the debt; a retire of the evictor
//! forgives it.
//!
//! Every finding is an [`EpisodeLeak`] pinned to the episode whose
//! cleanup should have covered it (0 = unattributed). The findings are
//! computed lazily by [`Ledger::leaks`] so that orphan fills landing
//! cycles after the squash (the classic insecure-mode leak — drain the
//! simulation before asking!) are still caught.

use crate::episode::{EpisodeLeak, LeakKind};
use crate::event::{CacheLevel, SimEvent};
use std::collections::HashMap;

/// Per-line speculative-fill watch.
#[derive(Clone, Copy, Default, Debug)]
struct Watch {
    /// Episode the line's squash joined (0 = not squashed yet).
    episode: u64,
    squashed: bool,
    /// Cycle of the SquashedLoad event (valid when `squashed`).
    squashed_at: u64,
    present_l1: bool,
    present_l2: bool,
    /// Cycle of the most recent fill per level (valid when present).
    fill_l1_at: u64,
    fill_l2_at: u64,
    /// A `cleanup-inval` already targeted this line and no fill has landed
    /// since: a second inval is a double undo, which on real hardware would
    /// invalidate state the cleanup walk no longer owns.
    cleaned: bool,
    /// Marked by OrphanFill (which also sets `squashed`): the L1
    /// presence is the squashed load's own late install.
    orphan: bool,
}

/// A victim owed a restore if its evictor is squashed.
#[derive(Clone, Copy, Debug)]
struct Owed {
    /// The line whose speculative install displaced the victim.
    evictor: u64,
    /// Episode of the evictor's squash (0 until due).
    episode: u64,
    /// The evictor was squashed, so the restore is actually owed.
    due: bool,
    /// The victim came back (cleanup-restore, refill, re-access).
    settled: bool,
}

#[derive(Default, Debug)]
struct CoreLedger {
    /// Speculatively accessed lines -> speculation-attributable presence.
    watch: HashMap<u64, Watch>,
    /// Victims of speculative evictions -> the restore they may be owed.
    owed: HashMap<u64, Owed>,
    /// Id of the currently open episode, if any.
    open: Option<u64>,
    /// Highest episode id a squash has opened (0 = none yet).
    last: u64,
}

impl CoreLedger {
    /// Forgives restores owed to `evictor`'s install: the line retired
    /// (or was re-accessed architecturally), so the install that did the
    /// evicting is architectural and the eviction stands. This also
    /// covers debts marked due by a squashed *younger duplicate* load of
    /// the same line — under MSHR merging, several in-flight instances
    /// share one install, and only the install's own fate (retire vs.
    /// squash-and-cleanup) decides whether the victim is owed a restore.
    fn forgive_evictor(&mut self, evictor: u64) {
        self.owed.retain(|_, o| o.evictor != evictor);
    }
}

/// A finding detected at record time (a protocol violation that is wrong
/// the moment it happens). The emission cycle rides along so snapshot
/// restores can drop findings from the abandoned timeline.
#[derive(Clone, Copy, Debug)]
struct EagerLeak {
    at: u64,
    leak: EpisodeLeak,
}

/// Event-correlating undo-coverage state machine.
#[derive(Default, Debug)]
pub(crate) struct Ledger {
    cores: Vec<CoreLedger>,
    /// Speculative downgrades awaiting attribution: `(line, owner)`.
    /// Claimed by the requester's SquashedLoad of the same line;
    /// reported unattributed (episode 0) against the owner otherwise.
    pending_downgrades: Vec<(u64, usize)>,
    eager: Vec<EagerLeak>,
}

impl Ledger {
    /// The kinds [`Ledger::record`] reads: one per `match` arm.
    pub(crate) const INTEREST: &'static [&'static str] = &[
        "load-issue",
        "fill",
        "orphan-fill",
        "evict",
        "back-inval",
        "clflush",
        "squash",
        "squashed-load",
        "commit",
        "cleanup-inval",
        "cleanup-restore",
        "spec-retire",
        "downgrade",
        "dropped-fill",
        "cleanup-end",
        "snapshot-restored",
    ];

    fn core(&mut self, i: usize) -> &mut CoreLedger {
        if self.cores.len() <= i {
            self.cores.resize_with(i + 1, CoreLedger::default);
        }
        &mut self.cores[i]
    }

    /// The episode currently open on `core`, if any.
    pub(crate) fn open(&self, core: usize) -> Option<u64> {
        self.cores.get(core).and_then(|c| c.open)
    }

    /// Whether a `cleanup-inval` of `line` (at the given levels) would
    /// unwind a fill that landed *after* the line's squash — the race
    /// CleanupSpec's wait-for-inflight phase exists to unwind. Ask before
    /// recording the inval: recording clears the presence it looks at.
    pub(crate) fn raced(&self, core: usize, line: u64, l1: bool, l2: bool) -> bool {
        let Some(w) = self.cores.get(core).and_then(|c| c.watch.get(&line)) else {
            return false;
        };
        w.squashed
            && ((l1 && w.present_l1 && w.fill_l1_at > w.squashed_at)
                || (l2 && w.present_l2 && w.fill_l2_at > w.squashed_at))
    }

    /// Every imbalance on the books, sorted and deduplicated.
    ///
    /// Call after the simulation has *drained* (in-flight fills landed):
    /// insecure modes leak precisely via fills that complete after the
    /// squash, and those must be on the books before judging.
    pub(crate) fn leaks(&self) -> Vec<EpisodeLeak> {
        let mut leaks: Vec<EpisodeLeak> = self.eager.iter().map(|e| e.leak).collect();
        for (ci, c) in self.cores.iter().enumerate() {
            for (&line, w) in &c.watch {
                if !w.squashed {
                    // Still in flight when the run ended (or committed —
                    // those entries are removed at commit). Not evidence
                    // of a broken undo.
                    continue;
                }
                if w.present_l1 {
                    leaks.push(EpisodeLeak {
                        core: ci,
                        episode: w.episode,
                        line,
                        kind: if w.orphan {
                            LeakKind::OrphanInstall
                        } else {
                            LeakKind::TransientInstallL1
                        },
                    });
                }
                if w.present_l2 {
                    leaks.push(EpisodeLeak {
                        core: ci,
                        episode: w.episode,
                        line,
                        kind: LeakKind::TransientInstallL2,
                    });
                }
            }
            for (&line, o) in &c.owed {
                if o.due && !o.settled {
                    leaks.push(EpisodeLeak {
                        core: ci,
                        episode: o.episode,
                        line,
                        kind: LeakKind::MissingRestore,
                    });
                }
            }
        }
        for &(line, owner) in &self.pending_downgrades {
            leaks.push(EpisodeLeak {
                core: owner,
                episode: 0,
                line,
                kind: LeakKind::SpeculativeDowngrade,
            });
        }
        leaks.sort();
        leaks.dedup();
        leaks
    }

    /// Folds one event into the books.
    pub(crate) fn record(&mut self, cycle: u64, event: &SimEvent) {
        match *event {
            SimEvent::LoadIssue {
                core, line, spec, ..
            } => {
                let c = self.core(core);
                if spec {
                    let w = c.watch.entry(line).or_default();
                    // A previous squashed episode of this line that was
                    // fully undone is finished business: this issue opens
                    // a fresh episode. (Leaving the stale `squashed` bit
                    // would misattribute the new instance's fills — an
                    // untagged one would even erase the watch.) An orphan
                    // install still present is not undone, so it stays.
                    if w.squashed && !w.present_l1 && !w.present_l2 {
                        *w = Watch::default();
                    }
                } else {
                    // An architectural access legitimizes the line's
                    // presence, refills an evicted victim, and makes any
                    // eviction this line's install caused architectural.
                    c.watch.remove(&line);
                    if let Some(o) = c.owed.get_mut(&line) {
                        o.settled = true;
                    }
                    c.forgive_evictor(line);
                }
            }
            SimEvent::Fill {
                core,
                line,
                level,
                spec,
            } => {
                let c = self.core(core);
                if let Some(w) = c.watch.get_mut(&line) {
                    if !w.squashed || spec {
                        // The speculative load's own fill (insecure modes
                        // install untagged, so an open episode claims any
                        // fill on its line, tagged or not).
                        w.cleaned = false;
                        match level {
                            CacheLevel::L1 => {
                                w.present_l1 = true;
                                w.fill_l1_at = cycle;
                            }
                            CacheLevel::L2 => {
                                w.present_l2 = true;
                                w.fill_l2_at = cycle;
                            }
                        }
                    } else {
                        // An untagged install landing *after* the episode
                        // was squashed and undone — a cleanup restore, a
                        // committed store's RFO, a demand refill — makes
                        // the line's presence architectural and must not
                        // be charged to the stale watch. (A squashed
                        // load's own late fill is re-flagged by the
                        // `OrphanFill` the MSHR emits right after.)
                        c.watch.remove(&line);
                    }
                }
                if level == CacheLevel::L1 {
                    if let Some(o) = c.owed.get_mut(&line) {
                        o.settled = true;
                    }
                }
            }
            SimEvent::OrphanFill { core, line } => {
                // A squashed load's fill landed anyway (insecure modes
                // keep the MSHR entry alive): speculation-attributable
                // presence, no matter what the preceding plain `Fill` on
                // this line looked like. It belongs to the open episode,
                // else to the last one the core opened.
                let c = self.core(core);
                let last = c.open.unwrap_or(c.last);
                let w = c.watch.entry(line).or_default();
                w.squashed = true;
                w.present_l1 = true;
                w.orphan = true;
                if w.episode == 0 {
                    w.episode = last;
                }
            }
            SimEvent::Evict {
                core,
                line,
                level,
                evictor,
                ..
            } => {
                let c = self.core(core);
                if let Some(w) = c.watch.get_mut(&line) {
                    match level {
                        CacheLevel::L1 => w.present_l1 = false,
                        CacheLevel::L2 => w.present_l2 = false,
                    }
                }
                // A speculative install displacing a *non-transient* L1
                // victim owes that victim a restore — due only if the
                // evictor is later squashed. (Transient victims are
                // settled by their own cleanup entries.)
                if let Some(evictor) = evictor {
                    if level == CacheLevel::L1 && !c.watch.contains_key(&line) {
                        c.owed.insert(
                            line,
                            Owed {
                                evictor,
                                episode: 0,
                                due: false,
                                settled: false,
                            },
                        );
                    }
                }
            }
            SimEvent::BackInval { core, line } => {
                if let Some(w) = self.core(core).watch.get_mut(&line) {
                    w.present_l1 = false;
                }
            }
            SimEvent::Clflush { line, .. } => {
                // clflush removes the line everywhere, for every core.
                for c in &mut self.cores {
                    if let Some(w) = c.watch.get_mut(&line) {
                        w.present_l1 = false;
                        w.present_l2 = false;
                    }
                    c.owed.remove(&line);
                }
            }
            SimEvent::Squash { core, episode, .. } if episode != 0 => {
                let c = self.core(core);
                c.open = Some(episode);
                c.last = c.last.max(episode);
            }
            SimEvent::CleanupEnd { core, episode, .. } if episode != 0 => {
                let c = self.core(core);
                if c.open == Some(episode) {
                    c.open = None;
                }
            }
            SimEvent::SquashedLoad {
                core,
                line,
                episode,
                ..
            } => {
                let c = self.core(core);
                let w = c.watch.entry(line).or_default();
                w.squashed = true;
                w.squashed_at = cycle;
                w.episode = episode;
                // Any eviction this load's install caused is now due a
                // restore.
                for o in c.owed.values_mut() {
                    if o.evictor == line {
                        o.due = true;
                        o.episode = episode;
                    }
                }
                // A speculative downgrade caused by this load's request
                // is now attributable: the requester squashed.
                let mut i = 0;
                while i < self.pending_downgrades.len() {
                    if self.pending_downgrades[i].0 == line {
                        self.pending_downgrades.swap_remove(i);
                        self.eager.push(EagerLeak {
                            at: cycle,
                            leak: EpisodeLeak {
                                core,
                                episode,
                                line,
                                kind: LeakKind::SpeculativeDowngrade,
                            },
                        });
                    } else {
                        i += 1;
                    }
                }
            }
            SimEvent::Commit {
                core,
                line: Some(line),
                ..
            } => {
                let c = self.core(core);
                c.watch.remove(&line);
                if let Some(o) = c.owed.get_mut(&line) {
                    o.settled = true;
                }
                c.forgive_evictor(line);
            }
            SimEvent::CleanupInval {
                core,
                line,
                l1,
                l2,
                episode,
                ..
            } => {
                let Some(w) = self.core(core).watch.get_mut(&line) else {
                    return;
                };
                let double = w.cleaned;
                w.cleaned = true;
                if l1 {
                    w.present_l1 = false;
                }
                if l2 {
                    w.present_l2 = false;
                }
                if double {
                    self.eager.push(EagerLeak {
                        at: cycle,
                        leak: EpisodeLeak {
                            core,
                            episode,
                            line,
                            kind: LeakKind::DoubleUndo,
                        },
                    });
                }
            }
            SimEvent::CleanupRestore {
                core,
                line,
                episode,
                ..
            } => {
                self.core(core)
                    .owed
                    .entry(line)
                    .or_insert(Owed {
                        evictor: line,
                        episode,
                        due: false,
                        settled: true,
                    })
                    .settled = true;
            }
            SimEvent::DroppedFill { core, line, .. } => {
                // The fill never installed: if nothing else is on the
                // books for the line, the watch is finished business.
                let c = self.core(core);
                if c.watch
                    .get(&line)
                    .is_some_and(|w| w.squashed && !w.present_l1 && !w.present_l2)
                {
                    c.watch.remove(&line);
                }
            }
            SimEvent::SpecRetire { core, line } => {
                // The load left the speculative window without a squash:
                // its eviction (if any) is as architectural as its fill.
                self.core(core).forgive_evictor(line);
            }
            SimEvent::Downgrade { owner, line, spec } if spec => {
                self.pending_downgrades.push((line, owner));
            }
            SimEvent::SnapshotRestored { at } => {
                // The timeline rewinds to `at`: everything on the books
                // will be re-emitted (possibly differently) on the resumed
                // path, so drop it rather than double-count it. Findings
                // made before `at` are final. `last` survives: ids are
                // per-core monotonic and the resumed path re-mints them.
                for c in &mut self.cores {
                    c.open = None;
                    c.watch.clear();
                    c.owed.clear();
                }
                self.pending_downgrades.clear();
                self.eager.retain(|e| e.at <= at);
            }
            _ => {}
        }
    }
}
