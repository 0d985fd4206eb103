//! The leakage-audit sink: checks the paper's "undo leaves no trace"
//! invariant by correlating the event stream.
//!
//! The audit watches every speculative load issue. Fills on a watched
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
//! The verdict is computed lazily by [`LeakageAuditSink::report`] so that
//! orphan fills landing cycles after the squash (the classic insecure-
//! mode leak — drain the simulation before asking!) are still caught.

use crate::event::{CacheLevel, EventMask, SimEvent};
use crate::observer::EventSink;
use std::collections::HashMap;

#[derive(Clone, Copy, Default, Debug)]
struct WatchState {
    squashed: bool,
    present_l1: bool,
    present_l2: bool,
    /// A `cleanup-inval` already targeted this line and no fill has landed
    /// since: a second inval is a double undo, which on real hardware would
    /// invalidate state the cleanup walk no longer owns.
    cleaned: bool,
}

#[derive(Clone, Copy, Debug)]
struct OwedRestore {
    /// The line whose speculative install displaced the victim.
    evictor: u64,
    /// The evictor was squashed, so the restore is actually owed.
    due: bool,
    /// The victim came back (cleanup-restore, refill, re-access).
    settled: bool,
}

#[derive(Default, Debug)]
struct CoreAudit {
    /// Speculatively accessed lines -> speculation-attributable presence.
    watch: HashMap<u64, WatchState>,
    /// Victims of speculative evictions -> the restore they may be owed.
    owed: HashMap<u64, OwedRestore>,
}

impl CoreAudit {
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

/// What kind of residue a squash left behind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResidueKind {
    /// A transiently filled line survived in L1.
    InstallL1,
    /// A transiently filled line survived in L2.
    InstallL2,
    /// A victim of a speculative eviction was never restored.
    MissingRestore,
    /// A speculative request downgraded a remote modified copy — forbidden
    /// under GetS-Safe (the downgrade itself is a cross-core channel).
    SpeculativeDowngrade,
    /// A line was cleanup-invalidated twice with no fill in between: the
    /// undo walk ran over state it no longer owned.
    DoubleCleanup,
}

impl std::fmt::Display for ResidueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResidueKind::InstallL1 => "transient install survived in L1",
            ResidueKind::InstallL2 => "transient install survived in L2",
            ResidueKind::MissingRestore => "speculatively evicted victim never restored",
            ResidueKind::SpeculativeDowngrade => "speculative request downgraded a remote M copy",
            ResidueKind::DoubleCleanup => "line cleanup-invalidated twice without a refill",
        })
    }
}

/// One piece of speculation-attributable state that outlived its squash.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AuditResidue {
    /// The core whose speculation caused it.
    pub core: usize,
    /// The affected cache line.
    pub line: u64,
    /// What survived.
    pub kind: ResidueKind,
}

/// The audit's verdict over a whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Squash events observed.
    pub squashes: u64,
    /// Squashed loads observed.
    pub squashed_loads: u64,
    /// CleanupSpec invalidations observed.
    pub cleanup_invals: u64,
    /// CleanupSpec restores observed.
    pub cleanup_restores: u64,
    /// Speculation-attributable state that survived. Empty = clean.
    pub residue: Vec<AuditResidue>,
}

impl AuditReport {
    /// Whether the undo invariant held: no residue.
    pub fn clean(&self) -> bool {
        self.residue.is_empty()
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "audit: {} squashes, {} squashed loads, {} cleanup invals, {} restores",
            self.squashes, self.squashed_loads, self.cleanup_invals, self.cleanup_restores
        )?;
        if self.clean() {
            write!(
                f,
                "audit: CLEAN — no speculation-attributable state survived"
            )
        } else {
            writeln!(f, "audit: DIRTY — {} residue item(s):", self.residue.len())?;
            for r in &self.residue {
                writeln!(f, "  core{} line=0x{:x}: {}", r.core, r.line, r.kind)?;
            }
            Ok(())
        }
    }
}

/// Event-correlating audit of the CleanupSpec undo invariant.
#[derive(Default, Debug)]
pub struct LeakageAuditSink {
    cores: Vec<CoreAudit>,
    squashes: u64,
    squashed_loads: u64,
    cleanup_invals: u64,
    cleanup_restores: u64,
    /// Residues detected eagerly at record time (protocol violations that
    /// are wrong the moment they happen, independent of how the run ends).
    eager: Vec<AuditResidue>,
}

impl LeakageAuditSink {
    /// The kinds [`EventSink::record`] reads: one per `match` arm.
    pub const INTEREST: &'static [&'static str] = &[
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
    ];

    /// An empty audit.
    pub fn new() -> Self {
        LeakageAuditSink::default()
    }

    fn core(&mut self, i: usize) -> &mut CoreAudit {
        if self.cores.len() <= i {
            self.cores.resize_with(i + 1, CoreAudit::default);
        }
        &mut self.cores[i]
    }

    /// Computes the verdict from the events seen so far.
    ///
    /// Call after the simulation has *drained* (in-flight fills landed):
    /// insecure modes leak precisely via fills that complete after the
    /// squash, and those must be on the books before judging.
    pub fn report(&self) -> AuditReport {
        let mut residue = self.eager.clone();
        for (ci, c) in self.cores.iter().enumerate() {
            for (&line, w) in &c.watch {
                if !w.squashed {
                    // Still in flight when the run ended (or committed —
                    // those entries are removed at commit). Not evidence
                    // of a broken undo.
                    continue;
                }
                if w.present_l1 {
                    residue.push(AuditResidue {
                        core: ci,
                        line,
                        kind: ResidueKind::InstallL1,
                    });
                }
                if w.present_l2 {
                    residue.push(AuditResidue {
                        core: ci,
                        line,
                        kind: ResidueKind::InstallL2,
                    });
                }
            }
            for (&line, o) in &c.owed {
                if o.due && !o.settled {
                    residue.push(AuditResidue {
                        core: ci,
                        line,
                        kind: ResidueKind::MissingRestore,
                    });
                }
            }
        }
        residue.sort_by_key(|r| (r.core, r.line));
        AuditReport {
            squashes: self.squashes,
            squashed_loads: self.squashed_loads,
            cleanup_invals: self.cleanup_invals,
            cleanup_restores: self.cleanup_restores,
            residue,
        }
    }
}

impl EventSink for LeakageAuditSink {
    fn interest(&self) -> EventMask {
        const MASK: EventMask = EventMask::from_kinds(LeakageAuditSink::INTEREST);
        MASK
    }

    fn record(&mut self, _cycle: u64, event: &SimEvent) {
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
                    // would misattribute the new instance's fills.)
                    if w.squashed && !w.present_l1 && !w.present_l2 {
                        *w = WatchState::default();
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
                            CacheLevel::L1 => w.present_l1 = true,
                            CacheLevel::L2 => w.present_l2 = true,
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
                // this line looked like.
                let w = self.core(core).watch.entry(line).or_default();
                w.squashed = true;
                w.present_l1 = true;
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
                            OwedRestore {
                                evictor,
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
            SimEvent::Squash { .. } => self.squashes += 1,
            SimEvent::SquashedLoad { core, line, .. } => {
                self.squashed_loads += 1;
                let c = self.core(core);
                c.watch.entry(line).or_default().squashed = true;
                // Any eviction this load's install caused is now due a
                // restore.
                for o in c.owed.values_mut() {
                    if o.evictor == line {
                        o.due = true;
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
                core, line, l1, l2, ..
            } => {
                self.cleanup_invals += 1;
                let double = if let Some(w) = self.core(core).watch.get_mut(&line) {
                    let double = w.cleaned;
                    w.cleaned = true;
                    if l1 {
                        w.present_l1 = false;
                    }
                    if l2 {
                        w.present_l2 = false;
                    }
                    double
                } else {
                    false
                };
                if double {
                    self.eager.push(AuditResidue {
                        core,
                        line,
                        kind: ResidueKind::DoubleCleanup,
                    });
                }
            }
            SimEvent::CleanupRestore { core, line, .. } => {
                self.cleanup_restores += 1;
                self.core(core)
                    .owed
                    .entry(line)
                    .or_insert(OwedRestore {
                        evictor: line,
                        due: false,
                        settled: true,
                    })
                    .settled = true;
            }
            SimEvent::SpecRetire { core, line } => {
                // The load left the speculative window without a squash:
                // its eviction (if any) is as architectural as its fill.
                self.core(core).forgive_evictor(line);
            }
            SimEvent::Downgrade { owner, line, spec } if spec => {
                self.eager.push(AuditResidue {
                    core: owner,
                    line,
                    kind: ResidueKind::SpeculativeDowngrade,
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PathKind;

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

    #[test]
    fn cleaned_squash_is_clean() {
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 7, true));
        a.record(1, &fill(0, 7, CacheLevel::L2));
        a.record(1, &fill(0, 7, CacheLevel::L1));
        a.record(
            2,
            &SimEvent::Squash {
                core: 0,
                seq: 1,
                squashed: 3,
                episode: 1,
            },
        );
        a.record(
            2,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 7,
                issued: true,
                episode: 1,
            },
        );
        a.record(
            3,
            &SimEvent::CleanupInval {
                core: 0,
                line: 7,
                l1: true,
                l2: true,
                seq: 1,
                episode: 1,
            },
        );
        let r = a.report();
        assert!(r.clean(), "{r}");
        assert_eq!(r.squashes, 1);
        assert_eq!(r.cleanup_invals, 1);
    }

    #[test]
    fn uncleaned_squash_is_dirty() {
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 7, true));
        a.record(1, &fill(0, 7, CacheLevel::L1));
        a.record(
            2,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 7,
                issued: true,
                episode: 1,
            },
        );
        let r = a.report();
        assert!(!r.clean());
        assert_eq!(r.residue[0].kind, ResidueKind::InstallL1);
        assert_eq!(r.residue[0].line, 7);
    }

    #[test]
    fn orphan_fill_after_squash_is_dirty() {
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 9, true));
        a.record(
            1,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 9,
                issued: true,
                episode: 1,
            },
        );
        // The fill lands AFTER the squash (insecure-mode orphan).
        a.record(50, &fill(0, 9, CacheLevel::L1));
        assert!(!a.report().clean());
    }

    #[test]
    fn committed_load_is_architectural() {
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 7, true));
        a.record(1, &fill(0, 7, CacheLevel::L1));
        a.record(
            2,
            &SimEvent::Commit {
                core: 0,
                seq: 1,
                pc: 0,
                line: Some(7),
            },
        );
        assert!(a.report().clean());
    }

    #[test]
    fn missing_restore_is_dirty_and_restore_settles_it() {
        let mut a = LeakageAuditSink::new();
        a.record(
            0,
            &SimEvent::Evict {
                core: 0,
                line: 5,
                level: CacheLevel::L1,
                dirty: false,
                evictor: Some(9),
            },
        );
        // Not due until the evicting load is squashed.
        assert!(a.report().clean());
        a.record(
            1,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 9,
                issued: true,
                episode: 1,
            },
        );
        assert_eq!(a.report().residue[0].kind, ResidueKind::MissingRestore);
        a.record(
            2,
            &SimEvent::CleanupRestore {
                core: 0,
                line: 5,
                evictor: 9,
                seq: 1,
                episode: 1,
            },
        );
        let r = a.report();
        assert!(r.clean(), "{r}");
        assert_eq!(r.cleanup_restores, 1);
    }

    #[test]
    fn retired_evictor_keeps_its_eviction() {
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 9, true));
        a.record(
            1,
            &SimEvent::Evict {
                core: 0,
                line: 5,
                level: CacheLevel::L1,
                dirty: false,
                evictor: Some(9),
            },
        );
        // The evicting load retires (correct path): no restore is owed,
        // even if line 9 is squashed in some *later* episode.
        a.record(2, &SimEvent::SpecRetire { core: 0, line: 9 });
        a.record(
            3,
            &SimEvent::Commit {
                core: 0,
                seq: 1,
                pc: 0,
                line: Some(9),
            },
        );
        assert!(a.report().clean());
        a.record(
            4,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 9,
                issued: true,
                episode: 1,
            },
        );
        let r = a.report();
        assert!(r.clean(), "{r}");
    }

    #[test]
    fn duplicate_squash_then_retire_forgives_the_debt() {
        // MSHR merging: several in-flight loads of line 9 share one
        // install. A younger duplicate is squashed (marking the owed
        // restore due), but the oldest instance retires — the install,
        // and the eviction it caused, are architectural.
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 9, true));
        a.record(
            1,
            &SimEvent::Evict {
                core: 0,
                line: 5,
                level: CacheLevel::L1,
                dirty: false,
                evictor: Some(9),
            },
        );
        a.record(
            2,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 9,
                issued: true,
                episode: 1,
            },
        );
        assert!(!a.report().clean(), "due until the install's fate is known");
        a.record(3, &SimEvent::SpecRetire { core: 0, line: 9 });
        a.record(
            4,
            &SimEvent::Commit {
                core: 0,
                seq: 1,
                pc: 0,
                line: Some(9),
            },
        );
        let r = a.report();
        assert!(r.clean(), "{r}");
    }

    #[test]
    fn non_spec_eviction_owes_nothing() {
        let mut a = LeakageAuditSink::new();
        a.record(
            0,
            &SimEvent::Evict {
                core: 0,
                line: 5,
                level: CacheLevel::L1,
                dirty: true,
                evictor: None,
            },
        );
        a.record(
            1,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 9,
                issued: true,
                episode: 1,
            },
        );
        assert!(a.report().clean());
    }

    #[test]
    fn cleaned_episode_reset_on_reissue() {
        // Episode 1: spec load squashed, fill dropped in flight (never
        // present). Episode 2: same line re-issued speculatively, fills,
        // and is still unresolved when the run ends — not residue.
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 7, true));
        a.record(
            1,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 7,
                issued: true,
                episode: 1,
            },
        );
        a.record(
            2,
            &SimEvent::DroppedFill {
                core: 0,
                line: 7,
                episode: 1,
            },
        );
        a.record(3, &issue(0, 7, true));
        a.record(4, &fill(0, 7, CacheLevel::L1));
        let r = a.report();
        assert!(r.clean(), "{r}");
    }

    #[test]
    fn dropped_fill_never_sets_presence() {
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 3, true));
        a.record(
            1,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 3,
                issued: true,
                episode: 1,
            },
        );
        a.record(
            2,
            &SimEvent::DroppedFill {
                core: 0,
                line: 3,
                episode: 1,
            },
        );
        assert!(a.report().clean());
    }

    #[test]
    fn architectural_reaccess_legitimizes() {
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 7, true));
        a.record(1, &fill(0, 7, CacheLevel::L1));
        a.record(
            2,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 7,
                issued: true,
                episode: 1,
            },
        );
        // The correct path re-executes the same load non-speculatively.
        a.record(3, &issue(0, 7, false));
        assert!(a.report().clean());
    }

    #[test]
    fn speculative_downgrade_is_dirty_architectural_is_not() {
        let mut a = LeakageAuditSink::new();
        a.record(
            0,
            &SimEvent::Downgrade {
                owner: 1,
                line: 3,
                spec: false,
            },
        );
        assert!(a.report().clean());
        a.record(
            1,
            &SimEvent::Downgrade {
                owner: 1,
                line: 3,
                spec: true,
            },
        );
        let r = a.report();
        assert_eq!(r.residue[0].kind, ResidueKind::SpeculativeDowngrade);
        assert_eq!(r.residue[0].core, 1);
    }

    #[test]
    fn double_cleanup_without_refill_is_dirty() {
        let inval = SimEvent::CleanupInval {
            core: 0,
            line: 7,
            l1: true,
            l2: true,
            seq: 1,
            episode: 1,
        };
        let squash = SimEvent::SquashedLoad {
            core: 0,
            line: 7,
            issued: true,
            episode: 1,
        };
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 7, true));
        a.record(1, &fill(0, 7, CacheLevel::L1));
        a.record(2, &squash);
        a.record(3, &inval);
        assert!(a.report().clean(), "single cleanup is fine");
        a.record(4, &inval);
        let r = a.report();
        assert_eq!(r.residue[0].kind, ResidueKind::DoubleCleanup);

        // A fill between the two invals resets the flag: two separate,
        // correctly paired undo episodes.
        let mut b = LeakageAuditSink::new();
        b.record(0, &issue(0, 7, true));
        b.record(1, &fill(0, 7, CacheLevel::L1));
        b.record(2, &squash);
        b.record(3, &inval);
        b.record(4, &issue(0, 7, true));
        b.record(5, &fill(0, 7, CacheLevel::L1));
        b.record(6, &squash);
        b.record(7, &inval);
        let r = b.report();
        assert!(r.clean(), "{r}");
    }

    #[test]
    fn report_display_mentions_verdict() {
        let a = LeakageAuditSink::new();
        assert!(a.report().to_string().contains("CLEAN"));
    }
}
