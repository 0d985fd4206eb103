//! The leakage-audit sink: checks the paper's "undo leaves no trace"
//! invariant by correlating the event stream.
//!
//! The audit is the undo-coverage ledger (`ledger.rs`, which holds the
//! watch and owed-restore rules) plus four counters. Its verdict is the
//! ledger's findings with the episode dropped, so it and
//! [`crate::episode::EpisodeBuilder`] agree by construction.
//!
//! The verdict is computed lazily by [`LeakageAuditSink::report`] so that
//! orphan fills landing cycles after the squash (the classic insecure-
//! mode leak — drain the simulation before asking!) are still caught.

use crate::episode::LeakKind;
use crate::event::{EventMask, SimEvent};
use crate::ledger::Ledger;
use crate::observer::EventSink;

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
    ledger: Ledger,
    squashes: u64,
    squashed_loads: u64,
    cleanup_invals: u64,
    cleanup_restores: u64,
}

impl LeakageAuditSink {
    /// The kinds [`EventSink::record`] reads: the ledger's.
    pub const INTEREST: &'static [&'static str] = Ledger::INTEREST;

    /// An empty audit.
    pub fn new() -> Self {
        LeakageAuditSink::default()
    }

    /// Computes the verdict from the events seen so far.
    ///
    /// Call after the simulation has *drained* (in-flight fills landed):
    /// insecure modes leak precisely via fills that complete after the
    /// squash, and those must be on the books before judging.
    pub fn report(&self) -> AuditReport {
        let mut residue: Vec<AuditResidue> = self
            .ledger
            .leaks()
            .into_iter()
            .map(|l| AuditResidue {
                core: l.core,
                line: l.line,
                kind: match l.kind {
                    LeakKind::TransientInstallL1 | LeakKind::OrphanInstall => {
                        ResidueKind::InstallL1
                    }
                    LeakKind::TransientInstallL2 => ResidueKind::InstallL2,
                    LeakKind::MissingRestore => ResidueKind::MissingRestore,
                    LeakKind::SpeculativeDowngrade => ResidueKind::SpeculativeDowngrade,
                    LeakKind::DoubleUndo => ResidueKind::DoubleCleanup,
                },
            })
            .collect();
        // The ledger sorts by episode and `LeakKind`; an orphan L1 install
        // sorts after its line's L2 install there, so re-sort by the
        // residue kind's own order.
        residue.sort_by_key(|r| (r.core, r.line, r.kind as u8));
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

    fn record(&mut self, cycle: u64, event: &SimEvent) {
        match event {
            SimEvent::Squash { .. } => self.squashes += 1,
            SimEvent::SquashedLoad { .. } => self.squashed_loads += 1,
            SimEvent::CleanupInval { .. } => self.cleanup_invals += 1,
            SimEvent::CleanupRestore { .. } => self.cleanup_restores += 1,
            _ => {}
        }
        self.ledger.record(cycle, event);
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

    /// The ledger orders an orphan L1 install after its line's transient
    /// L2 install (by `LeakKind`); the projection must restore the
    /// residue's own L1-before-L2 order.
    #[test]
    fn orphan_l1_and_transient_l2_project_in_residue_order() {
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 7, true));
        a.record(1, &fill(0, 7, CacheLevel::L2));
        a.record(
            2,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 7,
                issued: true,
                episode: 1,
            },
        );
        a.record(9, &SimEvent::OrphanFill { core: 0, line: 7 });
        let kinds: Vec<ResidueKind> = a.report().residue.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [ResidueKind::InstallL1, ResidueKind::InstallL2]);
    }

    /// A speculative downgrade is charged to the requester once the
    /// requester's load squashes (the unclaimed case stays on the owner).
    #[test]
    fn claimed_downgrade_is_charged_to_the_requester() {
        let mut a = LeakageAuditSink::new();
        a.record(
            0,
            &SimEvent::Downgrade {
                owner: 1,
                line: 3,
                spec: true,
            },
        );
        a.record(
            1,
            &SimEvent::SquashedLoad {
                core: 0,
                line: 3,
                issued: true,
                episode: 1,
            },
        );
        assert_eq!(
            a.report().residue,
            [AuditResidue {
                core: 0,
                line: 3,
                kind: ResidueKind::SpeculativeDowngrade,
            }]
        );
    }

    /// An orphan install that was later evicted is finished business: a
    /// re-issue of its line opens a fresh watch, so the new instance's
    /// untagged (insecure-mode) fill is still caught once it squashes.
    #[test]
    fn evicted_orphan_does_not_mask_a_reissued_install() {
        let squashed = SimEvent::SquashedLoad {
            core: 0,
            line: 7,
            issued: true,
            episode: 1,
        };
        let mut a = LeakageAuditSink::new();
        a.record(0, &issue(0, 7, true));
        a.record(1, &squashed);
        a.record(5, &SimEvent::OrphanFill { core: 0, line: 7 });
        a.record(
            6,
            &SimEvent::Evict {
                core: 0,
                line: 7,
                level: CacheLevel::L1,
                dirty: false,
                evictor: None,
            },
        );
        a.record(7, &issue(0, 7, true));
        a.record(
            9,
            &SimEvent::Fill {
                core: 0,
                line: 7,
                level: CacheLevel::L1,
                spec: false,
            },
        );
        a.record(10, &squashed);
        let kinds: Vec<ResidueKind> = a.report().residue.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [ResidueKind::InstallL1]);
    }

    #[test]
    fn report_display_mentions_verdict() {
        let a = LeakageAuditSink::new();
        assert!(a.report().to_string().contains("CLEAN"));
    }
}
