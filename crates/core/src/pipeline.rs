//! The out-of-order core pipeline.
//!
//! A cycle-stepped model of the Table-4 core: fetch (with tournament
//! branch prediction), dispatch into a 192-entry ROB with 32-entry load and
//! store queues, dataflow issue, execution, in-order commit — and, crucially
//! for this paper, **real wrong-path execution**: after a mispredicted
//! branch the front end keeps fetching and executing down the predicted
//! path, wrong-path loads access (and pollute) the cache hierarchy, and the
//! squash machinery hands the resulting side effects to the active
//! [`SpeculationScheme`] to retain (non-secure), drop (InvisiSpec), or undo
//! (CleanupSpec).

use crate::bpred::TournamentPredictor;
use crate::datamem::DataMem;
use crate::isa::{Inst, Pc, Program, Reg, LINK_REG, NUM_REGS};
use crate::scheme::{
    CommitAction, CommittedLoad, LoadIssue, LoadIssuePolicy, SpeculationScheme, SquashInfo,
    SquashedLoad, SquashedLoadState,
};
use crate::stats::{CoreStats, SquashedClass, StallCause};
use crate::trace::{TraceBuffer, TraceEvent};
use cleanupspec_mem::hierarchy::{MemHierarchy, MissProvenance};
use cleanupspec_mem::mshr::{LoadPath, MshrToken, SefeRecord};
use cleanupspec_mem::stats::MsgClass;
use cleanupspec_mem::types::{Addr, CoreId, Cycle, LineAddr, LoadId};
use cleanupspec_obs::{Observer, PathKind, SimEvent};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

/// Core configuration (defaults follow Table 4).
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Reorder-buffer entries (192).
    pub rob_entries: usize,
    /// Load-queue entries (32).
    pub lq_entries: usize,
    /// Store-queue entries (32).
    pub sq_entries: usize,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Front-end refill penalty after a redirect, in cycles.
    pub redirect_penalty: Cycle,
    /// Branch execute latency.
    pub branch_latency: Cycle,
    /// Branch predictor configuration.
    pub bpred: crate::bpred::BpredConfig,
    /// Interval of speculation-window SEFE extension messages (200 cycles,
    /// Section 3.6).
    pub window_extend_interval: Cycle,
    /// Cycles between a faulting load becoming ready to retire and the
    /// deferred permission check actually raising the exception — the race
    /// window Meltdown-class attacks exploit.
    pub fault_check_latency: Cycle,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            rob_entries: 192,
            lq_entries: 32,
            sq_entries: 32,
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            redirect_penalty: 3,
            branch_latency: 1,
            bpred: crate::bpred::BpredConfig::default(),
            window_extend_interval: 200,
            fault_check_latency: 20,
        }
    }
}

/// A source operand captured at dispatch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Src {
    /// Value known at dispatch (architectural or immediate).
    Ready(u64),
    /// Produced by the in-flight instruction with this sequence number.
    Wait(u64),
}

/// Execution status of a ROB entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Waiting,
    Issued { done_at: Cycle },
    Done,
}

#[derive(Clone, Debug)]
struct RobEntry {
    seq: u64,
    pc: Pc,
    inst: Inst,
    status: Status,
    srcs: [Option<Src>; 2],
    result: Option<u64>,
    dst: Option<Reg>,
    // Control-flow bookkeeping.
    pred_taken: bool,
    pred_target: Pc,
    actual_taken: bool,
    actual_target: Pc,
    lq: Option<usize>,
    sq: Option<usize>,
    commit_ready_at: Option<Cycle>,
    committed_scheme_done: bool,
    /// The load touches a protected range: faults when it reaches commit
    /// (Meltdown-style deferred permission check).
    faulting: bool,
}

/// A `Waiting` ROB entry in the issue walk's list.
#[derive(Clone, Copy, Debug)]
struct Waiter {
    seq: u64,
    /// An in-flight producer whose result this entry's operands still
    /// lacked when the walk last tried it (0 if none). While that producer
    /// is not `Done` the entry cannot issue, so the walk skips it.
    blocked_on: u64,
    store: bool,
}

/// Load-queue entry state.
#[derive(Clone, Copy, Debug)]
enum LqState {
    NotIssued,
    /// GetS-Safe refusal: waiting to become unsquashable (Section 3.5).
    Deferred {
        line: LineAddr,
    },
    Inflight {
        line: LineAddr,
        token: Option<MshrToken>,
        path: LoadPath,
        issued_spec: bool,
        /// Scheme-overhead attribution of the miss (cycle accounting).
        prov: Option<MissProvenance>,
    },
    Done {
        line: Option<LineAddr>,
        path: Option<LoadPath>,
        sefe: SefeRecord,
        load_id: Option<LoadId>,
        issued_spec: bool,
        completed_at: Cycle,
        /// Completion cycle of the visibility-point update load, if the
        /// scheme started one ([`SpeculationScheme::on_load_visible`]).
        exposed_until: Option<Cycle>,
        /// Whether the visibility hook already ran for this load.
        visible_done: bool,
    },
}

#[derive(Clone, Copy, Debug)]
struct LqEntry {
    seq: u64,
    state: LqState,
}

#[derive(Clone, Copy, Debug)]
struct SqEntry {
    seq: u64,
    addr: Option<Addr>,
    value: Option<u64>,
}

/// Squash-handling phase.
#[derive(Clone, Debug)]
enum SquashPhase {
    /// Normal operation.
    Running,
    /// Waiting for older correct-path inflight loads to complete before
    /// invoking the scheme's cleanup (Section 3.4 / Figure 14).
    WaitInflight {
        mispredict_at: Cycle,
        loads: Vec<SquashedLoad>,
        /// Cleanup episode id opened by the first squash of this phase.
        /// Squashes merging in while waiting share it: they widen one
        /// cleanup invocation, which is what an episode is.
        episode: u64,
        /// Sequence number of the squash that opened the episode (the
        /// "triggering squash" stamped on cleanup events).
        seq: u64,
    },
}

/// One simulated out-of-order core.
///
/// `Clone` deep-copies the full microarchitectural state — ROB, LQ/SQ,
/// registers, predictor tables, in-flight squash phase, and the derived
/// event structures below — forming the per-core half of a cs-snap
/// snapshot. The `Program` stays `Arc`-shared (immutable) and the
/// observer handle is shared with the clone.
///
/// Sequence numbers are dense in the ROB (entry `i` holds seq
/// `head + i`), so a seq locates its entry in O(1). The per-cycle stages
/// work from structures derived from the ROB and LQ instead of walking
/// them: `completions`, `mispredict`, `waiting`, `squash_sources`,
/// `pending_fences` and `awaiting_visibility`. Debug builds check each of
/// them against a full scan every cycle.
#[derive(Clone, Debug)]
pub struct Pipeline {
    core: CoreId,
    cfg: CoreConfig,
    program: Arc<Program>,
    pred: TournamentPredictor,
    regs: [u64; NUM_REGS],
    last_writer: [Option<u64>; NUM_REGS],
    rob: VecDeque<RobEntry>,
    /// Min-heap of `(done_at, seq)`, pushed on every `Waiting→Issued`
    /// transition. A squash leaves its entries behind and dispatch reuses
    /// the seqs, so `complete` re-checks the entry's status before acting.
    completions: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// Scratch list of the seqs `complete` handles this cycle (kept to
    /// reuse its allocation).
    due: Vec<u64>,
    /// Oldest branch flagged mispredicted by this cycle's `complete`. The
    /// squash it triggers removes every younger flagged entry, so one
    /// register is exact.
    mispredict: Option<u64>,
    /// The `Waiting` entries, oldest first (the `issue` walk).
    waiting: Vec<Waiter>,
    /// Seqs of the entries that can still squash younger ones: control
    /// not yet `Done`, and loads still `Waiting` or faulting.
    squash_sources: BTreeSet<u64>,
    /// Seqs of the fences not yet `Done`.
    pending_fences: BTreeSet<u64>,
    lq: Vec<Option<LqEntry>>,
    /// Per LQ slot: it holds a completed cache-accessing load whose
    /// visibility hook has not run (`Done` with a line and
    /// `visible_done == false`).
    awaiting_visibility: Vec<bool>,
    sq: Vec<Option<SqEntry>>,
    lq_held: Vec<Cycle>,
    next_seq: u64,
    fetch_pc: Pc,
    fetch_halted: bool,
    halted: bool,
    fetch_stall_until: Cycle,
    /// End of the scheme's post-squash cleanup stall (the slice of
    /// `fetch_stall_until` owed to cleanup rather than the plain redirect
    /// penalty) — cycle accounting charges it to `CleanupInProgress`.
    cleanup_stall_until: Cycle,
    /// A load failed to issue this cycle because the MSHR/SEFE file was
    /// full (reset at the top of every tick; cycle accounting reads it).
    mshr_blocked: bool,
    squash: SquashPhase,
    /// Cleanup episodes opened so far (monotonic; the id of the episode
    /// currently open or most recently closed). Incremented only when a
    /// squash arrives while `Running` — merged squashes share an id.
    episodes: u64,
    /// A fatal (unhandled) fault was raised: halt once its cleanup is done.
    halt_after_squash: bool,
    load_id_ctr: u64,
    stats: CoreStats,
    trace: Option<TraceBuffer>,
    obs: Observer,
}

impl Pipeline {
    /// Creates a core executing `program` from its entry point.
    pub fn new(core: CoreId, cfg: CoreConfig, program: Arc<Program>) -> Self {
        let mut regs = [0u64; NUM_REGS];
        for (r, v) in &program.init_regs {
            regs[r.index()] = *v;
        }
        Pipeline {
            pred: TournamentPredictor::new(cfg.bpred.clone()),
            regs,
            last_writer: [None; NUM_REGS],
            rob: VecDeque::with_capacity(cfg.rob_entries),
            completions: BinaryHeap::with_capacity(cfg.rob_entries),
            due: Vec::with_capacity(cfg.issue_width),
            mispredict: None,
            waiting: Vec::with_capacity(cfg.rob_entries),
            squash_sources: BTreeSet::new(),
            pending_fences: BTreeSet::new(),
            lq: (0..cfg.lq_entries).map(|_| None).collect(),
            awaiting_visibility: vec![false; cfg.lq_entries],
            sq: (0..cfg.sq_entries).map(|_| None).collect(),
            lq_held: Vec::new(),
            next_seq: 1,
            fetch_pc: program.entry,
            fetch_halted: false,
            halted: false,
            fetch_stall_until: 0,
            cleanup_stall_until: 0,
            mshr_blocked: false,
            squash: SquashPhase::Running,
            episodes: 0,
            halt_after_squash: false,
            load_id_ctr: 0,
            stats: CoreStats::default(),
            trace: None,
            obs: Observer::disabled(),
            core,
            cfg,
            program,
        }
    }

    /// Attaches the event-bus observer (structured [`SimEvent`]s; the
    /// legacy [`TraceBuffer`] keeps working independently).
    pub fn set_observer(&mut self, obs: Observer) {
        self.obs = obs;
    }

    /// Core identifier.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Whether the program has committed its `Halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Core statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Cleanup episodes opened so far (the per-core episode-id counter).
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Overwrites the episode counter (cs-snap checkpoint load; episode
    /// ids must keep climbing from where the snapshot left off so a
    /// restored run re-emits the same ids as the uninterrupted one).
    pub fn set_episodes(&mut self, n: u64) {
        self.episodes = n;
    }

    /// Mutable stats access (the runner stamps total cycles).
    pub fn stats_mut(&mut self) -> &mut CoreStats {
        &mut self.stats
    }

    /// Clears the statistics (end-of-warm-up). Architectural and
    /// microarchitectural state (caches, predictor, queues) is preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Architectural value of a register (for tests and harnesses; only
    /// meaningful once the writer has committed).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Number of live ROB entries (livelock diagnostics).
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    /// `(seq, pc)` of the ROB head instruction, if any (livelock
    /// diagnostics: the instruction the core is stuck behind).
    pub fn rob_head(&self) -> Option<(u64, u64)> {
        self.rob.front().map(|e| (e.seq, e.pc as u64))
    }

    /// Loads currently inflight in the load queue (livelock diagnostics).
    pub fn inflight_loads(&self) -> usize {
        self.lq
            .iter()
            .flatten()
            .filter(|l| matches!(l.state, LqState::Inflight { .. }))
            .count()
    }

    /// Enables event tracing with a ring buffer of `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// The trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    #[inline]
    fn emit(&mut self, cycle: Cycle, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(cycle, event);
        }
    }

    /// Advances the core by one cycle against the shared memory system.
    ///
    /// Every call charges exactly one cycle to the top-down CPI stack
    /// ([`CoreStats::cpi_stack`]): the per-core stack sums to the number
    /// of ticks, which the system runner keeps equal to elapsed cycles.
    pub fn tick(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        dmem: &mut DataMem,
        now: Cycle,
    ) {
        if self.halted {
            self.stats.cpi_stack.charge(StallCause::Halted);
            return;
        }
        self.mshr_blocked = false;
        self.lq_held.retain(|&c| c > now);
        self.complete(mem, now);
        // Squash handling runs BEFORE the visibility scan: when a branch
        // resolves mispredicted, its wrong-path loads must be squashed in
        // the same cycle — never exposed (they would otherwise appear
        // unsquashable for one cycle).
        self.process_squash(scheme, mem, now);
        self.visibility_scan(scheme, mem, now);
        let committed_before = self.stats.committed_insts;
        self.commit(scheme, mem, dmem, now);
        let committed = self.stats.committed_insts - committed_before;
        let issue_blocked = matches!(self.squash, SquashPhase::WaitInflight { .. })
            && scheme.stalls_issue_during_cleanup();
        if !issue_blocked {
            self.issue(scheme, mem, dmem, now);
        }
        self.fetch(now);
        #[cfg(debug_assertions)]
        self.check_derived_state();
        let cause = self.classify_cycle(now, committed);
        self.stats.cpi_stack.charge(cause);
    }

    /// Charges one cycle to the `Harness` bucket: the system runner calls
    /// this for cycles it advances without ticking the cores (priming,
    /// probing, and draining phases), keeping the CPI-stack total equal to
    /// elapsed cycles.
    pub fn note_harness_cycle(&mut self) {
        self.stats.cpi_stack.charge(StallCause::Harness);
    }

    /// Attributes one committless cycle to the single dominant cause, in
    /// top-down priority order: the squash/cleanup machinery first, then
    /// whatever the ROB head is waiting on.
    fn classify_cycle(&self, now: Cycle, committed: u64) -> StallCause {
        if committed > 0 {
            return StallCause::Commit;
        }
        if matches!(self.squash, SquashPhase::WaitInflight { .. }) {
            return StallCause::WaitInflight;
        }
        let Some(head) = self.rob.front() else {
            // Empty ROB: the front end owns the cycle — either the scheme's
            // post-squash cleanup stall or an ordinary fetch bubble.
            return if now < self.cleanup_stall_until {
                StallCause::CleanupInProgress
            } else {
                StallCause::Frontend
            };
        };
        if head.faulting {
            // Deferred permission check in flight (Meltdown race window).
            return StallCause::Exec;
        }
        if head.status == Status::Done {
            if head.commit_ready_at.is_some_and(|at| now < at) {
                return StallCause::SchemeCommitStall;
            }
            return StallCause::Exec;
        }
        if head.inst.is_load() {
            let lqe = head
                .lq
                .and_then(|li| self.lq[li])
                .filter(|l| l.seq == head.seq);
            return match lqe.map(|l| l.state) {
                Some(LqState::Inflight { prov, path, .. }) => match prov {
                    Some(MissProvenance::TransientInval) => StallCause::TransientInvalidate,
                    Some(MissProvenance::RandomRepl) => StallCause::RandomReplMiss,
                    None => match path {
                        LoadPath::Mem => StallCause::LoadMem,
                        LoadPath::L2Hit | LoadPath::RemoteL1 | LoadPath::DummyMiss => {
                            StallCause::LoadL2
                        }
                        LoadPath::L1Hit => StallCause::Exec,
                    },
                },
                Some(LqState::Deferred { .. }) => StallCause::SchemeDefer,
                _ if self.mshr_blocked => StallCause::SefePressure,
                _ => StallCause::Exec,
            };
        }
        if matches!(head.inst, Inst::Store { .. }) {
            return StallCause::StoreBuffer;
        }
        if self.rob.len() >= self.cfg.rob_entries {
            return StallCause::RobFull;
        }
        StallCause::Exec
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    fn complete(&mut self, mem: &mut MemHierarchy, now: Cycle) {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        while let Some(&Reverse((done_at, seq))) = self.completions.peek() {
            if done_at > now {
                break;
            }
            self.completions.pop();
            due.push(seq);
        }
        // Seq order keeps the predictor updates and `load_id`s in the order
        // of a full ROB walk. Entries left by a squash may name a seq that
        // dispatch has since reused: act only on a live `Issued` entry that
        // is due.
        due.sort_unstable();
        due.dedup();
        let head = self.head_seq();
        due.retain(|&seq| {
            seq >= head
                && self.rob.get((seq - head) as usize).is_some_and(
                    |e| matches!(e.status, Status::Issued { done_at } if done_at <= now),
                )
        });
        #[cfg(debug_assertions)]
        debug_assert_eq!(due, self.due_scan(now), "completion queue");
        for &seq in &due {
            let i = (seq - head) as usize;
            // Collect the load's SEFE if this entry owns an inflight load.
            if let Some(li) = self.rob[i].lq {
                if let Some(lqe) = self.lq[li] {
                    if lqe.seq == seq {
                        if let LqState::Inflight {
                            line,
                            token,
                            path,
                            issued_spec,
                            ..
                        } = lqe.state
                        {
                            let sefe = token.and_then(|t| mem.collect(t)).unwrap_or_default();
                            self.load_id_ctr += 1;
                            self.lq[li] = Some(LqEntry {
                                seq,
                                state: LqState::Done {
                                    line: Some(line),
                                    path: Some(path),
                                    sefe,
                                    load_id: Some(LoadId(self.load_id_ctr)),
                                    issued_spec,
                                    completed_at: now,
                                    exposed_until: None,
                                    visible_done: false,
                                },
                            });
                            self.awaiting_visibility[li] = true;
                        }
                    }
                }
            }
            let e = &mut self.rob[i];
            e.status = Status::Done;
            if matches!(e.inst, Inst::Fence) {
                self.pending_fences.remove(&seq);
            }
            if e.inst.is_control() {
                self.squash_sources.remove(&seq);
                // Resolve: detect misprediction and train the predictor.
                let mispredicted =
                    e.pred_taken != e.actual_taken || e.pred_target != e.actual_target;
                match e.inst {
                    Inst::Branch { .. } => {
                        let (pc, taken) = (e.pc, e.actual_taken);
                        self.pred.update(pc, taken, mispredicted);
                    }
                    Inst::Ret => {
                        let (pc, tgt) = (e.pc, e.actual_target);
                        self.pred.btb_update(pc, tgt);
                    }
                    _ => {} // jumps and calls have static targets
                }
                if mispredicted && matches!(e.inst, Inst::Branch { .. } | Inst::Ret) {
                    self.stats.mispredicts += 1;
                    // Seq order: the first flagged branch is the oldest.
                    self.mispredict.get_or_insert(seq);
                }
            }
        }
        self.due = due;
    }

    /// Fires [`SpeculationScheme::on_load_visible`] for completed loads
    /// that have become unsquashable (InvisiSpec's visibility point).
    fn visibility_scan(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        now: Cycle,
    ) {
        // Neither bound moves during the scan: the hook only reads the
        // load it is handed. Slots are visited in index order.
        let oldest_source = self.oldest_squash_source();
        let mut oldest_pending = None;
        for li in 0..self.lq.len() {
            if !self.awaiting_visibility[li] {
                continue;
            }
            let Some(lqe) = self.lq[li] else { continue };
            let LqState::Done {
                line: Some(line),
                path,
                issued_spec,
                visible_done: false,
                ..
            } = lqe.state
            else {
                continue;
            };
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                oldest_source < lqe.seq,
                self.has_older_unresolved_control_scan(lqe.seq),
                "squash sources"
            );
            if oldest_source < lqe.seq {
                continue;
            }
            // TSO validation condition: an older load is still pending.
            let oldest_pending = *oldest_pending.get_or_insert_with(|| {
                self.lq
                    .iter()
                    .flatten()
                    .filter(|e| !matches!(e.state, LqState::Done { .. }))
                    .map(|e| e.seq)
                    .min()
                    .unwrap_or(u64::MAX)
            });
            let needs_validation = oldest_pending < lqe.seq;
            let exposed = scheme.on_load_visible(
                mem,
                self.core,
                CommittedLoad {
                    line,
                    issued_spec,
                    path,
                    needs_validation,
                },
                now,
            );
            if let Some(Some(LqEntry {
                state:
                    LqState::Done {
                        exposed_until,
                        visible_done,
                        ..
                    },
                ..
            })) = self.lq.get_mut(li).map(|s| s.as_mut())
            {
                *exposed_until = exposed;
                *visible_done = true;
            }
            self.awaiting_visibility[li] = false;
        }
    }

    // ------------------------------------------------------------------
    // Squash machinery
    // ------------------------------------------------------------------

    fn process_squash(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        now: Cycle,
    ) {
        // First: squash behind the oldest newly resolved mispredict.
        if let Some(branch_seq) = self.mispredict.take() {
            let redirect = self.rob[(branch_seq - self.head_seq()) as usize].actual_target;
            self.stats.squashes += 1;
            let before = self.stats.squashed_insts;
            let new_loads = self.squash_younger(branch_seq);
            let n = self.stats.squashed_insts - before;
            // A squash while Running opens a fresh episode; one that lands
            // while a cleanup is already pending joins (widens) it.
            let episode = match &self.squash {
                SquashPhase::WaitInflight { episode, .. } => *episode,
                SquashPhase::Running => {
                    self.episodes += 1;
                    self.episodes
                }
            };
            self.emit(
                now,
                TraceEvent::Squash {
                    seq: branch_seq,
                    squashed: n,
                },
            );
            self.obs.emit(
                now,
                SimEvent::Squash {
                    core: self.core.index(),
                    seq: branch_seq,
                    squashed: n,
                    episode,
                },
            );
            self.emit_squashed_loads(now, &new_loads, episode);
            self.fetch_pc = redirect;
            self.fetch_halted = false;
            match &mut self.squash {
                SquashPhase::WaitInflight { loads, .. } => {
                    // An older branch mispredicted while we were waiting:
                    // widen the pending squash.
                    loads.extend(new_loads);
                }
                SquashPhase::Running => {
                    self.squash = SquashPhase::WaitInflight {
                        mispredict_at: now,
                        loads: new_loads,
                        episode,
                        seq: branch_seq,
                    };
                }
            }
            // The front end is redirected in any case; the stall length is
            // decided when the scheme's cleanup completes (below).
            self.fetch_stall_until = self.fetch_stall_until.max(now + self.cfg.redirect_penalty);
        }

        // Second: if a squash is pending, run cleanup once older inflight
        // correct-path loads are done (or immediately if the scheme does
        // not wait).
        if let SquashPhase::WaitInflight { mispredict_at, .. } = self.squash {
            let must_wait = scheme.waits_for_older_inflight() && self.any_inflight_load();
            if !must_wait {
                let (loads, episode, seq) =
                    match std::mem::replace(&mut self.squash, SquashPhase::Running) {
                        SquashPhase::WaitInflight {
                            loads,
                            episode,
                            seq,
                            ..
                        } => (loads, episode, seq),
                        SquashPhase::Running => unreachable!(),
                    };
                // Register the episode with the hierarchy before the scheme
                // runs: every cleanup event the undo emits (inval, restore,
                // epoch bump, dropped fill) is stamped with this id.
                mem.begin_cleanup_episode(self.core, episode, seq);
                let resp = scheme.on_squash(
                    mem,
                    SquashInfo {
                        core: self.core,
                        mispredict_at,
                        now,
                        loads: &loads,
                    },
                );
                let resume = resp.resume_at.max(now);
                self.stats.squash_wait_cycles += now - mispredict_at;
                self.stats.squash_cleanup_cycles += resume - now;
                self.stats.cleanup_duration.record(resume - now);
                self.stats.episode_duration.record(resume - mispredict_at);
                self.stats.episode_loads.record(loads.len() as u64);
                self.obs.emit(
                    now,
                    SimEvent::CleanupStart {
                        core: self.core.index(),
                        loads: loads.len() as u64,
                        stall: resume - now,
                        episode,
                    },
                );
                self.obs.emit(
                    resume,
                    SimEvent::CleanupEnd {
                        core: self.core.index(),
                        stall: resume - now,
                        episode,
                    },
                );
                self.fetch_stall_until = self.fetch_stall_until.max(resume);
                self.cleanup_stall_until = self.cleanup_stall_until.max(resume);
                if self.halt_after_squash {
                    self.halted = true;
                }
            }
        }
    }

    /// Emits one [`SimEvent::SquashedLoad`] per squashed load with a known
    /// line (the leakage-audit sink correlates these with cleanup events).
    fn emit_squashed_loads(&mut self, now: Cycle, loads: &[SquashedLoad], episode: u64) {
        if !self.obs.is_enabled() {
            return;
        }
        for l in loads {
            if let Some(line) = l.line {
                self.obs.emit(
                    now,
                    SimEvent::SquashedLoad {
                        core: self.core.index(),
                        line: line.raw(),
                        issued: !matches!(l.state, SquashedLoadState::NotIssued),
                        episode,
                    },
                );
            }
        }
    }

    fn any_inflight_load(&self) -> bool {
        self.lq
            .iter()
            .flatten()
            .any(|e| matches!(e.state, LqState::Inflight { .. }))
    }

    /// Removes all ROB entries younger than `branch_seq`, returning squash
    /// records for their loads.
    fn squash_younger(&mut self, branch_seq: u64) -> Vec<SquashedLoad> {
        let mut loads = Vec::new();
        while let Some(back) = self.rob.back() {
            if back.seq <= branch_seq {
                break;
            }
            let e = self.rob.pop_back().expect("checked non-empty");
            self.stats.squashed_insts += 1;
            self.squash_sources.remove(&e.seq);
            self.pending_fences.remove(&e.seq);
            if let Some(li) = e.lq {
                if let Some(lqe) = self.lq[li] {
                    if lqe.seq == e.seq {
                        let rec = self.squash_record(&lqe);
                        loads.push(rec);
                        self.lq[li] = None;
                        self.awaiting_visibility[li] = false;
                    }
                }
            }
            if let Some(si) = e.sq {
                if let Some(sqe) = self.sq[si] {
                    if sqe.seq == e.seq {
                        self.sq[si] = None;
                    }
                }
            }
        }
        // Sequence numbers are dense in the ROB (positions are computed as
        // seq offsets), so dispatch resumes right after the branch. Safe:
        // every consumer of a squashed seq was itself squashed. The derived
        // sets and list drop the squashed seqs too; the completion queue
        // keeps its entries and `complete` filters them.
        self.next_seq = branch_seq + 1;
        let kept = self.waiting.partition_point(|w| w.seq <= branch_seq);
        self.waiting.truncate(kept);
        // Loads were collected youngest-first; the scheme expects oldest
        // first.
        loads.reverse();
        // Rebuild the rename map from the surviving entries.
        self.last_writer = [None; NUM_REGS];
        for e in &self.rob {
            if let Some(d) = e.dst {
                self.last_writer[d.index()] = Some(e.seq);
            }
        }
        loads
    }

    fn squash_record(&mut self, lqe: &LqEntry) -> SquashedLoad {
        match lqe.state {
            LqState::NotIssued => {
                self.stats
                    .record_squashed_load(SquashedClass::NotIssued, false);
                SquashedLoad {
                    line: None,
                    load_id: None,
                    state: SquashedLoadState::NotIssued,
                }
            }
            LqState::Deferred { line } => {
                self.stats
                    .record_squashed_load(SquashedClass::NotIssued, false);
                SquashedLoad {
                    line: Some(line),
                    load_id: None,
                    state: SquashedLoadState::NotIssued,
                }
            }
            LqState::Inflight {
                line, token, path, ..
            } => {
                self.stats.record_squashed_load(Self::classify(path), true);
                SquashedLoad {
                    line: Some(line),
                    load_id: None,
                    state: SquashedLoadState::Inflight { path, token },
                }
            }
            LqState::Done {
                line,
                path,
                sefe,
                load_id,
                ..
            } => {
                let class = path.map(Self::classify).unwrap_or(SquashedClass::L1Hit);
                self.stats.record_squashed_load(class, false);
                SquashedLoad {
                    line,
                    load_id,
                    state: SquashedLoadState::Executed {
                        path: path.unwrap_or(LoadPath::L1Hit),
                        sefe,
                    },
                }
            }
        }
    }

    fn classify(path: LoadPath) -> SquashedClass {
        match path {
            LoadPath::L1Hit => SquashedClass::L1Hit,
            LoadPath::L2Hit | LoadPath::RemoteL1 | LoadPath::DummyMiss => SquashedClass::L2Hit,
            LoadPath::Mem => SquashedClass::L2Miss,
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        dmem: &mut DataMem,
        now: Cycle,
    ) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else {
                return;
            };
            if head.status != Status::Done {
                return;
            }
            if let Some(at) = head.commit_ready_at {
                if now < at {
                    return;
                }
            }
            let mut entry = self.rob.front().expect("checked").clone();
            // Capture the load's line for the commit event before the LQ
            // slot is freed below.
            let committed_line = if self.obs.is_enabled() {
                entry
                    .lq
                    .and_then(|li| self.lq[li])
                    .filter(|l| l.seq == entry.seq)
                    .and_then(|l| match l.state {
                        LqState::Done { line, .. } => line,
                        LqState::Inflight { line, .. } | LqState::Deferred { line } => Some(line),
                        LqState::NotIssued => None,
                    })
            } else {
                None
            };
            // Deferred exception: a faulting load never retires — it (and
            // everything younger) is squashed, and the active scheme
            // cleans up its transient cache changes exactly as for a
            // branch mis-speculation.
            if entry.faulting {
                if entry.commit_ready_at.is_none() {
                    // The permission check runs now; the exception lands
                    // `fault_check_latency` later — dependents execute
                    // transiently in that window (the Meltdown race).
                    self.rob.front_mut().expect("head").commit_ready_at =
                        Some(now + self.cfg.fault_check_latency);
                    return;
                }
                self.raise_fault(now);
                return;
            }
            // Scheme hook + memory side effects.
            match entry.inst {
                Inst::Load { .. } => {
                    let lqe = entry
                        .lq
                        .and_then(|li| self.lq[li])
                        .filter(|l| l.seq == entry.seq);
                    if !entry.committed_scheme_done {
                        let (line, path, issued_spec, completed_at, exposed_until) =
                            match lqe.map(|l| l.state) {
                                Some(LqState::Done {
                                    line,
                                    path,
                                    issued_spec,
                                    completed_at,
                                    exposed_until,
                                    ..
                                }) => (line, path, issued_spec, completed_at, exposed_until),
                                _ => (None, None, false, now, None),
                            };
                        // Retirement may not pass a pending visibility-point
                        // update load (InvisiSpec revised).
                        if let Some(at) = exposed_until {
                            if now < at {
                                self.rob.front_mut().expect("head").commit_ready_at = Some(at);
                                self.stats.commit_stall_cycles += at - now;
                                return;
                            }
                        }
                        if let Some(line) = line {
                            let action = scheme.commit_load(
                                mem,
                                self.core,
                                CommittedLoad {
                                    line,
                                    issued_spec,
                                    path,
                                    needs_validation: false,
                                },
                                now,
                            );
                            // Window-extension messages for long-speculative
                            // loads (Section 3.6).
                            if scheme.uses_window_protection() && path.is_some() {
                                let age = now.saturating_sub(completed_at);
                                let msgs = age / self.cfg.window_extend_interval;
                                if msgs > 0 {
                                    self.stats.window_extend_msgs += msgs;
                                    mem.note_traffic(MsgClass::WindowExtend, msgs);
                                }
                            }
                            match action {
                                CommitAction::Proceed => {}
                                CommitAction::StallUntil(c) => {
                                    self.rob.front_mut().expect("head").commit_ready_at = Some(c);
                                    self.rob.front_mut().expect("head").committed_scheme_done =
                                        true;
                                    if now < c {
                                        self.stats.commit_stall_cycles += c - now;
                                        return;
                                    }
                                }
                                CommitAction::HoldLqUntil(c) => {
                                    if let Some(li) = entry.lq {
                                        self.lq[li] = None;
                                        self.awaiting_visibility[li] = false;
                                        self.lq_held.push(c);
                                        entry.lq = None;
                                        self.rob.front_mut().expect("head").lq = None;
                                    }
                                }
                            }
                        }
                    }
                    self.stats.committed_loads += 1;
                }
                Inst::Store { .. } => {
                    if let Some(si) = entry.sq {
                        if let Some(sqe) = self.sq[si].filter(|s| s.seq == entry.seq) {
                            let addr = sqe.addr.expect("store issued before commit");
                            dmem.write(addr, sqe.value.expect("store value ready"));
                            mem.store(self.core, addr.line(), now);
                        }
                    }
                    self.stats.committed_stores += 1;
                }
                Inst::Clflush { .. } => {
                    // Delayed until the correct path (Section 3.5, Table 2):
                    // commit is the correct path.
                    if let Some(v) = entry.result {
                        mem.clflush(self.core, Addr::new(v).line(), now);
                    }
                }
                Inst::Branch { .. } => {
                    self.stats.committed_branches += 1;
                }
                Inst::Halt => {
                    self.halted = true;
                }
                _ => {}
            }
            // Architectural register update.
            if let (Some(d), Some(v)) = (entry.dst, entry.result) {
                self.regs[d.index()] = v;
            }
            if let Some(d) = entry.dst {
                if self.last_writer[d.index()] == Some(entry.seq) {
                    self.last_writer[d.index()] = None;
                }
            }
            // Free queues.
            if let Some(li) = entry.lq {
                if self.lq[li].is_some_and(|l| l.seq == entry.seq) {
                    self.lq[li] = None;
                    self.awaiting_visibility[li] = false;
                }
            }
            if let Some(si) = entry.sq {
                if self.sq[si].is_some_and(|s| s.seq == entry.seq) {
                    self.sq[si] = None;
                }
            }
            self.emit(
                now,
                TraceEvent::Commit {
                    seq: entry.seq,
                    pc: entry.pc,
                },
            );
            self.obs.emit_with(now, || SimEvent::Commit {
                core: self.core.index(),
                seq: entry.seq,
                pc: entry.pc as u64,
                line: committed_line.map(|l| l.raw()),
            });
            self.rob.pop_front();
            self.stats.committed_insts += 1;
            if self.halted {
                return;
            }
        }
    }

    /// Raises the deferred fault of the ROB head: squashes the head and
    /// everything younger, redirects fetch to the fault handler (or halts
    /// the program), and hands the squashed loads to the scheme's squash
    /// path for cleanup on the next `process_squash`.
    fn raise_fault(&mut self, now: Cycle) {
        let head = self.rob.front().expect("fault needs a head");
        let (head_seq, head_pc) = (head.seq, head.pc);
        self.stats.faults += 1;
        self.stats.squashes += 1;
        self.emit(now, TraceEvent::Fault { seq: head_seq });
        self.obs.emit(
            now,
            SimEvent::Fault {
                core: self.core.index(),
                seq: head_seq,
                pc: head_pc as u64,
            },
        );
        let loads = self.squash_younger(head_seq - 1);
        // A fault while Running opens an episode exactly like a mispredict.
        let episode = match &self.squash {
            SquashPhase::WaitInflight { episode, .. } => *episode,
            SquashPhase::Running => {
                self.episodes += 1;
                self.episodes
            }
        };
        self.emit_squashed_loads(now, &loads, episode);
        match self.program.fault_handler {
            Some(h) => {
                self.fetch_pc = h;
                self.fetch_halted = false;
            }
            None => {
                // Fatal: stop fetching now, halt once the scheme's cleanup
                // of the transient state has completed.
                self.fetch_halted = true;
                self.halt_after_squash = true;
            }
        }
        match &mut self.squash {
            SquashPhase::WaitInflight { loads: l, .. } => l.extend(loads),
            SquashPhase::Running => {
                self.squash = SquashPhase::WaitInflight {
                    mispredict_at: now,
                    loads,
                    episode,
                    seq: head_seq,
                };
            }
        }
        self.fetch_stall_until = self.fetch_stall_until.max(now + self.cfg.redirect_penalty);
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    fn src_value(&self, src: Src) -> Option<u64> {
        match src {
            Src::Ready(v) => Some(v),
            Src::Wait(seq) => {
                let head = self.rob.front()?.seq;
                if seq < head {
                    // The producer committed: its value is in the
                    // architectural register file, which `src_value_for`
                    // reads (it knows the source register) before falling
                    // back here for in-flight producers.
                    None
                } else {
                    let idx = (seq - head) as usize;
                    let e = self.rob.get(idx)?;
                    debug_assert_eq!(e.seq, seq);
                    if e.status == Status::Done {
                        e.result
                    } else {
                        None
                    }
                }
            }
        }
    }

    /// Resolves a dependency that may have committed: committed producers'
    /// values live in the architectural register file.
    fn src_value_for(&self, src: Src, reg_fallback: Reg) -> Option<u64> {
        match src {
            Src::Ready(v) => Some(v),
            Src::Wait(seq) => {
                if seq < self.head_seq() {
                    Some(self.regs[reg_fallback.index()])
                } else {
                    self.src_value(src)
                }
            }
        }
    }

    /// Seq of the ROB head (the next seq to dispatch when the ROB is empty).
    fn head_seq(&self) -> u64 {
        self.rob.front().map_or(self.next_seq, |e| e.seq)
    }

    /// Oldest entry that can still squash younger ones (`u64::MAX` if
    /// none): an unresolved control instruction, or a load that has not yet
    /// passed its (deferred) permission check — the "all transient
    /// instructions are unsafe until they cannot be squashed" threat model
    /// of the paper, which covers both Spectre- and Meltdown-class events.
    fn oldest_squash_source(&self) -> u64 {
        self.squash_sources.first().copied().unwrap_or(u64::MAX)
    }

    /// Whether anything older than `seq` can still squash it.
    fn has_older_unresolved_control(&self, seq: u64) -> bool {
        let fast = self.oldest_squash_source() < seq;
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            fast,
            self.has_older_unresolved_control_scan(seq),
            "squash sources"
        );
        fast
    }

    /// Memory operations may not issue past an incomplete older fence.
    fn has_older_pending_fence(&self, seq: u64) -> bool {
        let fast = self.pending_fences.first().is_some_and(|&f| f < seq);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            fast,
            self.has_older_pending_fence_scan(seq),
            "pending fences"
        );
        fast
    }

    fn sq_forward(&self, seq: u64, addr: Addr) -> Option<u64> {
        let word = addr.raw() >> 3;
        self.sq
            .iter()
            .flatten()
            .filter(|s| s.seq < seq)
            .filter(|s| s.addr.is_some_and(|a| a.raw() >> 3 == word))
            .max_by_key(|s| s.seq)
            .and_then(|s| s.value)
    }

    /// Moves ROB entry `i` from `Waiting` to `Issued`, queueing its
    /// completion. A load stops being a squash source here unless its
    /// permission check will fault.
    fn set_issued(&mut self, i: usize, done_at: Cycle) {
        let e = &mut self.rob[i];
        debug_assert_eq!(e.status, Status::Waiting);
        e.status = Status::Issued { done_at };
        self.completions.push(Reverse((done_at, e.seq)));
        if e.inst.is_load() && !e.faulting {
            self.squash_sources.remove(&e.seq);
        }
    }

    /// Walks the `Waiting` entries oldest first, issuing up to
    /// `issue_width` of them.
    fn issue(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        dmem: &mut DataMem,
        now: Cycle,
    ) {
        let mut waiting = std::mem::take(&mut self.waiting);
        let head = self.head_seq();
        let mut budget = self.cfg.issue_width;
        // Conservative memory disambiguation: a load may not issue past an
        // older store whose address is still unknown (no store-set
        // speculation — a memory-order mis-speculation would need its own
        // squash-and-undo path). A store's address is known once it
        // issues, and every older `Waiting` entry is walked before a load.
        let mut unknown_store = false;
        let (mut walked, mut kept) = (0, 0);
        while walked < waiting.len() && budget > 0 {
            let mut w = waiting[walked];
            walked += 1;
            let i = (w.seq - head) as usize;
            // An entry missing an operand cannot issue, and trying it has
            // no side effect.
            let blocked = w.blocked_on >= head
                && self.rob[(w.blocked_on - head) as usize].status != Status::Done;
            if !blocked {
                if self.issue_one(i, unknown_store, scheme, mem, dmem, now) {
                    budget -= 1;
                }
                if self.rob[i].status != Status::Waiting {
                    continue;
                }
                w.blocked_on = self.missing_producer(i, head);
            }
            unknown_store |= w.store;
            waiting[kept] = w;
            kept += 1;
        }
        let tail = waiting.len() - walked;
        waiting.copy_within(walked.., kept);
        waiting.truncate(kept + tail);
        self.waiting = waiting;
    }

    /// An in-flight producer that has not yet delivered a result one of
    /// ROB entry `i`'s operands waits on (0 if none).
    fn missing_producer(&self, i: usize, head: u64) -> u64 {
        self.rob[i]
            .srcs
            .iter()
            .flatten()
            .find_map(|&src| match src {
                Src::Wait(p)
                    if p >= head && self.rob[(p - head) as usize].status != Status::Done =>
                {
                    Some(p)
                }
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Tries to issue the `Waiting` ROB entry `i`. Returns whether it used
    /// an issue slot: a deferred load or an MSHR-full retry uses one
    /// while staying `Waiting`.
    fn issue_one(
        &mut self,
        i: usize,
        older_unknown_store: bool,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        dmem: &mut DataMem,
        now: Cycle,
    ) -> bool {
        let e = &self.rob[i];
        let seq = e.seq;
        match e.inst {
            Inst::Nop | Inst::Halt => {
                self.set_issued(i, now + 1);
                true
            }
            Inst::Fence => {
                // Issue only as the oldest instruction.
                if i != 0 {
                    return false;
                }
                self.set_issued(i, now + 1);
                true
            }
            Inst::Alu { op, latency, .. } => {
                let (Some(a), Some(b)) = (self.operand(i, 0), self.operand(i, 1)) else {
                    return false;
                };
                self.rob[i].result = Some(op.apply(a, b));
                self.set_issued(i, now + latency as Cycle);
                true
            }
            Inst::Load { offset, .. } => {
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    older_unknown_store,
                    self.has_older_unknown_store_scan(seq),
                    "unknown-store flag"
                );
                if self.has_older_pending_fence(seq) || older_unknown_store {
                    return false;
                }
                let Some(base) = self.operand(i, 0) else {
                    return false;
                };
                let addr = Addr::new(base.wrapping_add(offset as u64));
                let unsquashable = !self.has_older_unresolved_control(seq);
                if scheme.issue_policy() == LoadIssuePolicy::WhenUnsquashable && !unsquashable {
                    return false;
                }
                // Deferred (GetS-Safe) loads retry only when safe.
                let deferred_now = self.rob[i]
                    .lq
                    .and_then(|li| self.lq[li])
                    .is_some_and(|l| matches!(l.state, LqState::Deferred { .. }));
                if deferred_now && !unsquashable {
                    return false;
                }
                // Store-to-load forwarding: serviced from the SQ with no
                // cache access (and therefore no side effects).
                if let Some(v) = self.sq_forward(seq, addr) {
                    let li = self.rob[i].lq.expect("loads own an LQ slot");
                    self.lq[li] = Some(LqEntry {
                        seq,
                        state: LqState::Done {
                            line: None,
                            path: None,
                            sefe: SefeRecord::default(),
                            load_id: None,
                            issued_spec: false,
                            completed_at: now,
                            exposed_until: None,
                            visible_done: true,
                        },
                    });
                    self.rob[i].result = Some(v);
                    self.set_issued(i, now + 1);
                    self.stats.forwarded_loads += 1;
                    return true;
                }
                let is_spec = !unsquashable;
                // Meltdown-style race: the permission check is deferred
                // to commit; the access itself proceeds and its data
                // flows to dependents transiently.
                if self.program.is_protected(addr) {
                    self.rob[i].faulting = true;
                }
                match scheme.issue_load(
                    mem,
                    LoadIssue {
                        core: self.core,
                        line: addr.line(),
                        now,
                        is_spec,
                    },
                ) {
                    Ok(out) if out.deferred => {
                        let li = self.rob[i].lq.expect("loads own an LQ slot");
                        if !deferred_now {
                            self.stats.deferred_loads += 1;
                        }
                        self.lq[li] = Some(LqEntry {
                            seq,
                            state: LqState::Deferred { line: addr.line() },
                        });
                    }
                    Ok(out) => {
                        self.emit(
                            now,
                            TraceEvent::LoadIssue {
                                seq,
                                line: addr.line(),
                                path: out.path,
                                spec: is_spec,
                            },
                        );
                        self.obs.emit_with(now, || SimEvent::LoadIssue {
                            core: self.core.index(),
                            seq,
                            line: addr.line().raw(),
                            path: PathKind::from(out.path),
                            spec: is_spec,
                            latency: out.complete_at - now,
                        });
                        let li = self.rob[i].lq.expect("loads own an LQ slot");
                        self.lq[li] = Some(LqEntry {
                            seq,
                            state: LqState::Inflight {
                                line: addr.line(),
                                token: out.token,
                                path: out.path,
                                issued_spec: is_spec,
                                prov: out.provenance,
                            },
                        });
                        if is_spec {
                            self.stats.spec_issued_loads += 1;
                        }
                        self.rob[i].result = Some(dmem.read(addr));
                        self.set_issued(i, out.complete_at);
                    }
                    Err(_) => {
                        // MSHRs full: retry next cycle.
                        self.mshr_blocked = true;
                    }
                }
                true
            }
            Inst::Store { offset, .. } => {
                if self.has_older_pending_fence(seq) {
                    return false;
                }
                let (Some(base), Some(val)) = (self.operand(i, 0), self.operand(i, 1)) else {
                    return false;
                };
                let addr = Addr::new(base.wrapping_add(offset as u64));
                let si = self.rob[i].sq.expect("stores own an SQ slot");
                self.sq[si] = Some(SqEntry {
                    seq,
                    addr: Some(addr),
                    value: Some(val),
                });
                self.set_issued(i, now + 1);
                true
            }
            Inst::Branch { cond, target, .. } => {
                let Some(v) = self.operand(i, 0) else {
                    return false;
                };
                let taken = cond.taken(v);
                let e = &mut self.rob[i];
                e.actual_taken = taken;
                e.actual_target = if taken { target } else { e.pc + 1 };
                self.set_issued(i, now + self.cfg.branch_latency);
                true
            }
            Inst::Jump { target } => {
                let e = &mut self.rob[i];
                e.actual_taken = true;
                e.actual_target = target;
                self.set_issued(i, now + 1);
                true
            }
            Inst::Call { target } => {
                let e = &mut self.rob[i];
                e.result = Some((e.pc + 1) as u64);
                e.actual_taken = true;
                e.actual_target = target;
                self.set_issued(i, now + 1);
                true
            }
            Inst::Ret => {
                let Some(link) = self.operand(i, 0) else {
                    return false;
                };
                let e = &mut self.rob[i];
                e.actual_taken = true;
                e.actual_target = link as Pc;
                self.set_issued(i, now + self.cfg.branch_latency);
                true
            }
            Inst::Clflush { offset, .. } => {
                let Some(base) = self.operand(i, 0) else {
                    return false;
                };
                // Address computed now; the flush itself happens at
                // commit (delayed to the correct path, Section 3.5).
                self.rob[i].result = Some(base.wrapping_add(offset as u64));
                self.set_issued(i, now + 1);
                true
            }
        }
    }

    /// Resolves source operand `k` of ROB entry `i`.
    fn operand(&self, i: usize, k: usize) -> Option<u64> {
        let e = &self.rob[i];
        let src = e.srcs[k]?;
        let fallback = Self::src_reg(e.inst, k);
        match fallback {
            Some(r) => self.src_value_for(src, r),
            None => self.src_value(src),
        }
    }

    fn src_reg(inst: Inst, k: usize) -> Option<Reg> {
        use crate::isa::Operand as Op;
        match (inst, k) {
            (
                Inst::Alu {
                    src1: Op::Reg(r), ..
                },
                0,
            ) => Some(r),
            (
                Inst::Alu {
                    src2: Op::Reg(r), ..
                },
                1,
            ) => Some(r),
            (Inst::Load { base, .. }, 0) => Some(base),
            (Inst::Store { base, .. }, 0) => Some(base),
            (Inst::Store { src, .. }, 1) => Some(src),
            (Inst::Branch { src, .. }, 0) => Some(src),
            (Inst::Ret, 0) => Some(LINK_REG),
            (Inst::Clflush { base, .. }, 0) => Some(base),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Fetch / dispatch
    // ------------------------------------------------------------------

    fn fetch(&mut self, now: Cycle) {
        if now < self.fetch_stall_until {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        if self.fetch_halted || self.halted {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let pc = self.fetch_pc;
            let inst = self.program.fetch(pc);
            // Queue slots.
            let lq = if inst.is_load() {
                match self.free_slot(&self.lq) {
                    Some(s) => Some(s),
                    None => break,
                }
            } else {
                None
            };
            let sq = if matches!(inst, Inst::Store { .. }) {
                match self.free_slot_sq() {
                    Some(s) => Some(s),
                    None => break,
                }
            } else {
                None
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            // Dependency capture.
            let srcs = self.capture_srcs(inst);
            // Control-flow prediction and next fetch PC.
            let (pred_taken, pred_target, next_pc, halt_fetch) = match inst {
                Inst::Branch { target, .. } => {
                    let t = self.pred.predict(pc);
                    let tgt = if t { target } else { pc + 1 };
                    (t, tgt, tgt, false)
                }
                Inst::Jump { target } => (true, target, target, false),
                Inst::Call { target } => {
                    self.pred.ras_push(pc + 1);
                    (true, target, target, false)
                }
                Inst::Ret => {
                    let tgt = self
                        .pred
                        .ras_pop()
                        .or_else(|| self.pred.btb_lookup(pc))
                        .unwrap_or(pc + 1);
                    (true, tgt, tgt, false)
                }
                Inst::Halt => (false, pc + 1, pc + 1, true),
                _ => (false, pc + 1, pc + 1, false),
            };
            let dst = match inst {
                Inst::Alu { dst, .. } | Inst::Load { dst, .. } => Some(dst),
                Inst::Call { .. } => Some(LINK_REG),
                _ => None,
            };
            if let Some(li) = lq {
                self.lq[li] = Some(LqEntry {
                    seq,
                    state: LqState::NotIssued,
                });
            }
            if let Some(si) = sq {
                self.sq[si] = Some(SqEntry {
                    seq,
                    addr: None,
                    value: None,
                });
            }
            self.emit(now, TraceEvent::Dispatch { seq, pc });
            self.obs.emit_with(now, || SimEvent::Dispatch {
                core: self.core.index(),
                seq,
                pc: pc as u64,
            });
            self.rob.push_back(RobEntry {
                seq,
                pc,
                inst,
                status: Status::Waiting,
                srcs,
                result: None,
                dst,
                pred_taken,
                pred_target,
                actual_taken: false,
                actual_target: 0,
                lq,
                sq,
                commit_ready_at: None,
                committed_scheme_done: false,
                faulting: false,
            });
            self.waiting.push(Waiter {
                seq,
                blocked_on: 0,
                store: matches!(inst, Inst::Store { .. }),
            });
            if inst.is_control() || inst.is_load() {
                self.squash_sources.insert(seq);
            }
            if matches!(inst, Inst::Fence) {
                self.pending_fences.insert(seq);
            }
            if let Some(d) = dst {
                self.last_writer[d.index()] = Some(seq);
            }
            self.fetch_pc = next_pc;
            if halt_fetch {
                self.fetch_halted = true;
                break;
            }
        }
    }

    fn capture_srcs(&self, inst: Inst) -> [Option<Src>; 2] {
        use crate::isa::Operand as Op;
        let cap_reg = |r: Reg| match self.last_writer[r.index()] {
            Some(seq) => Src::Wait(seq),
            None => Src::Ready(self.regs[r.index()]),
        };
        let cap_op = |o: Op| match o {
            Op::Reg(r) => cap_reg(r),
            Op::Imm(v) => Src::Ready(v as u64),
        };
        match inst {
            Inst::Alu { src1, src2, .. } => [Some(cap_op(src1)), Some(cap_op(src2))],
            Inst::Load { base, .. } => [Some(cap_reg(base)), None],
            Inst::Store { base, src, .. } => [Some(cap_reg(base)), Some(cap_reg(src))],
            Inst::Branch { src, .. } => [Some(cap_reg(src)), None],
            Inst::Ret => [Some(cap_reg(LINK_REG)), None],
            Inst::Clflush { base, .. } => [Some(cap_reg(base)), None],
            _ => [None, None],
        }
    }

    fn free_slot(&self, file: &[Option<LqEntry>]) -> Option<usize> {
        // LQ slots can also be held by InvisiSpec update loads.
        let live = file.iter().filter(|s| s.is_some()).count() + self.lq_held.len();
        if live >= self.cfg.lq_entries {
            return None;
        }
        file.iter().position(|s| s.is_none())
    }

    fn free_slot_sq(&self) -> Option<usize> {
        self.sq.iter().position(|s| s.is_none())
    }
}

/// Full-scan oracles for the derived structures (debug builds only; the
/// release build has no second path).
#[cfg(debug_assertions)]
impl Pipeline {
    fn has_older_unresolved_control_scan(&self, seq: u64) -> bool {
        self.rob.iter().take_while(|e| e.seq < seq).any(|e| {
            (e.inst.is_control() && e.status != Status::Done)
                || (e.inst.is_load() && (e.status == Status::Waiting || e.faulting))
        })
    }

    fn has_older_pending_fence_scan(&self, seq: u64) -> bool {
        self.rob
            .iter()
            .take_while(|e| e.seq < seq)
            .any(|e| matches!(e.inst, Inst::Fence) && e.status != Status::Done)
    }

    fn has_older_unknown_store_scan(&self, seq: u64) -> bool {
        self.sq
            .iter()
            .flatten()
            .any(|s| s.seq < seq && s.addr.is_none())
    }

    /// Seqs of the entries whose execution is due at `now`, oldest first.
    fn due_scan(&self, now: Cycle) -> Vec<u64> {
        self.rob
            .iter()
            .filter(|e| matches!(e.status, Status::Issued { done_at } if done_at <= now))
            .map(|e| e.seq)
            .collect()
    }

    /// Checks every derived structure against the ROB it summarises.
    fn check_derived_state(&self) {
        let head = self.head_seq();
        let queued: BTreeSet<(Cycle, u64)> = self.completions.iter().map(|r| r.0).collect();
        for (i, e) in self.rob.iter().enumerate() {
            assert_eq!(e.seq, head + i as u64, "seqs are dense in the ROB");
            if let Status::Issued { done_at } = e.status {
                assert!(
                    queued.contains(&(done_at, e.seq)),
                    "issued seq {} missing from the completion queue",
                    e.seq
                );
            }
        }
        assert_eq!(
            self.mispredict, None,
            "mispredict register outlived its squash"
        );
        let waiting: Vec<u64> = self
            .rob
            .iter()
            .filter(|e| e.status == Status::Waiting)
            .map(|e| e.seq)
            .collect();
        let listed: Vec<u64> = self.waiting.iter().map(|w| w.seq).collect();
        assert_eq!(listed, waiting, "waiting list");
        for w in &self.waiting {
            let e = &self.rob[(w.seq - head) as usize];
            assert_eq!(w.store, matches!(e.inst, Inst::Store { .. }));
            assert!(
                w.blocked_on == 0 || e.srcs.contains(&Some(Src::Wait(w.blocked_on))),
                "seq {} blocked on {}, not one of its producers",
                w.seq,
                w.blocked_on
            );
        }
        let sources: BTreeSet<u64> = self
            .rob
            .iter()
            .filter(|e| {
                (e.inst.is_control() && e.status != Status::Done)
                    || (e.inst.is_load() && (e.status == Status::Waiting || e.faulting))
            })
            .map(|e| e.seq)
            .collect();
        assert_eq!(self.squash_sources, sources, "squash sources");
        let fences: BTreeSet<u64> = self
            .rob
            .iter()
            .filter(|e| matches!(e.inst, Inst::Fence) && e.status != Status::Done)
            .map(|e| e.seq)
            .collect();
        assert_eq!(self.pending_fences, fences, "pending fences");
        for (li, slot) in self.lq.iter().enumerate() {
            let awaiting = slot.is_some_and(|l| {
                matches!(
                    l.state,
                    LqState::Done {
                        line: Some(_),
                        visible_done: false,
                        ..
                    }
                )
            });
            assert_eq!(
                self.awaiting_visibility[li], awaiting,
                "LQ slot {li} awaiting visibility"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, BranchCond, Operand, ProgramBuilder};
    use cleanupspec_mem::error::SimError;
    use cleanupspec_mem::hierarchy::{LoadReq, MemConfig};

    /// Minimal pass-through scheme used to unit-test the pipeline alone.
    /// It records every load it is asked to issue.
    #[derive(Clone, Debug)]
    struct Plain {
        policy: LoadIssuePolicy,
        issued: Vec<LoadIssue>,
    }

    impl Plain {
        fn new(policy: LoadIssuePolicy) -> Self {
            Plain {
                policy,
                issued: Vec::new(),
            }
        }
    }

    impl SpeculationScheme for Plain {
        fn name(&self) -> &'static str {
            "plain"
        }
        fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
            Box::new(self.clone())
        }
        fn issue_policy(&self) -> LoadIssuePolicy {
            self.policy
        }
        fn issue_load(
            &mut self,
            mem: &mut MemHierarchy,
            req: LoadIssue,
        ) -> Result<cleanupspec_mem::hierarchy::LoadOutcome, SimError> {
            self.issued.push(req);
            mem.load(req.core, req.line, req.now, LoadReq::non_spec(LoadId(0)))
        }
        fn commit_load(
            &mut self,
            _mem: &mut MemHierarchy,
            _core: CoreId,
            _load: CommittedLoad,
            _now: Cycle,
        ) -> CommitAction {
            CommitAction::Proceed
        }
        fn on_squash(
            &mut self,
            mem: &mut MemHierarchy,
            info: SquashInfo<'_>,
        ) -> crate::scheme::SquashResponse {
            // Orphan inflight squashed loads like a non-secure core.
            for l in info.loads {
                if let SquashedLoadState::Inflight { token: Some(t), .. } = l.state {
                    let _ = t;
                }
            }
            let _ = mem;
            crate::scheme::SquashResponse {
                resume_at: info.now,
            }
        }
    }

    fn run_program(p: crate::isa::Program, max_cycles: Cycle) -> (Pipeline, MemHierarchy) {
        run_with(p, max_cycles, &mut Plain::new(LoadIssuePolicy::Speculative))
    }

    fn run_with(
        p: crate::isa::Program,
        max_cycles: Cycle,
        scheme: &mut dyn SpeculationScheme,
    ) -> (Pipeline, MemHierarchy) {
        let mut mem = MemHierarchy::new(MemConfig::default());
        let mut dmem = DataMem::new();
        for (a, v) in &p.init_mem {
            dmem.write(*a, *v);
        }
        let mut pipe = Pipeline::new(CoreId(0), CoreConfig::default(), Arc::new(p));
        let mut now = 0;
        while !pipe.halted() && now < max_cycles {
            now += 1;
            mem.advance(now);
            pipe.tick(scheme, &mut mem, &mut dmem, now);
        }
        // Drain outstanding fills (e.g. orphaned wrong-path misses).
        mem.advance(now + 1_000);
        pipe.stats_mut().cycles = now;
        (pipe, mem)
    }

    #[test]
    fn straight_line_alu_computes() {
        let mut b = ProgramBuilder::new("alu");
        b.movi(Reg(1), 10);
        b.movi(Reg(2), 32);
        b.alu(
            Reg(3),
            AluOp::Add,
            Operand::Reg(Reg(1)),
            Operand::Reg(Reg(2)),
        );
        b.halt();
        let (pipe, _) = run_program(b.build(), 1000);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(3)), 42);
        assert_eq!(pipe.stats().committed_insts, 4);
    }

    #[test]
    fn load_reads_initialized_memory() {
        let mut b = ProgramBuilder::new("ld");
        b.movi(Reg(1), 0x1000);
        b.load(Reg(2), Reg(1), 8);
        b.halt();
        b.init_mem(Addr::new(0x1008), 777);
        let (pipe, mem) = run_program(b.build(), 1000);
        assert_eq!(pipe.reg(Reg(2)), 777);
        assert_eq!(mem.stats().total_loads(), 1);
    }

    #[test]
    fn store_then_load_forwards_and_commits() {
        let mut b = ProgramBuilder::new("st-ld");
        b.movi(Reg(1), 0x2000);
        b.movi(Reg(2), 99);
        b.store(Reg(2), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.halt();
        let (pipe, _) = run_program(b.build(), 1000);
        assert_eq!(pipe.reg(Reg(3)), 99);
        assert!(pipe.stats().forwarded_loads >= 1, "SQ forwarding used");
        assert_eq!(pipe.stats().committed_stores, 1);
    }

    #[test]
    fn taken_loop_executes_n_times() {
        // r1 = 5; loop: r1 -= 1; branch r1 != 0 -> loop; halt
        let mut b = ProgramBuilder::new("loop");
        b.movi(Reg(1), 5);
        let loop_top = b.here();
        b.alu(Reg(1), AluOp::Sub, Operand::Reg(Reg(1)), Operand::Imm(1));
        b.branch(Reg(1), BranchCond::NotZero, loop_top);
        b.halt();
        let (pipe, _) = run_program(b.build(), 5000);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(1)), 0);
        assert_eq!(pipe.stats().committed_branches, 5);
        // The final not-taken iteration is typically mispredicted.
        assert!(pipe.stats().mispredicts >= 1);
        assert!(pipe.stats().squashes >= 1);
    }

    #[test]
    fn wrong_path_load_pollutes_cache_with_plain_scheme() {
        // Branch is actually TAKEN (skipping the load) but the predictor
        // starts not-taken, so the load runs transiently on the wrong path
        // and — with a non-secure scheme — stays in the cache.
        let secret_addr = 0x8000u64;
        let mut b = ProgramBuilder::new("wrongpath");
        b.movi(Reg(1), 1); // condition: non-zero -> taken
        b.movi(Reg(2), secret_addr);
        // Give the branch a data dependency so it resolves late enough for
        // the wrong path to issue the load.
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(1)), Operand::Imm(1));
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(3)), Operand::Imm(1));
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(3)), Operand::Imm(1));
        let br = b.branch(Reg(3), BranchCond::NotZero, 0);
        b.load(Reg(4), Reg(2), 0); // wrong path
        let target = b.here();
        b.patch_branch(br, target);
        b.halt();
        let (pipe, mem) = run_program(b.build(), 2000);
        assert!(pipe.halted());
        assert!(pipe.stats().squashes >= 1, "branch mispredicted once");
        assert!(pipe.stats().squashed_insts >= 1);
        // The wrong-path line was fetched into the hierarchy (the Plain
        // scheme retains or at least initiated it).
        let line = Addr::new(secret_addr).line();
        let polluted = mem.l1(CoreId(0)).probe(line).is_some() || mem.l2().probe(line).is_some();
        assert!(polluted, "wrong-path install should be visible (insecure)");
        // And r4 must NOT be architecturally written.
        assert_eq!(pipe.reg(Reg(4)), 0);
    }

    #[test]
    fn call_ret_roundtrip() {
        let mut b = ProgramBuilder::new("callret");
        let call_at = b.call(0);
        b.movi(Reg(2), 7); // executed after return
        b.halt();
        let fun = b.here();
        b.movi(Reg(1), 5);
        b.ret();
        b.patch_branch(call_at, fun);
        let (pipe, _) = run_program(b.build(), 1000);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(1)), 5);
        assert_eq!(pipe.reg(Reg(2)), 7);
    }

    #[test]
    fn fence_waits_for_oldest() {
        let mut b = ProgramBuilder::new("fence");
        b.movi(Reg(1), 0x3000);
        b.load(Reg(2), Reg(1), 0);
        b.fence();
        b.movi(Reg(3), 1);
        b.halt();
        let (pipe, _) = run_program(b.build(), 2000);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(3)), 1);
    }

    #[test]
    fn squashed_loads_are_classified() {
        // Misprediction with a wrong-path load that misses: Table 5 classes
        // must be populated.
        let mut b = ProgramBuilder::new("classify");
        b.movi(Reg(1), 1);
        b.movi(Reg(2), 0x9000);
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(1)), Operand::Imm(1));
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(3)), Operand::Imm(1));
        let br = b.branch(Reg(3), BranchCond::NotZero, 0);
        b.load(Reg(4), Reg(2), 0);
        b.load(Reg(5), Reg(2), 4096);
        let t = b.here();
        b.patch_branch(br, t);
        b.halt();
        let (pipe, _) = run_program(b.build(), 2000);
        let s = pipe.stats();
        assert!(s.squashed_loads() >= 1, "wrong-path loads recorded");
    }

    /// Appends `n` dependent `dst = (src | dst) * 1` multiplies: `dst`
    /// ends equal to `src`, no earlier than `3 * n` cycles after the first
    /// one issues.
    fn mul_chain(b: &mut ProgramBuilder, dst: Reg, src: Reg, n: usize) {
        b.alu(dst, AluOp::Mul, Operand::Reg(src), Operand::Imm(1));
        for _ in 1..n {
            b.alu(dst, AluOp::Mul, Operand::Reg(dst), Operand::Imm(1));
        }
    }

    #[test]
    fn load_waits_for_older_store_address() {
        // The store's base comes out of an 18-cycle Mul chain; both loads
        // have their bases at dispatch. The load of the stored word must
        // take the store's value, and the other load must not issue before
        // the store has resolved its address.
        let mut b = ProgramBuilder::new("disambiguation");
        b.movi(Reg(1), 0x4000);
        b.movi(Reg(2), 99);
        b.movi(Reg(5), 0x4000);
        b.movi(Reg(6), 0x5000);
        mul_chain(&mut b, Reg(3), Reg(1), 6);
        b.store(Reg(2), Reg(3), 0);
        b.load(Reg(4), Reg(5), 0);
        b.load(Reg(7), Reg(6), 0);
        b.halt();
        b.init_mem(Addr::new(0x4000), 7);
        b.init_mem(Addr::new(0x5000), 8);
        let mut plain = Plain::new(LoadIssuePolicy::Speculative);
        let (pipe, _) = run_with(b.build(), 2000, &mut plain);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(4)), 99, "the load sees the older store");
        assert_eq!(pipe.reg(Reg(7)), 8);
        assert_eq!(pipe.stats().forwarded_loads, 1);
        let lines: Vec<LineAddr> = plain.issued.iter().map(|r| r.line).collect();
        assert_eq!(lines, [Addr::new(0x5000).line()], "one load went to memory");
        assert!(
            plain.issued[0].now >= 18,
            "load issued at cycle {} past a store with an unknown address",
            plain.issued[0].now
        );
    }

    /// A correctly predicted not-taken branch followed by one load. With
    /// `slow_branch` the branch waits on an 18-cycle Mul chain and the
    /// load's base is ready; otherwise the branch resolves at once and the
    /// load's base waits on the chain.
    fn branch_then_load(slow_branch: bool) -> crate::isa::Program {
        let mut b = ProgramBuilder::new("branch-load");
        b.movi(Reg(1), 0);
        b.movi(Reg(2), 0x6000);
        let br = if slow_branch {
            mul_chain(&mut b, Reg(3), Reg(1), 6);
            let br = b.branch(Reg(3), BranchCond::NotZero, 0);
            b.load(Reg(4), Reg(2), 0);
            br
        } else {
            mul_chain(&mut b, Reg(3), Reg(2), 6);
            let br = b.branch(Reg(1), BranchCond::NotZero, 0);
            b.load(Reg(4), Reg(3), 0);
            br
        };
        let t = b.here();
        b.patch_branch(br, t);
        b.halt();
        b.build()
    }

    #[test]
    fn load_is_spec_exactly_while_an_older_branch_is_unresolved() {
        for (slow_branch, expect_spec) in [(true, true), (false, false)] {
            let mut plain = Plain::new(LoadIssuePolicy::Speculative);
            let (pipe, _) = run_with(branch_then_load(slow_branch), 2000, &mut plain);
            assert!(pipe.halted());
            assert_eq!(pipe.stats().squashes, 0, "the branch is predicted right");
            assert_eq!(plain.issued.len(), 1);
            assert_eq!(
                plain.issued[0].is_spec, expect_spec,
                "slow_branch = {slow_branch}: load issued at cycle {}",
                plain.issued[0].now
            );
        }
    }

    #[test]
    fn when_unsquashable_policy_holds_load_until_branch_resolves() {
        let mut eager = Plain::new(LoadIssuePolicy::Speculative);
        run_with(branch_then_load(true), 2000, &mut eager);
        let mut held = Plain::new(LoadIssuePolicy::WhenUnsquashable);
        let (pipe, _) = run_with(branch_then_load(true), 2000, &mut held);
        assert!(pipe.halted());
        assert_eq!(held.issued.len(), 1);
        assert!(!held.issued[0].is_spec, "held loads issue unsquashable");
        assert!(
            held.issued[0].now >= 18 && held.issued[0].now > eager.issued[0].now,
            "held load issued at cycle {} (speculative: {})",
            held.issued[0].now,
            eager.issued[0].now
        );
    }

    #[test]
    fn oldest_of_two_same_cycle_mispredicts_squashes_once() {
        // Both branches are taken but predicted not-taken, and both wait on
        // the same register, so they resolve in the same cycle; the younger
        // sits on the older's wrong path.
        let mut b = ProgramBuilder::new("two-mispredicts");
        b.movi(Reg(1), 1);
        mul_chain(&mut b, Reg(3), Reg(1), 3);
        let b1 = b.branch(Reg(3), BranchCond::NotZero, 0);
        let b2 = b.branch(Reg(3), BranchCond::NotZero, 0);
        b.halt();
        let t = b.here();
        b.patch_branch(b1, t);
        b.patch_branch(b2, t);
        b.movi(Reg(2), 7);
        b.halt();
        let (pipe, _) = run_program(b.build(), 2000);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(2)), 7);
        let s = pipe.stats();
        assert_eq!(s.mispredicts, 2, "both branches resolved mispredicted");
        assert_eq!(s.squashes, 1, "only the oldest squashes");
        assert_eq!(s.committed_branches, 1);
    }
}
