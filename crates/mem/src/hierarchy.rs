//! The simulated memory hierarchy: per-core private L1-D caches, a shared
//! inclusive L2 with a MESI directory, and DRAM — the configuration of
//! Table 4 in the paper, generalized to multiple cores.
//!
//! # Timing model
//!
//! Accesses are *cycle-stamped*: an access issued at cycle `t` computes its
//! service path immediately (probing tags without changing them) and returns
//! the completion cycle. Cache-state changes for load misses (installs and
//! the evictions they cause) are **deferred to the completion cycle**, via
//! the MSHR, exactly as Section 3.3 of the paper requires: *"any cache
//! changes like install and victim replacement are made only when a load
//! returns and is for the current EpochID"*. This is what makes squashing a
//! still-inflight load free — CleanupSpec just bumps the epoch and the fill
//! is dropped.
//!
//! Stores are only performed at commit time (they are non-speculative; RFOs
//! are issued non-speculatively to prevent Spectre-Prime, Section 4), so
//! their state changes are applied immediately.
//!
//! # Security hooks
//!
//! The hierarchy is mechanism, not policy: the speculation schemes in the
//! `cleanupspec` crate decide *when* to call the cleanup API
//! ([`MemHierarchy::cleanup_invalidate`], [`MemHierarchy::cleanup_restore`],
//! [`MemHierarchy::drop_core_inflight`]), whether loads may trigger
//! coherence downgrades (`allow_downgrade`, the GetS vs GetS-Safe choice of
//! Section 3.5), and whether fills are tagged for speculation-window
//! protection (Section 3.6).

use crate::cache::{CacheConfig, Evicted, GeometryError, Mesi, SetAssocCache};
use crate::ceaser::Indexer;
use crate::dram::Dram;
use crate::error::SimError;
use crate::fault::{FaultInjector, FaultKind};
use crate::mshr::{LoadPath, MshrEntry, MshrFile, MshrState, MshrToken, SefeRecord};
use crate::replacement::ReplacementKind;
use crate::stats::{LoadClass, MemStats, MsgClass, Traffic};
use crate::types::{CoreId, Cycle, EpochId, LineAddr, LoadId, SpecTag};
use cleanupspec_obs::{CacheLevel, Observer, SimEvent};
use std::collections::HashMap;

/// Directory entry for one L2-resident line.
#[derive(Clone, Copy, Debug, Default)]
struct DirEntry {
    /// Bitmap of cores whose L1 holds the line.
    sharers: u64,
    /// Core holding the line in M or E, if any.
    owner: Option<CoreId>,
}

impl DirEntry {
    fn has(&self, core: CoreId) -> bool {
        self.sharers & (1 << core.index()) != 0
    }
    fn add(&mut self, core: CoreId) {
        self.sharers |= 1 << core.index();
    }
    fn remove(&mut self, core: CoreId) {
        self.sharers &= !(1 << core.index());
        if self.owner == Some(core) {
            self.owner = None;
        }
    }
    fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }
    fn sharer_list(&self, num_cores: usize) -> Vec<CoreId> {
        (0..num_cores)
            .filter(|c| self.sharers & (1 << c) != 0)
            .map(CoreId)
            .collect()
    }
}

/// Memory-hierarchy configuration (defaults follow Table 4 of the paper).
///
/// `PartialEq` lets harnesses group security modes into hardware
/// equivalence classes (same [`MemConfig`] after
/// `SecurityMode::apply_mem_config`) — the soundness condition for
/// sharing a warmed cs-snap snapshot across modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of cores (private L1s).
    pub num_cores: usize,
    /// L1-D capacity in bytes (64 KB).
    pub l1_capacity: usize,
    /// L1-D associativity (8).
    pub l1_ways: usize,
    /// L1-D replacement policy (baseline: LRU; CleanupSpec: Random).
    pub l1_replacement: ReplacementKind,
    /// Shared L2 capacity in bytes (2 MB/core in the paper's 1-core eval).
    pub l2_capacity: usize,
    /// L2 associativity (16).
    pub l2_ways: usize,
    /// L2 replacement policy.
    pub l2_replacement: ReplacementKind,
    /// CEASER-randomize the L2 index (adds `l2_crypto_penalty` to latency).
    pub l2_randomized: bool,
    /// Skew partitions for the L2 (Skewed-CEASER / CEASER-S when combined
    /// with `l2_randomized`); `1` = conventional indexing.
    pub l2_skews: usize,
    /// L1 round-trip latency in cycles (1).
    pub l1_rt: Cycle,
    /// L2 round-trip latency in cycles, before the crypto penalty (8).
    pub l2_rt: Cycle,
    /// Extra cycles for CEASER address encryption (2).
    pub l2_crypto_penalty: Cycle,
    /// DRAM round trip after L2 (100 cycles = 50 ns at 2 GHz).
    pub dram_rt: Cycle,
    /// Extra cycles to service a line from a remote L1 (M/E downgrade).
    pub remote_penalty: Cycle,
    /// Latency of a store upgrade (S -> M) or RFO beyond the hit latency.
    pub upgrade_latency: Cycle,
    /// MSHR entries per core (64, Section 6.6).
    pub mshrs_per_core: usize,
    /// Enable speculation-window protection (dummy misses, Section 3.6).
    pub window_protection: bool,
    /// Seed for randomized structures (replacement, CEASER keys).
    pub seed: u64,
    /// Extra salt XORed into the per-core L1 seeds only. Two runs differing
    /// solely in this salt draw different L1 replacement streams while every
    /// other randomized structure (CEASER keys, L2 policy) stays identical —
    /// the victim-randomness witness `cs-chaos` uses to detect
    /// `DeterministicL1Replacement`.
    pub repl_seed_salt: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            num_cores: 1,
            l1_capacity: 64 * 1024,
            l1_ways: 8,
            l1_replacement: ReplacementKind::Lru,
            l2_capacity: 2 * 1024 * 1024,
            l2_ways: 16,
            l2_replacement: ReplacementKind::Lru,
            l2_randomized: false,
            l2_skews: 1,
            l1_rt: 1,
            l2_rt: 8,
            l2_crypto_penalty: 2,
            dram_rt: 100,
            remote_penalty: 14,
            upgrade_latency: 10,
            mshrs_per_core: 64,
            window_protection: false,
            seed: 0x00C1_EA9A_57EC,
            repl_seed_salt: 0,
        }
    }
}

impl MemConfig {
    /// Effective L2 round trip, including the CEASER penalty if randomized.
    pub fn l2_effective_rt(&self) -> Cycle {
        self.l2_rt
            + if self.l2_randomized {
                self.l2_crypto_penalty
            } else {
                0
            }
    }
}

/// How a load should access the hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadKind {
    /// Normal demand load that installs into the caches.
    Demand,
    /// InvisiSpec invisible load: obtains latency/data with *no* state
    /// change anywhere (Section 2.3).
    Invisible,
    /// InvisiSpec commit-time update load: installs into the caches
    /// (counted as `UpdateLoad` traffic).
    Expose,
}

/// Per-load request parameters.
#[derive(Clone, Copy, Debug)]
pub struct LoadReq {
    /// Load identifier (SEFE `LoadID`), assigned by the load queue.
    pub load: LoadId,
    /// Whether the load is speculative at issue (SEFE `isSpec`).
    pub spec: bool,
    /// Whether the load may force a remote M/E -> S downgrade. CleanupSpec
    /// issues speculative loads with GetS-Safe (`false`); the load is then
    /// deferred if it would downgrade (Section 3.5).
    pub allow_downgrade: bool,
    /// Access kind.
    pub kind: LoadKind,
    /// Tag installs for speculation-window protection.
    pub tag_spec_install: bool,
}

impl LoadReq {
    /// A plain non-speculative demand load.
    pub fn non_spec(load: LoadId) -> Self {
        LoadReq {
            load,
            spec: false,
            allow_downgrade: true,
            kind: LoadKind::Demand,
            tag_spec_install: false,
        }
    }
}

/// Why a line most recently left a core's L1 — the scheme-overhead
/// provenance of the *next* demand miss on that line. CleanupSpec's
/// security mechanisms cause extra misses that a baseline LRU cache
/// would not take; tagging them lets the pipeline's CPI stack charge
/// those miss cycles to the responsible mechanism instead of to a
/// generic load-miss bucket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MissProvenance {
    /// The line was invalidated by a CleanupSpec transient-install
    /// cleanup (Section 3.3) — the re-fetch is cleanup overhead.
    TransientInval,
    /// The line was evicted under the L1 Random replacement policy
    /// (Section 3.4) — the re-fetch may be a random-replacement miss
    /// an LRU baseline would have avoided.
    RandomRepl,
}

/// Result of issuing a load.
#[derive(Clone, Copy, Debug)]
pub struct LoadOutcome {
    /// Cycle at which the data is available.
    pub complete_at: Cycle,
    /// Service path.
    pub path: LoadPath,
    /// MSHR token for L1 misses that will fill (collect the SEFE with
    /// [`MemHierarchy::collect`]); `None` for hits, merged misses, dummy
    /// misses, and invisible loads.
    pub token: Option<MshrToken>,
    /// The load was refused under GetS-Safe (it would downgrade a remote
    /// M/E line) and must be retried once unsquashable (Section 3.5).
    pub deferred: bool,
    /// Scheme-overhead attribution of this miss, when the line last left
    /// this core's L1 for a scheme-specific reason (`None` for hits and
    /// ordinary misses).
    pub provenance: Option<MissProvenance>,
}

/// Result of a store.
#[derive(Clone, Copy, Debug)]
pub struct StoreOutcome {
    /// Cycle at which the store is globally performed.
    pub complete_at: Cycle,
}

/// The simulated memory hierarchy.
///
/// `Clone` deep-copies every array, MSHR file, DRAM queue, CEASER cipher,
/// and RNG stream — the memory half of a cs-snap [`Snapshot`]. The
/// observer handle and fault injector are shared (`Arc`) with the clone;
/// the injector's firing counters are snapshotted separately by
/// [`crate::fault::FaultInjector::counters_snapshot`].
#[derive(Clone, Debug)]
pub struct MemHierarchy {
    cfg: MemConfig,
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    dir: HashMap<LineAddr, DirEntry>,
    mshr: Vec<MshrFile>,
    dram: Dram,
    epoch: Vec<EpochId>,
    stats: MemStats,
    traffic: Traffic,
    obs: Observer,
    faults: FaultInjector,
    /// Per-core map from line address to why that line most recently left
    /// the core's L1 for a scheme-attributable reason. Written by the
    /// cleanup/eviction paths, consumed (removed) by the next demand miss
    /// on the line, which reports it via [`LoadOutcome::provenance`].
    miss_prov: Vec<HashMap<LineAddr, MissProvenance>>,
    /// Cycle of the most recent externally stamped operation; events from
    /// calls without a `now` parameter (cleanup ops, retires) are stamped
    /// with it. Exact in a live simulation, where `advance(now)` runs each
    /// cycle before the cores act.
    now_hint: Cycle,
    /// Per-core cleanup episode currently registered by the pipeline's
    /// squash site ([`MemHierarchy::begin_cleanup_episode`]); stamped onto
    /// every cleanup-side event. 0 = no episode registered yet.
    episode: Vec<u64>,
    /// Sequence number of the squash that opened each core's registered
    /// episode (stamped onto `CleanupInval`/`CleanupRestore`).
    episode_seq: Vec<u64>,
}

impl MemHierarchy {
    /// Builds the hierarchy for a configuration.
    ///
    /// # Panics
    /// Panics if `num_cores` is 0 or exceeds 64, or if cache geometry is
    /// not a power of two (see [`MemHierarchy::try_new`]).
    pub fn new(cfg: MemConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the hierarchy, validating the configuration instead of
    /// panicking. The set indexers mask with `num_sets - 1`, so geometry
    /// errors caught here would otherwise silently alias cache sets in
    /// release builds.
    ///
    /// # Errors
    /// Returns [`SimError::Geometry`] if the core count is outside `1..=64`
    /// or either cache level has an invalid geometry.
    pub fn try_new(cfg: MemConfig) -> Result<Self, SimError> {
        if cfg.num_cores < 1 || cfg.num_cores > 64 {
            return Err(GeometryError::new(format!(
                "num_cores must be in 1..=64, got {}",
                cfg.num_cores
            ))
            .into());
        }
        let l1 = (0..cfg.num_cores)
            .map(|c| {
                SetAssocCache::try_new(
                    "l1d",
                    CacheConfig {
                        capacity_bytes: cfg.l1_capacity,
                        ways: cfg.l1_ways,
                        replacement: cfg.l1_replacement,
                        indexer: Indexer::Modulo,
                        skews: 1,
                        seed: cfg.seed ^ (c as u64 + 1) ^ cfg.repl_seed_salt,
                    },
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let l2_indexer = if cfg.l2_randomized {
            Indexer::ceaser(cfg.seed ^ 0xCEA5_E000)
        } else {
            Indexer::Modulo
        };
        let l2 = SetAssocCache::try_new(
            "l2",
            CacheConfig {
                capacity_bytes: cfg.l2_capacity,
                ways: cfg.l2_ways,
                replacement: cfg.l2_replacement,
                indexer: l2_indexer,
                skews: cfg.l2_skews,
                seed: cfg.seed ^ 0x12,
            },
        )?;
        let mshr = (0..cfg.num_cores)
            .map(|c| MshrFile::new(CoreId(c), cfg.mshrs_per_core))
            .collect();
        Ok(MemHierarchy {
            dram: Dram::new(cfg.dram_rt),
            epoch: vec![EpochId::zero(); cfg.num_cores],
            l1,
            l2,
            dir: HashMap::new(),
            mshr,
            stats: MemStats::default(),
            traffic: Traffic::default(),
            obs: Observer::disabled(),
            faults: FaultInjector::disabled(),
            miss_prov: vec![HashMap::new(); cfg.num_cores],
            now_hint: 0,
            episode: vec![0; cfg.num_cores],
            episode_seq: vec![0; cfg.num_cores],
            cfg,
        })
    }

    /// Arms fault injection, propagating the shared handle to the L1 caches
    /// (where the `DeterministicL1Replacement` hook lives).
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        for c in &mut self.l1 {
            c.set_fault_injector(faults.clone());
        }
        self.faults = faults;
    }

    /// The fault injector threaded through this hierarchy (disabled unless
    /// armed); the schemes consult it for scheme-level faults.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.faults
    }

    /// Attaches the event-bus observer, propagating it to every MSHR file.
    /// Emits the initial [`SimEvent::CeaserRemap`] keying event when the L2
    /// index is randomized.
    pub fn set_observer(&mut self, obs: Observer) {
        for f in &mut self.mshr {
            f.set_observer(obs.clone());
        }
        if self.cfg.l2_randomized {
            obs.emit(
                self.now_hint,
                SimEvent::CeaserRemap {
                    level: CacheLevel::L2,
                    epoch: 0,
                },
            );
        }
        self.obs = obs;
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Current CleanupSpec epoch of a core.
    pub fn epoch(&self, core: CoreId) -> EpochId {
        self.epoch[core.index()]
    }

    /// Registers the cleanup episode about to run for `core`. The pipeline
    /// calls this from its squash site immediately before handing the
    /// squashed loads to the scheme, mirroring the `now_hint` pattern:
    /// cleanup entry points (`cleanup_invalidate`, `cleanup_restore`,
    /// `drop_core_inflight`) have no episode parameter of their own and
    /// stamp their events from this registration instead.
    pub fn begin_cleanup_episode(&mut self, core: CoreId, episode: u64, seq: u64) {
        self.episode[core.index()] = episode;
        self.episode_seq[core.index()] = seq;
    }

    /// The cleanup episode currently registered for `core` (0 = none).
    pub fn current_episode(&self, core: CoreId) -> u64 {
        self.episode[core.index()]
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Network-traffic counters.
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// Records externally generated traffic (e.g. CleanupSpec window-extend
    /// messages, which are produced by the core-side scheme).
    pub fn note_traffic(&mut self, class: MsgClass, n: u64) {
        self.traffic.add(class, n);
    }

    /// Clears statistics and traffic counters (end-of-warm-up). Cache and
    /// directory state is preserved.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.traffic = Traffic::default();
    }

    /// Canonical snapshot of one core's L1 (for rollback-exactness tests).
    pub fn l1_snapshot(&self, core: CoreId) -> Vec<(LineAddr, Mesi, bool)> {
        self.l1[core.index()].snapshot()
    }

    /// Canonical snapshot of the L2.
    pub fn l2_snapshot(&self) -> Vec<(LineAddr, Mesi, bool)> {
        self.l2.snapshot()
    }

    /// Order-independent content digest of one core's L1 (tags + MESI +
    /// dirty bits + per-line data supplied by `data`). Two caches with the
    /// same resident lines, states, and data hash identically regardless of
    /// physical placement — the cache-restoration oracle compares these.
    pub fn l1_digest(&self, core: CoreId, data: impl FnMut(LineAddr) -> u64) -> u64 {
        self.l1[core.index()].content_digest(data)
    }

    /// Order-independent content digest of the shared L2 (see [`Self::l1_digest`]).
    pub fn l2_digest(&self, data: impl FnMut(LineAddr) -> u64) -> u64 {
        self.l2.content_digest(data)
    }

    /// Read-only view of a core's L1 (diagnostics).
    pub fn l1(&self, core: CoreId) -> &SetAssocCache {
        &self.l1[core.index()]
    }

    /// Read-only view of the L2.
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// Per-core MSHR occupancy (diagnostics).
    pub fn mshr_occupancy(&self, core: CoreId) -> usize {
        self.mshr[core.index()].occupancy()
    }

    /// Per-core count of live speculation-tagged MSHR entries — the pending
    /// SEFEs (diagnostics, surfaced by the livelock dump).
    pub fn sefe_occupancy(&self, core: CoreId) -> usize {
        self.mshr[core.index()].spec_occupancy()
    }

    /// `(digest, count)` witness over one core's L1 victim choices (see
    /// [`SetAssocCache::victim_witness`]); the chaos replacement oracle
    /// compares these across salted runs.
    pub fn l1_victim_witness(&self, core: CoreId) -> (u64, u64) {
        self.l1[core.index()].victim_witness()
    }

    // ------------------------------------------------------------------
    // Loads
    // ------------------------------------------------------------------

    /// Issues a load for `line` from `core` at cycle `now`.
    ///
    /// # Errors
    /// Returns [`SimError::MshrFull`] when no MSHR entry is free; the core
    /// should retry on a later cycle.
    pub fn load(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: Cycle,
        req: LoadReq,
    ) -> Result<LoadOutcome, SimError> {
        self.now_hint = now;
        self.mshr[core.index()].stamp(now);
        match req.kind {
            LoadKind::Invisible => Ok(self.load_invisible(core, line, now)),
            LoadKind::Demand | LoadKind::Expose => self.load_demand(core, line, now, req),
        }
    }

    fn msg_class_for(kind: LoadKind) -> MsgClass {
        match kind {
            LoadKind::Demand => MsgClass::Regular,
            LoadKind::Invisible => MsgClass::SpecLoad,
            LoadKind::Expose => MsgClass::UpdateLoad,
        }
    }

    /// InvisiSpec invisible load: classify the path and compute its latency
    /// without changing any cache, directory, or replacement state.
    fn load_invisible(&mut self, core: CoreId, line: LineAddr, now: Cycle) -> LoadOutcome {
        let cls = MsgClass::SpecLoad;
        let (path, latency) = if self.l1[core.index()].probe(line).is_some() {
            (LoadPath::L1Hit, self.cfg.l1_rt)
        } else if let Some(_l2line) = self.l2.probe(line) {
            let dir = self.dir.get(&line).copied().unwrap_or_default();
            self.traffic.add(cls, 2);
            match dir.owner {
                Some(o) if o != core => (
                    LoadPath::RemoteL1,
                    self.cfg.l2_effective_rt() + self.cfg.remote_penalty,
                ),
                _ => (LoadPath::L2Hit, self.cfg.l2_effective_rt()),
            }
        } else {
            self.traffic.add(cls, 4);
            (LoadPath::Mem, self.cfg.l2_effective_rt() + self.cfg.dram_rt)
        };
        self.stats.record_path(path);
        self.stats.record_latency(path, latency);
        LoadOutcome {
            complete_at: now + latency,
            path,
            token: None,
            deferred: false,
            provenance: None,
        }
    }

    fn load_demand(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: Cycle,
        req: LoadReq,
    ) -> Result<LoadOutcome, SimError> {
        let ci = core.index();
        let cls = Self::msg_class_for(req.kind);

        // L1 hit: 1-cycle round trip; replacement-state update.
        if self.l1[ci].probe(line).is_some() {
            self.l1[ci].touch(line);
            self.stats.record_path(LoadPath::L1Hit);
            self.stats.record_latency(LoadPath::L1Hit, self.cfg.l1_rt);
            self.stats.classify(LoadClass::SafeCache);
            return Ok(LoadOutcome {
                complete_at: now + self.cfg.l1_rt,
                path: LoadPath::L1Hit,
                token: None,
                deferred: false,
                provenance: None,
            });
        }

        // The line is absent from our L1: consume any pending attribution
        // of why it left (cleanup invalidate / random replacement). The
        // deferred and MSHR-full paths below re-insert it so the retry
        // still carries the attribution.
        let provenance = self.miss_prov[ci].remove(&line);

        // Merge with an outstanding miss to the same line: the merged load
        // shares the response and causes no fills of its own.
        if let Some(e) = self.mshr[ci].find_pending(line) {
            let (at, path) = (e.complete_at, e.path);
            self.stats.record_path(path);
            self.stats
                .record_latency(path, at.max(now + self.cfg.l1_rt) - now);
            self.stats.classify(match path {
                LoadPath::Mem => LoadClass::Dram,
                LoadPath::RemoteL1 => LoadClass::RemoteEM,
                _ => LoadClass::SafeCache,
            });
            self.stats.count_provenance(provenance);
            return Ok(LoadOutcome {
                complete_at: at.max(now + self.cfg.l1_rt),
                path,
                token: None,
                deferred: false,
                provenance,
            });
        }

        // Probe the L2.
        let (path, latency, wants_l2_fill) = if let Some(l2line) = self.l2.probe(line) {
            // Speculation-window protection (Section 3.6): a hit on a line
            // transiently installed by ANOTHER core is serviced as a dummy
            // miss — from memory if the L2 copy itself is transient, else
            // from the L2 — with no state change at all.
            let spec_owner = l2line.spec.map(|t| t.core);
            let l2_spec_other = spec_owner.is_some_and(|o| o != core);
            if self.cfg.window_protection && l2_spec_other {
                let latency = self.cfg.l2_effective_rt() + self.cfg.dram_rt;
                self.traffic.add(cls, 4);
                self.stats.record_path(LoadPath::DummyMiss);
                self.stats.record_latency(LoadPath::DummyMiss, latency);
                self.stats.classify(LoadClass::SafeCache);
                // The owner's speculation window has not squashed yet, so
                // the dummy miss belongs to the owner's *prospective*
                // episode: the one that will open if the window squashes.
                let owner = spec_owner.expect("l2_spec_other implies owner");
                self.obs.emit(
                    now,
                    SimEvent::DummyMiss {
                        core: ci,
                        line: line.raw(),
                        owner: owner.index(),
                        episode: self.episode[owner.index()] + 1,
                    },
                );
                self.stats.count_provenance(provenance);
                return Ok(LoadOutcome {
                    complete_at: now + latency,
                    path: LoadPath::DummyMiss,
                    token: None,
                    deferred: false,
                    provenance,
                });
            }
            let dir = self.dir.get(&line).copied().unwrap_or_default();
            match dir.owner {
                Some(owner) if owner != core => {
                    // Remote M/E line: servicing it downgrades the owner.
                    self.stats.classify(LoadClass::RemoteEM);
                    // Fault hook: EarlyCoherenceDowngrade breaks GetS-Safe —
                    // the speculative load downgrades the remote owner at
                    // request time, exactly the coherence channel Sec. 3.5
                    // closes. The opportunity is the refusal moment itself.
                    let forced = !req.allow_downgrade
                        && self.faults.should_fire(FaultKind::EarlyCoherenceDowngrade);
                    if !req.allow_downgrade && !forced {
                        // GetS-Safe fails: NACK, no state change (Sec. 3.5).
                        self.stats.gets_safe_refusals += 1;
                        self.traffic.add(MsgClass::Coherence, 2);
                        self.obs.emit(
                            now,
                            SimEvent::GetsSafeDefer {
                                core: ci,
                                line: line.raw(),
                                owner: owner.index(),
                            },
                        );
                        if let Some(p) = provenance {
                            // The deferred load retries once unsquashable;
                            // keep the attribution for the retry.
                            self.miss_prov[ci].insert(line, p);
                        }
                        return Ok(LoadOutcome {
                            complete_at: now + self.cfg.l2_effective_rt(),
                            path: LoadPath::RemoteL1,
                            token: None,
                            deferred: true,
                            provenance: None,
                        });
                    }
                    // Downgrade the owner now (at request time). A `forced`
                    // downgrade is flagged speculative in the event record.
                    self.downgrade_owner_as(owner, line, forced);
                    self.traffic.add(cls, 2);
                    self.traffic.add(MsgClass::Coherence, 2);
                    (
                        LoadPath::RemoteL1,
                        self.cfg.l2_effective_rt() + self.cfg.remote_penalty,
                        false,
                    )
                }
                _ => {
                    self.stats.classify(LoadClass::SafeCache);
                    self.traffic.add(cls, 2);
                    self.l2.touch(line);
                    (LoadPath::L2Hit, self.cfg.l2_effective_rt(), false)
                }
            }
        } else {
            // L2 miss: DRAM.
            self.stats.classify(LoadClass::Dram);
            self.traffic.add(cls, 4);
            let _ = self.dram.read(now);
            self.obs.emit(
                now,
                SimEvent::DramRead {
                    core: ci,
                    line: line.raw(),
                },
            );
            (
                LoadPath::Mem,
                self.cfg.l2_effective_rt() + self.cfg.dram_rt,
                true,
            )
        };

        self.stats.record_path(path);
        self.stats.record_latency(path, latency);
        // InvisiSpec update (Expose) loads have no load-queue entry waiting
        // to collect them: they fill and self-free as orphans.
        let auto_free = req.kind == LoadKind::Expose;
        let token = self.mshr[ci]
            .alloc(MshrEntry {
                line,
                core,
                epoch: self.epoch[ci],
                load: req.load,
                is_spec: req.spec && !auto_free,
                complete_at: now + latency,
                path,
                wants_l2_fill,
                state: MshrState::Pending,
                record: SefeRecord::default(),
                orphan: auto_free,
                episode: 0,
                gen: 0,
            })
            .map_err(|_| {
                // A speculative load with no free entry is a SEFE overflow:
                // it retries rather than running unlogged (Section 3.3).
                if let Some(p) = provenance {
                    // The retry should still carry the miss attribution.
                    self.miss_prov[ci].insert(line, p);
                }
                if req.spec {
                    self.obs.emit(
                        now,
                        SimEvent::SefeOverflow {
                            core: ci,
                            line: line.raw(),
                        },
                    );
                }
                SimError::MshrFull { core }
            })?;
        self.stats
            .mshr_occupancy
            .record(self.mshr[ci].occupancy() as u64);
        if req.spec {
            self.stats
                .sefe_occupancy
                .record(self.mshr[ci].spec_occupancy() as u64);
        }
        // Stamp whether this fill should carry a window-protection tag.
        if req.tag_spec_install && req.spec {
            // Encoded via is_spec + the scheme's tagging choice: we reuse
            // is_spec for the fill pass; tagging is suppressed for
            // non-speculative loads above.
        }
        self.stats.count_provenance(provenance);
        Ok(LoadOutcome {
            complete_at: now + latency,
            path,
            token: Some(token),
            deferred: false,
            provenance,
        })
    }

    /// Records (or clears, with `prov == None`) why `line` just left core
    /// `ci`'s L1; the next demand miss on the line consumes the entry.
    fn note_l1_departure(&mut self, ci: usize, line: LineAddr, prov: Option<MissProvenance>) {
        match prov {
            Some(p) => {
                self.miss_prov[ci].insert(line, p);
            }
            None => {
                self.miss_prov[ci].remove(&line);
            }
        }
    }

    /// Downgrades `owner`'s M/E copy of `line` to S (writeback if M).
    fn downgrade_owner(&mut self, owner: CoreId, line: LineAddr) {
        self.downgrade_owner_as(owner, line, false);
    }

    /// Downgrade with an explicit speculation flag on the emitted event.
    /// `spec` is true only when a *speculative* load forced the downgrade
    /// (possible solely via the `EarlyCoherenceDowngrade` fault; correct
    /// CleanupSpec always defers those) — the leakage audit flags it.
    fn downgrade_owner_as(&mut self, owner: CoreId, line: LineAddr, spec: bool) {
        let oi = owner.index();
        if let Some(l) = self.l1[oi].probe_mut(line) {
            if l.state == Mesi::Modified {
                // Dirty data returns to the L2.
                if let Some(l2l) = self.l2.probe_mut(line) {
                    l2l.dirty = true;
                }
                self.traffic.add(MsgClass::Writeback, 1);
            }
            l.state = Mesi::Shared;
            l.dirty = false;
            self.obs.emit(
                self.now_hint,
                SimEvent::Downgrade {
                    owner: oi,
                    line: line.raw(),
                    spec,
                },
            );
        }
        if let Some(d) = self.dir.get_mut(&line) {
            d.owner = None;
        }
    }

    // ------------------------------------------------------------------
    // Fill pass
    // ------------------------------------------------------------------

    /// Advances the hierarchy to cycle `now`: performs all fills whose
    /// responses have arrived, and frees dropped entries. Must be called
    /// once per cycle, before the cores issue new accesses.
    pub fn advance(&mut self, now: Cycle) {
        self.now_hint = now;
        for ci in 0..self.cfg.num_cores {
            self.mshr[ci].stamp(now);
            if self.mshr[ci].next_due() > now {
                #[cfg(debug_assertions)]
                debug_assert_eq!(self.due_slots_scan(ci, now), [], "MSHR earliest-due bound");
                continue;
            }
            #[cfg(debug_assertions)]
            let (expect, mut visited) = (self.due_slots_scan(ci, now), Vec::new());
            // A fill changes only its own slot (and cache state), so the
            // slots can be visited live, in index order.
            let mut next_due = Cycle::MAX;
            for slot in 0..self.mshr[ci].capacity() {
                let entry = match self.mshr[ci].slot(slot) {
                    Some(e) if e.state == MshrState::Filled => continue,
                    Some(e) if e.complete_at > now => {
                        next_due = next_due.min(e.complete_at);
                        continue;
                    }
                    Some(e) => e.clone(),
                    None => continue,
                };
                #[cfg(debug_assertions)]
                visited.push(slot);
                match entry.state {
                    MshrState::Dropped => {
                        // Squashed inflight load: data returns, nothing
                        // changes, entry freed (Section 3.3).
                        self.stats.dropped_fills += 1;
                        self.obs.emit(
                            now,
                            SimEvent::DroppedFill {
                                core: ci,
                                line: entry.line.raw(),
                                episode: entry.episode,
                            },
                        );
                        self.mshr[ci].clear_slot(slot);
                    }
                    MshrState::Pending => {
                        let tag = if entry.is_spec && !entry.orphan {
                            Some(SpecTag {
                                core: entry.core,
                                epoch: entry.epoch,
                                load: entry.load,
                                installed_at: entry.complete_at,
                            })
                        } else {
                            None
                        };
                        let rec = self.perform_fill(entry.core, entry.line, tag);
                        if entry.orphan {
                            // Insecure modes: the squashed load's fill still
                            // lands — the leak CleanupSpec closes.
                            self.stats.orphan_fills += 1;
                            self.obs.emit(
                                now,
                                SimEvent::OrphanFill {
                                    core: ci,
                                    line: entry.line.raw(),
                                },
                            );
                            self.mshr[ci].clear_slot(slot);
                        } else {
                            self.mshr[ci].mark_filled(slot, rec);
                        }
                    }
                    MshrState::Filled => unreachable!("skipped above"),
                }
            }
            self.mshr[ci].set_next_due(next_due);
            #[cfg(debug_assertions)]
            debug_assert_eq!(visited, expect, "MSHR fill pass");
        }
    }

    /// Slots of core `ci`'s MSHR entries due at `now`, by a full scan (the
    /// debug oracle for the fill pass and its earliest-due bound).
    #[cfg(debug_assertions)]
    fn due_slots_scan(&self, ci: usize, now: Cycle) -> Vec<usize> {
        let file = &self.mshr[ci];
        (0..file.capacity())
            .filter(|&i| {
                file.slot(i)
                    .is_some_and(|e| e.complete_at <= now && e.state != MshrState::Filled)
            })
            .collect()
    }

    /// Performs the installs for a completed miss. Returns the SEFE record.
    fn perform_fill(&mut self, core: CoreId, line: LineAddr, tag: Option<SpecTag>) -> SefeRecord {
        let mut rec = SefeRecord::default();
        // Install into the L2 whenever the line is absent — even when the
        // request hit the L2 at issue time: an intervening clflush or L2
        // eviction may have removed it, and inclusion must hold when the
        // L1 copy lands.
        if self.l2.probe(line).is_none() {
            rec.l2_fill = true;
            let evicted = self.l2.install(line, Mesi::Shared, false, tag);
            self.dir.insert(line, DirEntry::default());
            self.obs.emit(
                self.now_hint,
                SimEvent::Fill {
                    core: core.index(),
                    line: line.raw(),
                    level: CacheLevel::L2,
                    spec: tag.is_some(),
                },
            );
            if let Some(v) = evicted {
                self.handle_l2_eviction(core, v, tag.map(|_| line));
            }
        }
        // L1 install.
        let ci = core.index();
        if self.l1[ci].probe(line).is_none() {
            rec.l1_fill = true;
            // A store may have (re)claimed ownership between this miss's
            // issue and its fill; the fill must not create a stale Shared
            // copy beside a Modified one — downgrade the owner first.
            if let Some(o) = self.dir.get(&line).and_then(|d| d.owner) {
                if o != core {
                    self.downgrade_owner(o, line);
                    self.traffic.add(MsgClass::Coherence, 2);
                }
            }
            let dir = self.dir.entry(line).or_default();
            let state = if dir.sharer_count() == 0 && dir.owner.is_none() {
                dir.owner = Some(core);
                Mesi::Exclusive
            } else {
                Mesi::Shared
            };
            dir.add(core);
            let evicted = self.l1[ci].install(line, state, false, tag);
            self.obs.emit(
                self.now_hint,
                SimEvent::Fill {
                    core: ci,
                    line: line.raw(),
                    level: CacheLevel::L1,
                    spec: tag.is_some(),
                },
            );
            if let Some(v) = evicted {
                rec.l1_evict = Some(v.line);
                rec.l1_evict_dirty = v.dirty;
                self.stats.l1_evictions += 1;
                self.handle_l1_eviction(core, v, tag.map(|_| line));
            }
        }
        rec
    }

    /// Handles a line evicted from an L1: directory removal + writeback.
    /// `evictor` is the line whose speculative install displaced it, if
    /// any (the victim CleanupSpec owes a restore on squash).
    fn handle_l1_eviction(&mut self, core: CoreId, v: Evicted, evictor: Option<LineAddr>) {
        self.obs.emit(
            self.now_hint,
            SimEvent::Evict {
                core: core.index(),
                line: v.line.raw(),
                level: CacheLevel::L1,
                dirty: v.dirty,
                evictor: evictor.map(LineAddr::raw),
            },
        );
        // Attribute the victim's next miss: a Random-policy eviction is a
        // scheme cost (an LRU baseline may have kept the line); an LRU
        // eviction clears any stale attribution.
        let prov = (self.cfg.l1_replacement == ReplacementKind::Random)
            .then_some(MissProvenance::RandomRepl);
        self.note_l1_departure(core.index(), v.line, prov);
        if let Some(d) = self.dir.get_mut(&v.line) {
            d.remove(core);
        }
        if v.dirty {
            if let Some(l2l) = self.l2.probe_mut(v.line) {
                l2l.dirty = true;
            } else {
                self.dram.writeback();
                self.obs.emit(
                    self.now_hint,
                    SimEvent::DramWriteback { line: v.line.raw() },
                );
            }
            self.traffic.add(MsgClass::Writeback, 1);
        }
    }

    /// Handles a line evicted from the inclusive L2: back-invalidate L1
    /// copies, drop the directory entry, write back dirty data. `core` is
    /// the requester whose install caused the eviction; `evictor` is the
    /// installing line when that install was speculative.
    fn handle_l2_eviction(&mut self, core: CoreId, v: Evicted, evictor: Option<LineAddr>) {
        self.stats.l2_evictions += 1;
        self.obs.emit(
            self.now_hint,
            SimEvent::Evict {
                core: core.index(),
                line: v.line.raw(),
                level: CacheLevel::L2,
                dirty: v.dirty,
                evictor: evictor.map(LineAddr::raw),
            },
        );
        let mut dirty = v.dirty;
        if let Some(d) = self.dir.remove(&v.line) {
            for c in d.sharer_list(self.cfg.num_cores) {
                if let Some(prev) = self.l1[c.index()].invalidate(v.line) {
                    self.stats.back_invals += 1;
                    self.note_l1_departure(c.index(), v.line, None);
                    self.traffic.add(MsgClass::Inval, 1);
                    self.obs.emit(
                        self.now_hint,
                        SimEvent::BackInval {
                            core: c.index(),
                            line: v.line.raw(),
                        },
                    );
                    dirty |= prev.dirty;
                }
            }
        }
        if dirty {
            self.dram.writeback();
            self.obs.emit(
                self.now_hint,
                SimEvent::DramWriteback { line: v.line.raw() },
            );
            self.traffic.add(MsgClass::Writeback, 1);
        }
    }

    /// Collects the SEFE record of a completed miss, freeing the MSHR
    /// entry. Returns `None` if the entry is still pending or was dropped.
    pub fn collect(&mut self, token: MshrToken) -> Option<SefeRecord> {
        let ci = token.core.index();
        let rec = {
            let e = self.mshr[ci].get(token)?;
            if e.state != MshrState::Filled {
                return None;
            }
            e.record
        };
        // Fault hook: LeakMshrSlot hands back the record without freeing —
        // the slot stays Filled forever and the file slowly exhausts.
        if self.faults.should_fire(FaultKind::LeakMshrSlot) {
            return Some(rec);
        }
        self.mshr[ci].free(token);
        // Fault hook: DropSefeEntry loses the side-effect bookkeeping — the
        // load's installs will never be registered for cleanup.
        if self.faults.should_fire(FaultKind::DropSefeEntry) {
            return Some(SefeRecord::default());
        }
        Some(rec)
    }

    // ------------------------------------------------------------------
    // Stores / clflush (non-speculative, performed at commit)
    // ------------------------------------------------------------------

    /// Performs a committed store to `line`. State changes are immediate.
    pub fn store(&mut self, core: CoreId, line: LineAddr, now: Cycle) -> StoreOutcome {
        self.now_hint = now;
        self.stats.stores += 1;
        let ci = core.index();
        if let Some(l) = self.l1[ci].probe_mut(line) {
            match l.state {
                Mesi::Modified => {
                    l.dirty = true;
                    self.l1[ci].touch(line);
                    return StoreOutcome {
                        complete_at: now + self.cfg.l1_rt,
                    };
                }
                Mesi::Exclusive => {
                    l.state = Mesi::Modified;
                    l.dirty = true;
                    self.l1[ci].touch(line);
                    return StoreOutcome {
                        complete_at: now + self.cfg.l1_rt,
                    };
                }
                Mesi::Shared => {
                    // Upgrade: invalidate the other sharers.
                    self.stats.store_upgrades += 1;
                    self.invalidate_other_sharers(core, line);
                    let l = self.l1[ci].probe_mut(line).expect("still present");
                    l.state = Mesi::Modified;
                    l.dirty = true;
                    let d = self.dir.entry(line).or_default();
                    d.owner = Some(core);
                    d.add(core);
                    self.traffic.add(MsgClass::Coherence, 1);
                    return StoreOutcome {
                        complete_at: now + self.cfg.upgrade_latency,
                    };
                }
                Mesi::Invalid => unreachable!("probe_mut returns valid lines"),
            }
        }
        // Store miss: RFO (GetM), non-speculative, immediate state change.
        self.stats.store_upgrades += 1;
        let mut latency = self.cfg.l2_effective_rt();
        if self.l2.probe(line).is_none() {
            latency += self.cfg.dram_rt;
            let evicted = self.l2.install(line, Mesi::Shared, false, None);
            self.dir.insert(line, DirEntry::default());
            self.obs.emit(
                self.now_hint,
                SimEvent::Fill {
                    core: ci,
                    line: line.raw(),
                    level: CacheLevel::L2,
                    spec: false,
                },
            );
            if let Some(v) = evicted {
                self.handle_l2_eviction(core, v, None);
            }
            self.traffic.add(MsgClass::Regular, 4);
        } else {
            self.traffic.add(MsgClass::Regular, 2);
        }
        self.invalidate_other_sharers(core, line);
        let d = self.dir.entry(line).or_default();
        d.owner = Some(core);
        d.add(core);
        let evicted = self.l1[ci].install(line, Mesi::Modified, true, None);
        self.obs.emit(
            self.now_hint,
            SimEvent::Fill {
                core: ci,
                line: line.raw(),
                level: CacheLevel::L1,
                spec: false,
            },
        );
        if let Some(v) = evicted {
            self.stats.l1_evictions += 1;
            self.handle_l1_eviction(core, v, None);
        }
        StoreOutcome {
            complete_at: now + latency,
        }
    }

    /// Invalidates every other core's L1 copy of `line` (store upgrade /
    /// RFO), pulling dirty data into the L2.
    fn invalidate_other_sharers(&mut self, requester: CoreId, line: LineAddr) {
        let Some(d) = self.dir.get(&line).copied() else {
            return;
        };
        for core in d.sharer_list(self.cfg.num_cores) {
            if core == requester {
                continue;
            }
            if let Some(prev) = self.l1[core.index()].invalidate(line) {
                self.note_l1_departure(core.index(), line, None);
                if prev.dirty {
                    if let Some(l2l) = self.l2.probe_mut(line) {
                        l2l.dirty = true;
                    }
                    self.traffic.add(MsgClass::Writeback, 1);
                }
                self.traffic.add(MsgClass::Inval, 1);
            }
            if let Some(dm) = self.dir.get_mut(&line) {
                dm.remove(core);
            }
        }
    }

    /// Performs a committed `clflush`: removes the line everywhere.
    ///
    /// CleanupSpec delays clflush until the correct path (Section 3.5,
    /// Table 2); the pipeline enforces that by only executing it at commit.
    pub fn clflush(&mut self, core: CoreId, line: LineAddr, now: Cycle) -> StoreOutcome {
        self.now_hint = now;
        self.obs.emit(
            now,
            SimEvent::Clflush {
                core: core.index(),
                line: line.raw(),
            },
        );
        let mut dirty = false;
        for ci in 0..self.cfg.num_cores {
            if let Some(prev) = self.l1[ci].invalidate(line) {
                dirty |= prev.dirty;
                self.note_l1_departure(ci, line, None);
                self.traffic.add(MsgClass::Inval, 1);
            }
        }
        if let Some(prev) = self.l2.invalidate(line) {
            dirty |= prev.dirty;
            self.traffic.add(MsgClass::Inval, 1);
        }
        self.dir.remove(&line);
        if dirty {
            self.dram.writeback();
            self.obs
                .emit(now, SimEvent::DramWriteback { line: line.raw() });
            self.traffic.add(MsgClass::Writeback, 1);
        }
        StoreOutcome {
            complete_at: now + self.cfg.l2_effective_rt(),
        }
    }

    // ------------------------------------------------------------------
    // CleanupSpec API
    // ------------------------------------------------------------------

    /// Bumps `core`'s epoch and marks its pending misses dropped: their
    /// responses will be discarded without cache changes (Section 3.3).
    /// Returns the number of dropped inflight loads.
    pub fn drop_core_inflight(&mut self, core: CoreId) -> usize {
        let ci = core.index();
        self.epoch[ci] = self.epoch[ci].next();
        let n = self.mshr[ci].drop_pending(self.episode[ci]);
        self.obs.emit(
            self.now_hint,
            SimEvent::EpochBump {
                core: ci,
                epoch: u64::from(self.epoch[ci].raw()),
                dropped: n as u64,
                episode: self.episode[ci],
            },
        );
        if n > 0 {
            self.traffic.add(MsgClass::Cleanup, 1); // cleanup request + ack
        }
        n
    }

    /// Marks `core`'s pending misses as *orphans*: their fills will still
    /// be performed when the response arrives, with no one to collect them.
    /// This models insecure baselines, where squashed loads still install.
    /// Returns the number of orphaned loads.
    pub fn orphan_core_inflight(&mut self, core: CoreId) -> usize {
        let ci = core.index();
        let mut n = 0;
        // Orphaned fills must not carry spec tags (there is no retirement
        // to clear them); they are plain wrong-path installs.
        let slots: Vec<usize> = self.mshr[ci]
            .iter_mut_indexed()
            .filter(|(_, e)| e.state == MshrState::Pending)
            .map(|(i, e)| {
                e.orphan = true;
                e.is_spec = false;
                i
            })
            .collect();
        n += slots.len();
        n
    }

    /// Frees a filled-but-uncollected MSHR entry (squashed after fill in
    /// insecure modes, where no cleanup will run).
    pub fn abandon(&mut self, token: MshrToken) {
        self.mshr[token.core.index()].free(token);
    }

    /// Marks a single still-pending miss as an orphan: its fill will be
    /// performed when the response arrives and the entry then self-frees.
    /// Insecure baselines use this for squashed inflight loads — the
    /// wrong-path install still lands in the cache (the leak CleanupSpec
    /// closes). No-op if the token is stale or already filled.
    pub fn orphan_token(&mut self, token: MshrToken) {
        if let Some(e) = self.mshr[token.core.index()].get_mut(token) {
            match e.state {
                MshrState::Pending => {
                    e.orphan = true;
                    e.is_spec = false;
                }
                MshrState::Filled => {
                    // Fill already happened (and stays — insecure).
                    self.mshr[token.core.index()].free(token);
                }
                MshrState::Dropped => {}
            }
        }
    }

    /// CleanupSpec invalidation of a transiently installed line
    /// (Section 3.3). `l1`/`l2` select which levels the load filled.
    pub fn cleanup_invalidate(&mut self, core: CoreId, line: LineAddr, l1: bool, l2: bool) {
        // Fault hook: SkipTransientInvalidate silently drops the whole op —
        // no event, no state change; the transient installs survive.
        if self.faults.should_fire(FaultKind::SkipTransientInvalidate) {
            return;
        }
        self.obs.emit(
            self.now_hint,
            SimEvent::CleanupInval {
                core: core.index(),
                line: line.raw(),
                l1,
                l2,
                seq: self.episode_seq[core.index()],
                episode: self.episode[core.index()],
            },
        );
        if l1 {
            if let Some(prev) = self.l1[core.index()].invalidate(line) {
                self.stats.cleanup_invals += 1;
                self.note_l1_departure(core.index(), line, Some(MissProvenance::TransientInval));
                if let Some(d) = self.dir.get_mut(&line) {
                    d.remove(core);
                }
                if prev.dirty {
                    if let Some(l2l) = self.l2.probe_mut(line) {
                        l2l.dirty = true;
                    }
                    self.traffic.add(MsgClass::Writeback, 1);
                }
            }
            self.traffic.add(MsgClass::Cleanup, 1);
        }
        if l2 {
            // Fault hook: StaleCeaserIndex resolves the L2 leg with a stale
            // index — the CleanupInval event above already told the world
            // the op ran (and the traffic below is still charged), but the
            // lookup misses the live set and the install survives. Unlike
            // SkipTransientInvalidate, the event record looks clean, so
            // only a state-level oracle can catch this one.
            if self.faults.should_fire(FaultKind::StaleCeaserIndex) {
                // no-op: wrong set probed, nothing found
            } else if let Some(prev) = self.l2.invalidate(line) {
                self.stats.cleanup_invals += 1;
                // Inclusive: remove any L1 copies (window protection makes
                // cross-core pickups of transient lines impossible, but the
                // invariant is maintained regardless).
                if let Some(d) = self.dir.remove(&line) {
                    for c in d.sharer_list(self.cfg.num_cores) {
                        if self.l1[c.index()].invalidate(line).is_some() {
                            self.stats.back_invals += 1;
                            self.note_l1_departure(
                                c.index(),
                                line,
                                Some(MissProvenance::TransientInval),
                            );
                            self.traffic.add(MsgClass::Inval, 1);
                            self.obs.emit(
                                self.now_hint,
                                SimEvent::BackInval {
                                    core: c.index(),
                                    line: line.raw(),
                                },
                            );
                        }
                    }
                }
                if prev.dirty {
                    self.dram.writeback();
                    self.obs
                        .emit(self.now_hint, SimEvent::DramWriteback { line: line.raw() });
                    self.traffic.add(MsgClass::Writeback, 1);
                }
            }
            self.traffic.add(MsgClass::Cleanup, 1);
        }
    }

    /// CleanupSpec restoration of a line evicted from `core`'s L1 by a
    /// squashed install (Section 3.4): re-fetch it from the L2 (or DRAM if
    /// the L2 lost it meanwhile) and install it with a coherence state
    /// consistent with the directory. `was_dirty` is the victim's dirty bit
    /// at eviction time (from the SEFE record): if this core is still the
    /// sole holder, the line returns Modified + dirty and the writeback the
    /// eviction pushed down is rescinded, so the restored L1 *and* L2 state
    /// equal the pre-speculation ones. If the line was picked up or updated
    /// by another core in between, the restore falls back to a clean Shared
    /// copy — the dirty data is already safe below, and reclaiming
    /// ownership would violate single-writer. `evictor` is the squashed
    /// install whose eviction is being undone; it rides on the event so the
    /// forensic ledger can pair restore with displacement.
    pub fn cleanup_restore(
        &mut self,
        core: CoreId,
        line: LineAddr,
        was_dirty: bool,
        evictor: LineAddr,
    ) {
        // Fault hook: SkipVictimRestore silently drops the op — no event,
        // no stats, no refetch; the victim's absence is the leak.
        if self.faults.should_fire(FaultKind::SkipVictimRestore) {
            return;
        }
        self.stats.cleanup_restores += 1;
        self.traffic.add(MsgClass::Cleanup, 2);
        let ci = core.index();
        // The victim is coming back — any pending miss attribution for it
        // (e.g. the random-replacement eviction being undone) is moot.
        self.miss_prov[ci].remove(&line);
        self.obs.emit(
            self.now_hint,
            SimEvent::CleanupRestore {
                core: ci,
                line: line.raw(),
                evictor: evictor.raw(),
                seq: self.episode_seq[ci],
                episode: self.episode[ci],
            },
        );
        if self.l1[ci].probe(line).is_some() {
            return; // already back (e.g. restored by an older cleanup op)
        }
        if self.l2.probe(line).is_none() {
            // Rare: the victim also left the L2. Re-fetch from memory.
            let _ = self.dram.read(0);
            self.obs.emit(
                self.now_hint,
                SimEvent::DramRead {
                    core: ci,
                    line: line.raw(),
                },
            );
            self.traffic.add(MsgClass::Regular, 2);
            let evicted = self.l2.install(line, Mesi::Shared, false, None);
            self.dir.insert(line, DirEntry::default());
            if let Some(v) = evicted {
                self.handle_l2_eviction(core, v, None);
            }
        }
        if let Some(o) = self.dir.get(&line).and_then(|d| d.owner) {
            if o != core {
                self.downgrade_owner(o, line);
                self.traffic.add(MsgClass::Coherence, 2);
            }
        }
        let d = self.dir.entry(line).or_default();
        let sole_holder = d.sharer_count() == 0 && d.owner.is_none();
        let (state, dirty) = if sole_holder {
            d.owner = Some(core);
            if was_dirty {
                (Mesi::Modified, true)
            } else {
                (Mesi::Exclusive, false)
            }
        } else {
            (Mesi::Shared, false)
        };
        d.add(core);
        if dirty {
            // The eviction's writeback is undone: the dirty data moves back
            // up into the restored L1 copy, exactly as before the squash.
            if let Some(l2l) = self.l2.probe_mut(line) {
                l2l.dirty = false;
            }
        }
        let evicted = self.l1[ci].install(line, state, dirty, None);
        self.obs.emit(
            self.now_hint,
            SimEvent::Fill {
                core: ci,
                line: line.raw(),
                level: CacheLevel::L1,
                spec: false,
            },
        );
        if let Some(v) = evicted {
            self.stats.l1_evictions += 1;
            self.handle_l1_eviction(core, v, None);
        }
    }

    /// Clears the speculation-window tag of `line` for a retiring load of
    /// `core` (the load is now unsquashable).
    pub fn retire_load(&mut self, core: CoreId, line: LineAddr) {
        let mut cleared = false;
        if let Some(l) = self.l1[core.index()].probe_mut(line) {
            if l.spec.is_some_and(|t| t.core == core) {
                l.spec = None;
                cleared = true;
            }
        }
        if let Some(l) = self.l2.probe_mut(line) {
            if l.spec.is_some_and(|t| t.core == core) {
                l.spec = None;
                cleared = true;
            }
        }
        if cleared {
            self.obs.emit(
                self.now_hint,
                SimEvent::SpecRetire {
                    core: core.index(),
                    line: line.raw(),
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Checks structural invariants: inclusion, directory consistency, and
    /// single-writer. Returns a description of the first violation.
    ///
    /// # Errors
    /// Returns `Err` with a human-readable description if any invariant is
    /// violated.
    pub fn check_invariants(&self) -> Result<(), String> {
        for ci in 0..self.cfg.num_cores {
            for l in self.l1[ci].iter_valid() {
                if self.l2.probe(l.line).is_none() {
                    return Err(format!(
                        "inclusion violated: {} in L1-{ci} not in L2",
                        l.line
                    ));
                }
                let d = self
                    .dir
                    .get(&l.line)
                    .ok_or_else(|| format!("no directory entry for {}", l.line))?;
                if !d.has(CoreId(ci)) {
                    return Err(format!("directory misses sharer {ci} for {}", l.line));
                }
                if l.state.is_writable() && d.owner != Some(CoreId(ci)) {
                    return Err(format!(
                        "core {ci} holds {} in {} but directory owner is {:?}",
                        l.line, l.state, d.owner
                    ));
                }
            }
        }
        // Single-writer: a writable (M/E) copy must be the ONLY L1 copy.
        for (line, d) in &self.dir {
            let writable = (0..self.cfg.num_cores)
                .filter(|ci| {
                    self.l1[*ci]
                        .probe(*line)
                        .is_some_and(|l| l.state.is_writable())
                })
                .count();
            let any = (0..self.cfg.num_cores)
                .filter(|ci| self.l1[*ci].probe(*line).is_some())
                .count();
            if writable > 1 || (writable == 1 && any > 1) {
                return Err(format!(
                    "writable copy of {line} coexists with other copies ({any} total)"
                ));
            }
            if let Some(o) = d.owner {
                let _ = o;
            }
            if self.l2.probe(*line).is_none() {
                return Err(format!("directory entry for {line} not in L2"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> MemConfig {
        MemConfig {
            num_cores: 2,
            l1_capacity: 8 * 64 * 2, // 2 sets x 8 ways... (16 lines)
            l1_ways: 8,
            l2_capacity: 64 * 64 * 4,
            l2_ways: 4,
            ..MemConfig::default()
        }
    }

    fn demand(load: u64) -> LoadReq {
        LoadReq {
            load: LoadId(load),
            spec: true,
            allow_downgrade: true,
            kind: LoadKind::Demand,
            tag_spec_install: true,
        }
    }

    /// Issues a load and runs the fill to completion.
    fn load_to_completion(
        m: &mut MemHierarchy,
        core: CoreId,
        line: LineAddr,
        now: Cycle,
    ) -> (LoadOutcome, Option<SefeRecord>) {
        let out = m.load(core, line, now, demand(0)).unwrap();
        m.advance(out.complete_at);
        let rec = out.token.and_then(|t| m.collect(t));
        (out, rec)
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let line = LineAddr::new(0x100);
        let (out, rec) = load_to_completion(&mut m, CoreId(0), line, 0);
        assert_eq!(out.path, LoadPath::Mem);
        assert_eq!(out.complete_at, m.config().l2_effective_rt() + 100);
        let rec = rec.unwrap();
        assert!(rec.l1_fill && rec.l2_fill);
        // Second access: L1 hit.
        let out2 = m.load(CoreId(0), line, 200, demand(1)).unwrap();
        assert_eq!(out2.path, LoadPath::L1Hit);
        assert_eq!(out2.complete_at, 201);
        m.check_invariants().unwrap();
    }

    #[test]
    fn l2_hit_after_other_core_fill() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let line = LineAddr::new(0x200);
        load_to_completion(&mut m, CoreId(0), line, 0);
        // Core 0 has it E; core 1's load must be a remote-L1 service.
        let (out, rec) = load_to_completion(&mut m, CoreId(1), line, 500);
        assert_eq!(out.path, LoadPath::RemoteL1);
        assert!(rec.unwrap().l1_fill);
        // Owner was downgraded to S.
        assert_eq!(m.l1(CoreId(0)).probe(line).unwrap().state, Mesi::Shared);
        assert_eq!(m.l1(CoreId(1)).probe(line).unwrap().state, Mesi::Shared);
        m.check_invariants().unwrap();
    }

    #[test]
    fn gets_safe_defers_instead_of_downgrading() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let line = LineAddr::new(0x300);
        load_to_completion(&mut m, CoreId(0), line, 0);
        assert_eq!(m.l1(CoreId(0)).probe(line).unwrap().state, Mesi::Exclusive);
        let req = LoadReq {
            allow_downgrade: false,
            ..demand(5)
        };
        let out = m.load(CoreId(1), line, 500, req).unwrap();
        assert!(out.deferred);
        // No state change anywhere.
        assert_eq!(m.l1(CoreId(0)).probe(line).unwrap().state, Mesi::Exclusive);
        assert!(m.l1(CoreId(1)).probe(line).is_none());
        assert_eq!(m.stats().gets_safe_refusals, 1);
    }

    #[test]
    fn dropped_inflight_load_leaves_no_trace() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let line = LineAddr::new(0x400);
        let before_l1 = m.l1_snapshot(CoreId(0));
        let before_l2 = m.l2_snapshot();
        let out = m.load(CoreId(0), line, 0, demand(0)).unwrap();
        assert_eq!(m.drop_core_inflight(CoreId(0)), 1);
        m.advance(out.complete_at + 10);
        assert_eq!(m.l1_snapshot(CoreId(0)), before_l1);
        assert_eq!(m.l2_snapshot(), before_l2);
        assert!(m.collect(out.token.unwrap()).is_none());
        assert_eq!(m.stats().dropped_fills, 1);
        assert_eq!(m.mshr_occupancy(CoreId(0)), 0);
    }

    #[test]
    fn orphaned_inflight_load_still_installs() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let line = LineAddr::new(0x500);
        let out = m.load(CoreId(0), line, 0, demand(0)).unwrap();
        assert_eq!(m.orphan_core_inflight(CoreId(0)), 1);
        m.advance(out.complete_at);
        assert!(
            m.l1(CoreId(0)).probe(line).is_some(),
            "insecure mode installs"
        );
        assert_eq!(m.stats().orphan_fills, 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn cleanup_invalidate_and_restore_roundtrip() {
        let mut m = MemHierarchy::new(tiny_cfg());
        // Fill the L1 set with victims, then install an attacker line that
        // evicts one, then undo.
        let victim = LineAddr::new(0x1000);
        load_to_completion(&mut m, CoreId(0), victim, 0);
        let before = m.l1_snapshot(CoreId(0));
        let attacker = LineAddr::new(0x2000);
        let (out, rec) = load_to_completion(&mut m, CoreId(0), attacker, 1000);
        let rec = rec.unwrap();
        assert!(rec.l1_fill);
        // Undo in reverse order: invalidate install, restore victim if any.
        m.cleanup_invalidate(CoreId(0), attacker, rec.l1_fill, rec.l2_fill);
        if let Some(v) = rec.l1_evict {
            m.cleanup_restore(CoreId(0), v, rec.l1_evict_dirty, attacker);
        }
        let after = m.l1_snapshot(CoreId(0));
        assert_eq!(before, after, "L1 state fully rolled back");
        assert!(out.complete_at > 1000);
        m.check_invariants().unwrap();
    }

    /// Fills set 0 of core 0's L1 so the next same-set install must evict,
    /// with `victim` as the LRU way. Returns the conflicting lines loaded.
    fn fill_set_around(m: &mut MemHierarchy, victim: LineAddr) -> Vec<LineAddr> {
        let mut filler = Vec::new();
        for i in 1..8u64 {
            // tiny_cfg has 2 sets: stride 2 keeps everything in set 0.
            let l = LineAddr::new(victim.raw() + i * 2);
            load_to_completion(m, CoreId(0), l, i * 10);
            m.retire_load(CoreId(0), l);
            filler.push(l);
        }
        filler
    }

    #[test]
    fn dirty_victim_restore_returns_modified_dirty() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let victim = LineAddr::new(0x1000);
        // Store makes the victim Modified + dirty in core 0's L1.
        m.store(CoreId(0), victim, 0);
        fill_set_around(&mut m, victim);
        let data = |l: LineAddr| l.raw().wrapping_mul(0x1234_5677);
        let before_l1 = m.l1_snapshot(CoreId(0));
        let before_l2 = m.l2_snapshot();
        let before_digest = m.l1_digest(CoreId(0), data);
        // A speculative install evicts the dirty victim (LRU way).
        let attacker = LineAddr::new(0x4000);
        let (_, rec) = load_to_completion(&mut m, CoreId(0), attacker, 1000);
        let rec = rec.unwrap();
        assert_eq!(rec.l1_evict, Some(victim), "dirty victim was evicted");
        assert!(rec.l1_evict_dirty, "SEFE recorded the victim's dirty bit");
        // Squash: undo the install, then restore the victim.
        m.cleanup_invalidate(CoreId(0), attacker, rec.l1_fill, rec.l2_fill);
        m.cleanup_restore(CoreId(0), victim, rec.l1_evict_dirty, attacker);
        let restored = m.l1(CoreId(0)).probe(victim).expect("victim restored");
        assert_eq!(restored.state, Mesi::Modified, "ownership reinstated");
        assert!(restored.dirty, "dirty bit reinstated");
        assert_eq!(m.l1_snapshot(CoreId(0)), before_l1, "L1 exactly restored");
        assert_eq!(
            m.l2_snapshot(),
            before_l2,
            "the eviction writeback was rescinded from the L2"
        );
        assert_eq!(m.l1_digest(CoreId(0), data), before_digest);
        m.check_invariants().unwrap();
    }

    #[test]
    fn dirty_victim_restore_yields_when_l2_copy_was_updated() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let victim = LineAddr::new(0x1000);
        m.store(CoreId(0), victim, 0);
        fill_set_around(&mut m, victim);
        let attacker = LineAddr::new(0x4000);
        let (_, rec) = load_to_completion(&mut m, CoreId(0), attacker, 1000);
        let rec = rec.unwrap();
        assert_eq!(rec.l1_evict, Some(victim));
        assert!(rec.l1_evict_dirty);
        // Before the cleanup runs, core 1 writes the line: the written-back
        // data is consumed and superseded below core 0's L1.
        m.store(CoreId(1), victim, 1200);
        m.cleanup_invalidate(CoreId(0), attacker, rec.l1_fill, rec.l2_fill);
        m.cleanup_restore(CoreId(0), victim, rec.l1_evict_dirty, attacker);
        // Restoring Modified + dirty now would fork the line's history;
        // the restore must fall back to a clean Shared copy instead.
        let restored = m.l1(CoreId(0)).probe(victim).expect("victim restored");
        assert_eq!(restored.state, Mesi::Shared);
        assert!(!restored.dirty);
        m.check_invariants().unwrap();
    }

    #[test]
    fn window_protection_dummy_miss_for_cross_core_hit() {
        let mut m = MemHierarchy::new(MemConfig {
            window_protection: true,
            ..tiny_cfg()
        });
        let line = LineAddr::new(0x600);
        // Core 0 transiently installs the line (spec load, not retired).
        load_to_completion(&mut m, CoreId(0), line, 0);
        // Core 1 probes it during the window: dummy miss, full mem latency.
        let out = m.load(CoreId(1), line, 300, demand(9)).unwrap();
        assert_eq!(out.path, LoadPath::DummyMiss);
        assert_eq!(
            out.complete_at - 300,
            m.config().l2_effective_rt() + m.config().dram_rt
        );
        // And no state change for core 1.
        assert!(m.l1(CoreId(1)).probe(line).is_none());
        // After retirement the same access is a normal L2 hit.
        m.retire_load(CoreId(0), line);
        let out2 = m.load(CoreId(1), line, 600, demand(10)).unwrap();
        assert_ne!(out2.path, LoadPath::DummyMiss);
    }

    #[test]
    fn store_upgrade_invalidates_sharers() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let line = LineAddr::new(0x700);
        load_to_completion(&mut m, CoreId(0), line, 0);
        load_to_completion(&mut m, CoreId(1), line, 300);
        // Both sharers now; core 0 stores.
        let so = m.store(CoreId(0), line, 600);
        assert_eq!(so.complete_at - 600, m.config().upgrade_latency);
        assert_eq!(m.l1(CoreId(0)).probe(line).unwrap().state, Mesi::Modified);
        assert!(m.l1(CoreId(1)).probe(line).is_none(), "sharer invalidated");
        m.check_invariants().unwrap();
    }

    #[test]
    fn store_miss_rfo_installs_modified() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let line = LineAddr::new(0x800);
        let so = m.store(CoreId(0), line, 0);
        assert!(so.complete_at >= m.config().l2_effective_rt() + m.config().dram_rt);
        assert_eq!(m.l1(CoreId(0)).probe(line).unwrap().state, Mesi::Modified);
        m.check_invariants().unwrap();
    }

    #[test]
    fn clflush_removes_everywhere() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let line = LineAddr::new(0x900);
        load_to_completion(&mut m, CoreId(0), line, 0);
        load_to_completion(&mut m, CoreId(1), line, 300);
        m.clflush(CoreId(0), line, 600);
        assert!(m.l1(CoreId(0)).probe(line).is_none());
        assert!(m.l1(CoreId(1)).probe(line).is_none());
        assert!(m.l2().probe(line).is_none());
        m.check_invariants().unwrap();
    }

    #[test]
    fn invisible_load_changes_nothing() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let line = LineAddr::new(0xa00);
        let req = LoadReq {
            kind: LoadKind::Invisible,
            ..demand(0)
        };
        let out = m.load(CoreId(0), line, 0, req).unwrap();
        assert_eq!(out.path, LoadPath::Mem);
        m.advance(out.complete_at + 1);
        assert!(m.l1(CoreId(0)).probe(line).is_none());
        assert!(m.l2().probe(line).is_none());
        assert_eq!(m.traffic().get(MsgClass::SpecLoad), 4);
    }

    #[test]
    fn merged_miss_has_no_fills() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let line = LineAddr::new(0xb00);
        let a = m.load(CoreId(0), line, 0, demand(0)).unwrap();
        let b = m.load(CoreId(0), line, 2, demand(1)).unwrap();
        assert!(a.token.is_some());
        assert!(b.token.is_none(), "merged miss shares the response");
        assert_eq!(b.complete_at, a.complete_at);
    }

    #[test]
    fn epoch_advances_on_drop() {
        let mut m = MemHierarchy::new(tiny_cfg());
        let e0 = m.epoch(CoreId(0));
        m.drop_core_inflight(CoreId(0));
        assert_eq!(m.epoch(CoreId(0)), e0.next());
        assert_eq!(m.epoch(CoreId(1)), EpochId::zero(), "per-core epochs");
    }

    #[test]
    fn mshr_fills_up_and_reports() {
        let mut m = MemHierarchy::new(MemConfig {
            mshrs_per_core: 2,
            ..tiny_cfg()
        });
        m.load(CoreId(0), LineAddr::new(1), 0, demand(0)).unwrap();
        m.load(CoreId(0), LineAddr::new(2), 0, demand(1)).unwrap();
        let r = m.load(CoreId(0), LineAddr::new(3), 0, demand(2));
        assert!(r.is_err(), "MSHR capacity enforced");
    }

    #[test]
    fn l2_eviction_back_invalidates_l1() {
        // L2 with 4 ways x 64 sets; fill one L2 set beyond capacity with
        // lines the L1 holds, and check inclusion enforcement.
        let mut m = MemHierarchy::new(MemConfig {
            l1_capacity: 64 * 64 * 8, // big enough L1 to hold everything
            l1_ways: 8,
            l2_capacity: 4 * 64 * 4, // 4 sets, 4 ways
            l2_ways: 4,
            num_cores: 1,
            ..MemConfig::default()
        });
        // 5 lines in the same L2 set (stride = num_sets = 4).
        for i in 0..5u64 {
            load_to_completion(&mut m, CoreId(0), LineAddr::new(i * 4), i * 500);
        }
        assert!(m.stats().l2_evictions >= 1);
        assert!(m.stats().back_invals >= 1);
        m.check_invariants().unwrap();
    }
}
