//! The memory hierarchy: three cache levels, the DRAM channel, attached prefetchers, the
//! off-chip predictor and per-epoch telemetry.
//!
//! This module glues together the content-simulating caches of [`crate::cache`] and the
//! bandwidth model of [`crate::dram`], and implements the three speculative paths the paper
//! studies:
//!
//! * **demand path** — loads/stores traverse L1D → L2C → LLC → DRAM, paying each level's
//!   lookup latency serially;
//! * **prefetch path** — prefetchers attached to L1D or L2C observe demand accesses at their
//!   level and issue fills that may come from a lower cache level or from DRAM;
//! * **off-chip prediction path** — when enabled, the OCP predicts for every demand load
//!   whether it will go off-chip and, if so, starts fetching from DRAM after only
//!   `ocp_issue_latency` cycles, hiding the on-chip lookup serialisation.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cache::{Cache, CacheLevel, EvictedLine, LookupOutcome};
use crate::config::SimConfig;
use crate::dram::{Dram, DramRequestKind, DramStats};
use crate::fastmap::{FxHashMap, FxHashSet};
use crate::ring::RecentPages;
use crate::stats::EpochStats;
use crate::trace::{line_of, line_offset_in_page, page_of};
use crate::traits::{
    AccessEvent, CoordinationDecision, Coordinator, LoadContext, OffChipPredictor, PrefetchRequest,
    Prefetcher,
};

/// Bound on the bookkeeping sets used for pollution and provenance tracking, to keep memory
/// usage flat on very long runs.
const TRACKING_SET_CAP: usize = 1 << 16;

/// The outcome of a demand load as seen by the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Cycle at which the load's data is available to dependents.
    pub completion_cycle: u64,
    /// Whether the load was served by main memory.
    pub went_off_chip: bool,
}

/// The full memory subsystem of one core (plus the shared LLC/DRAM in single-core runs).
pub struct MemoryHierarchy {
    config: SimConfig,
    l1d: Cache,
    l2c: Cache,
    llc: Cache,
    dram: Rc<RefCell<Dram>>,

    prefetchers: Vec<Box<dyn Prefetcher>>,
    /// Attach indices of the prefetchers at each level, indexed by `CacheLevel as usize`,
    /// in attach order. A prefetcher's level is read once, when it is attached.
    prefetchers_at: [Vec<usize>; 3],
    ocp: Option<Box<dyn OffChipPredictor>>,
    coordinator: Option<Box<dyn Coordinator>>,
    /// The attached coordinator's [`Coordinator::filters_l1d_prefetches`], read at attach;
    /// `false` without a coordinator.
    filters_l1d_prefetches: bool,
    decision: CoordinationDecision,

    epoch: EpochStats,
    dram_at_epoch_start: DramStats,

    /// LLC lines evicted by prefetch fills; a subsequent demand miss on one of these is a
    /// pollution miss.
    pollution_victims: FxHashSet<u64>,
    /// Lines currently resident that were prefetched from DRAM and not yet demanded,
    /// mapped to the index of the prefetcher that requested them.
    dram_prefetch_provenance: FxHashMap<u64, usize>,
    /// Lines prefetched (from anywhere) and not yet used, mapped to prefetcher index, for
    /// usefulness feedback routing.
    prefetch_provenance: FxHashMap<u64, usize>,
    /// Recently touched pages, for the `first_access_to_page` OCP feature.
    recent_pages: RecentPages,
    /// Rolling hash of the last few load PCs, for OCP context features.
    recent_pc_hash: u64,

    /// The requests of one trigger, every triggered prefetcher's appended in turn by
    /// [`MemoryHierarchy::trigger_prefetchers`]. Kept empty between calls, with its
    /// capacity, so the per-access hot path performs no heap allocation in steady state.
    pf_requests: Vec<PrefetchRequest>,
    /// `(prefetcher index, end)` per triggered prefetcher, in trigger order: its requests
    /// are `pf_requests[previous end..end]`.
    pf_ends: Vec<(usize, usize)>,

    /// Cumulative counters that are not part of `EpochStats`.
    total_prefetch_fills_from_dram: u64,
    total_prefetch_fills_from_dram_unused: u64,
}

impl MemoryHierarchy {
    /// Builds a hierarchy from the configuration with no prefetchers and no OCP attached.
    pub fn new(config: SimConfig) -> Self {
        let dram = Rc::new(RefCell::new(Dram::new(&config)));
        Self::with_shared_dram(config, dram)
    }

    /// Builds a hierarchy that shares a DRAM channel with other hierarchies (multi-core).
    pub fn with_shared_dram(config: SimConfig, dram: Rc<RefCell<Dram>>) -> Self {
        let l1d = Cache::new(config.l1d, CacheLevel::L1d);
        let l2c = Cache::new(config.l2c, CacheLevel::L2c);
        let llc = Cache::new(config.llc, CacheLevel::Llc);
        Self {
            config,
            l1d,
            l2c,
            llc,
            dram,
            prefetchers: Vec::new(),
            prefetchers_at: Default::default(),
            ocp: None,
            coordinator: None,
            filters_l1d_prefetches: false,
            decision: CoordinationDecision::all_on(&[]),
            epoch: EpochStats::default(),
            dram_at_epoch_start: DramStats::default(),
            pollution_victims: FxHashSet::default(),
            dram_prefetch_provenance: FxHashMap::default(),
            prefetch_provenance: FxHashMap::default(),
            recent_pages: RecentPages::default(),
            recent_pc_hash: 0,
            pf_requests: Vec::new(),
            pf_ends: Vec::new(),
            total_prefetch_fills_from_dram: 0,
            total_prefetch_fills_from_dram_unused: 0,
        }
    }

    /// Attaches a prefetcher. Prefetchers are triggered in attach order.
    pub fn attach_prefetcher(&mut self, prefetcher: Box<dyn Prefetcher>) {
        self.prefetchers_at[prefetcher.level() as usize].push(self.prefetchers.len());
        self.prefetchers.push(prefetcher);
        // Everything on at full degree, as `CoordinationDecision::all_on`, built in place.
        let d = &mut self.decision;
        d.enable_ocp = true;
        d.prefetcher_enable.clear();
        d.prefetcher_enable.resize(self.prefetchers.len(), true);
        d.prefetcher_degree.clear();
        d.prefetcher_degree
            .extend(self.prefetchers.iter().map(|p| p.max_degree()));
    }

    /// Attaches the off-chip predictor.
    pub fn attach_ocp(&mut self, ocp: Box<dyn OffChipPredictor>) {
        self.ocp = Some(ocp);
    }

    /// Attaches the coordination policy. The coordinator is told about the currently
    /// attached prefetchers, so attach prefetchers first.
    pub fn attach_coordinator(&mut self, mut coordinator: Box<dyn Coordinator>) {
        let infos = self.prefetcher_infos();
        coordinator.attach(&infos);
        let initial = coordinator.initial_decision(&infos);
        self.filters_l1d_prefetches = coordinator.filters_l1d_prefetches();
        self.coordinator = Some(coordinator);
        self.apply_decision(initial);
    }

    /// Returns the name of the attached coordinator, if any.
    pub fn coordinator_name(&self) -> Option<&'static str> {
        self.coordinator.as_ref().map(|c| c.name())
    }

    /// Snapshot of the attached coordinator's learning internals (`None` when no
    /// coordinator is attached or the policy has none). Called by the core loop only when
    /// agent telemetry was explicitly enabled, so it is off the ordinary hot path.
    pub fn coordinator_telemetry(&self) -> Option<crate::traits::CoordinatorTelemetry> {
        self.coordinator.as_ref().and_then(|c| c.telemetry())
    }

    /// Descriptions of the attached prefetchers (for coordinators).
    pub fn prefetcher_infos(&self) -> Vec<crate::traits::PrefetcherInfo> {
        self.prefetchers.iter().map(|p| p.info()).collect()
    }

    /// Applies a coordination decision: enables/disables mechanisms and sets degrees for the
    /// next epoch.
    pub fn apply_decision(&mut self, decision: CoordinationDecision) {
        for (idx, p) in self.prefetchers.iter_mut().enumerate() {
            if let Some(&deg) = decision.prefetcher_degree.get(idx) {
                p.set_degree(deg.max(1));
            }
        }
        self.decision = decision;
    }

    /// The decision currently in force.
    pub fn current_decision(&self) -> &CoordinationDecision {
        &self.decision
    }

    /// Snapshot of the DRAM channel statistics (for whole-run reporting). In multi-core
    /// runs this is the shared channel, so the numbers cover all cores.
    pub fn dram_stats(&self) -> DramStats {
        self.dram.borrow().stats_snapshot()
    }

    /// Read access to the cache at `level` (for invariant tests and reporting).
    pub fn cache(&self, level: CacheLevel) -> &Cache {
        match level {
            CacheLevel::L1d => &self.l1d,
            CacheLevel::L2c => &self.l2c,
            CacheLevel::Llc => &self.llc,
        }
    }

    /// Whole-run count of prefetch fills brought from DRAM.
    pub fn prefetch_fills_from_dram(&self) -> u64 {
        self.total_prefetch_fills_from_dram
    }

    /// Whole-run count of DRAM prefetch fills evicted without use (Figure 3 numerator).
    pub fn prefetch_fills_from_dram_unused(&self) -> u64 {
        self.total_prefetch_fills_from_dram_unused
    }

    fn load_context(&mut self, pc: u64, addr: u64) -> LoadContext {
        LoadContext {
            pc,
            addr,
            line_offset_in_page: line_offset_in_page(addr) as u8,
            byte_offset: (addr & 63) as u8,
            first_access_to_page: self.recent_pages.touch(page_of(addr)),
            recent_pc_hash: self.recent_pc_hash,
        }
    }

    fn note_load_pc(&mut self, pc: u64) {
        self.recent_pc_hash = (self.recent_pc_hash << 7) ^ (self.recent_pc_hash >> 41) ^ pc;
    }

    /// Performs a demand load issued by the core at `cycle` and returns its completion.
    pub fn demand_load(&mut self, pc: u64, addr: u64, cycle: u64) -> LoadOutcome {
        self.epoch.loads += 1;
        let line = line_of(addr);
        let ctx = self.load_context(pc, addr);
        self.note_load_pc(pc);

        // Off-chip prediction happens as soon as the address is known.
        let ocp_enabled = self.decision.enable_ocp && self.ocp.is_some();
        let predicted_off_chip = if ocp_enabled {
            let p = {
                let _span = athena_probe::span(athena_probe::Phase::OcpPredict);
                self.ocp.as_mut().map(|o| o.predict(&ctx)).unwrap_or(false)
            };
            if p {
                self.epoch.ocp_predictions += 1;
            }
            p
        } else {
            false
        };

        // --- L1D ---
        let l1 = {
            let _span = athena_probe::span(athena_probe::Phase::CacheLookup);
            self.l1d.lookup(addr)
        };
        self.feedback_prefetch_use(line, &l1, cycle);
        self.trigger_prefetchers(CacheLevel::L1d, pc, addr, cycle, &l1, false);
        let l1_latency = self.l1d.latency();
        if let LookupOutcome::Hit { ready_cycle, .. } = l1 {
            self.finish_on_chip(&ctx, predicted_off_chip, cycle);
            return LoadOutcome {
                completion_cycle: (cycle + l1_latency).max(ready_cycle),
                went_off_chip: false,
            };
        }
        self.epoch.l1d_misses += 1;

        // --- L2C ---
        let l2_lookup_cycle = cycle + l1_latency;
        let l2 = {
            let _span = athena_probe::span(athena_probe::Phase::CacheLookup);
            self.l2c.lookup(addr)
        };
        self.feedback_prefetch_use(line, &l2, l2_lookup_cycle);
        self.trigger_prefetchers(CacheLevel::L2c, pc, addr, l2_lookup_cycle, &l2, false);
        let l2_latency = self.l2c.latency();
        if let LookupOutcome::Hit { ready_cycle, .. } = l2 {
            let completion = (l2_lookup_cycle + l2_latency).max(ready_cycle);
            self.fill_level(CacheLevel::L1d, line, false, pc, completion);
            self.finish_on_chip(&ctx, predicted_off_chip, cycle);
            return LoadOutcome {
                completion_cycle: completion,
                went_off_chip: false,
            };
        }
        self.epoch.l2c_misses += 1;

        // --- LLC ---
        let llc_lookup_cycle = l2_lookup_cycle + l2_latency;
        let llc = {
            let _span = athena_probe::span(athena_probe::Phase::CacheLookup);
            self.llc.lookup(addr)
        };
        self.feedback_prefetch_use(line, &llc, llc_lookup_cycle);
        let llc_latency = self.llc.latency();
        if let LookupOutcome::Hit { ready_cycle, .. } = llc {
            let completion = (llc_lookup_cycle + llc_latency).max(ready_cycle);
            self.fill_level(CacheLevel::L2c, line, false, pc, completion);
            self.fill_level(CacheLevel::L1d, line, false, pc, completion);
            self.finish_on_chip(&ctx, predicted_off_chip, cycle);
            return LoadOutcome {
                completion_cycle: completion,
                went_off_chip: false,
            };
        }

        // --- Off-chip ---
        self.epoch.llc_misses += 1;
        self.epoch.loads_off_chip += 1;
        if self.pollution_victims.remove(&line) {
            self.epoch.pollution_misses += 1;
        }

        let completion = {
            let _span = athena_probe::span(athena_probe::Phase::Dram);
            if predicted_off_chip {
                // The speculative request was issued `ocp_issue_latency` cycles after
                // address generation; the demand merges with it at the memory controller,
                // so the on-chip lookup latency is off the critical path.
                self.epoch.ocp_correct += 1;
                let done = self.dram.borrow_mut().access(
                    line,
                    cycle + self.config.ocp_issue_latency,
                    DramRequestKind::Ocp,
                );
                done.max(cycle + l1_latency)
            } else {
                let demand_issue = llc_lookup_cycle + llc_latency;
                self.dram
                    .borrow_mut()
                    .access(line, demand_issue, DramRequestKind::Demand)
            }
        };
        self.epoch.llc_miss_latency_sum += completion.saturating_sub(cycle);

        // Fill every level (demand fill).
        self.fill_level(CacheLevel::Llc, line, false, pc, completion);
        self.fill_level(CacheLevel::L2c, line, false, pc, completion);
        self.fill_level(CacheLevel::L1d, line, false, pc, completion);

        if let Some(ocp) = &mut self.ocp {
            let _span = athena_probe::span(athena_probe::Phase::OcpPredict);
            ocp.train(&ctx, true);
        }
        LoadOutcome {
            completion_cycle: completion,
            went_off_chip: true,
        }
    }

    /// Handles OCP bookkeeping for a load that was ultimately served on-chip.
    fn finish_on_chip(&mut self, ctx: &LoadContext, predicted_off_chip: bool, cycle: u64) {
        if predicted_off_chip {
            // Wasted speculative fetch: it still occupies the DRAM bus.
            let _span = athena_probe::span(athena_probe::Phase::Dram);
            self.dram.borrow_mut().access(
                line_of(ctx.addr),
                cycle + self.config.ocp_issue_latency,
                DramRequestKind::Ocp,
            );
        }
        if let Some(ocp) = &mut self.ocp {
            let _span = athena_probe::span(athena_probe::Phase::OcpPredict);
            ocp.train(ctx, false);
        }
    }

    /// Performs a demand store at `cycle`. Stores never stall the core but consume cache and
    /// DRAM bandwidth (write-allocate).
    pub fn demand_store(&mut self, pc: u64, addr: u64, cycle: u64) {
        self.epoch.stores += 1;
        let line = line_of(addr);

        let l1 = {
            let _span = athena_probe::span(athena_probe::Phase::CacheLookup);
            self.l1d.lookup(addr)
        };
        self.feedback_prefetch_use(line, &l1, cycle);
        self.trigger_prefetchers(CacheLevel::L1d, pc, addr, cycle, &l1, true);
        if l1.is_hit() {
            self.l1d.mark_dirty(addr);
            return;
        }
        self.epoch.l1d_misses += 1;

        // Stores never stall the core, but the lateness accounting still references the
        // cycle a demand would reach each level — mirroring the load path — so a
        // prefetch's timeliness is judged identically for loads and stores.
        let l2 = {
            let _span = athena_probe::span(athena_probe::Phase::CacheLookup);
            self.l2c.lookup(addr)
        };
        let l2_lookup_cycle = cycle + self.l1d.latency();
        self.feedback_prefetch_use(line, &l2, l2_lookup_cycle);
        self.trigger_prefetchers(CacheLevel::L2c, pc, addr, cycle, &l2, true);
        if l2.is_hit() {
            self.fill_level(CacheLevel::L1d, line, false, pc, cycle);
            self.l1d.mark_dirty(addr);
            return;
        }
        self.epoch.l2c_misses += 1;

        let llc = {
            let _span = athena_probe::span(athena_probe::Phase::CacheLookup);
            self.llc.lookup(addr)
        };
        let llc_lookup_cycle = l2_lookup_cycle + self.l2c.latency();
        self.feedback_prefetch_use(line, &llc, llc_lookup_cycle);
        if llc.is_hit() {
            self.fill_level(CacheLevel::L2c, line, false, pc, cycle);
            self.fill_level(CacheLevel::L1d, line, false, pc, cycle);
            self.l1d.mark_dirty(addr);
            return;
        }

        self.epoch.llc_misses += 1;
        if self.pollution_victims.remove(&line) {
            self.epoch.pollution_misses += 1;
        }
        let done = {
            let _span = athena_probe::span(athena_probe::Phase::Dram);
            self.dram
                .borrow_mut()
                .access(line, cycle, DramRequestKind::Demand)
        };
        self.fill_level(CacheLevel::Llc, line, false, pc, done);
        self.fill_level(CacheLevel::L2c, line, false, pc, done);
        self.fill_level(CacheLevel::L1d, line, false, pc, done);
        self.l1d.mark_dirty(addr);
    }

    /// Routes prefetch-usefulness feedback when a demand access touches a prefetched line.
    /// `lookup_cycle` is the cycle the demand looked this level up: a first use whose data
    /// is still in flight at that point is useful but *late* (the demand stalls on the
    /// prefetch instead of missing outright).
    fn feedback_prefetch_use(&mut self, line: u64, outcome: &LookupOutcome, lookup_cycle: u64) {
        if let LookupOutcome::Hit {
            first_use_of_prefetch: true,
            ready_cycle,
        } = outcome
        {
            self.epoch.prefetches_useful += 1;
            if *ready_cycle > lookup_cycle {
                self.epoch.prefetches_late += 1;
            }
            if let Some(idx) = self.prefetch_provenance.remove(&line) {
                if let Some(p) = self.prefetchers.get_mut(idx) {
                    p.on_prefetch_hit(line);
                }
            }
            // A DRAM-sourced prefetch that got used is not "inaccurate" for Figure 3.
            self.dram_prefetch_provenance.remove(&line);
        }
    }

    /// Triggers every enabled prefetcher attached at `level` with this access and issues the
    /// prefetch requests they produce.
    fn trigger_prefetchers(
        &mut self,
        level: CacheLevel,
        pc: u64,
        addr: u64,
        cycle: u64,
        outcome: &LookupOutcome,
        is_store: bool,
    ) {
        if self.prefetchers.is_empty() {
            return;
        }
        let _span = athena_probe::span(athena_probe::Phase::PrefetchIssue);
        let ev = AccessEvent {
            pc,
            addr,
            cycle,
            hit: outcome.is_hit(),
            first_use_of_prefetch: matches!(
                outcome,
                LookupOutcome::Hit {
                    first_use_of_prefetch: true,
                    ..
                }
            ),
            is_store,
        };
        // Every prefetcher produces before any request is issued; issue order is
        // prefetchers in attach order, requests in production order.
        let mut requests = std::mem::take(&mut self.pf_requests);
        let mut ends = std::mem::take(&mut self.pf_ends);
        for &idx in &self.prefetchers_at[level as usize] {
            if !self
                .decision
                .prefetcher_enable
                .get(idx)
                .copied()
                .unwrap_or(true)
            {
                continue;
            }
            self.prefetchers[idx].on_access(&ev, &mut requests);
            ends.push((idx, requests.len()));
        }
        let mut start = 0;
        for &(idx, end) in &ends {
            for &req in &requests[start..end] {
                self.issue_prefetch(idx, level, req, pc, cycle);
            }
            start = end;
        }
        requests.clear();
        ends.clear();
        self.pf_requests = requests;
        self.pf_ends = ends;
    }

    /// Issues one prefetch request from prefetcher `idx` attached at `level`.
    fn issue_prefetch(
        &mut self,
        idx: usize,
        level: CacheLevel,
        req: PrefetchRequest,
        trigger_pc: u64,
        cycle: u64,
    ) {
        let line = line_of(req.addr);

        // TLP-style per-request filtering of L1D prefetches: the coordinator may drop a
        // prefetch whose data the OCP believes would come from off-chip main memory.
        if level == CacheLevel::L1d && self.filters_l1d_prefetches {
            let conf = self
                .ocp
                .as_mut()
                .map(|o| {
                    o.confidence(&LoadContext {
                        pc: trigger_pc,
                        addr: req.addr,
                        line_offset_in_page: line_offset_in_page(req.addr) as u8,
                        byte_offset: (req.addr & 63) as u8,
                        first_access_to_page: false,
                        recent_pc_hash: self.recent_pc_hash,
                    })
                })
                .unwrap_or(0.0);
            if let Some(coord) = &mut self.coordinator {
                if !coord.filter_l1d_prefetch(&req, conf) {
                    return;
                }
            }
        }

        // Already resident at the target level: the request is dropped before it costs
        // anything and is not counted as issued (matching ChampSim's accounting).
        let resident = match level {
            CacheLevel::L1d => self.l1d.probe(line),
            CacheLevel::L2c => self.l2c.probe(line),
            CacheLevel::Llc => self.llc.probe(line),
        };
        if resident {
            return;
        }
        self.epoch.prefetches_issued += 1;

        let from_dram = match level {
            CacheLevel::L1d => !(self.l2c.probe(line) || self.llc.probe(line)),
            CacheLevel::L2c | CacheLevel::Llc => !self.llc.probe(line),
        };

        // Data-ready time of the prefetched line: a DRAM fetch completes when its bus
        // transfer finishes; an on-chip source is ready after that level's lookup latency.
        let ready = if from_dram {
            let done = {
                let _span = athena_probe::span(athena_probe::Phase::Dram);
                self.dram
                    .borrow_mut()
                    .access(line, cycle, DramRequestKind::Prefetch)
            };
            self.epoch.prefetch_fills_from_dram += 1;
            self.total_prefetch_fills_from_dram += 1;
            if self.dram_prefetch_provenance.len() < TRACKING_SET_CAP {
                self.dram_prefetch_provenance.insert(line, idx);
            }
            // Off-chip prefetches fill the LLC on their way in.
            self.fill_level(CacheLevel::Llc, line, true, trigger_pc, done);
            done
        } else {
            cycle + self.llc.latency()
        };

        match level {
            CacheLevel::L1d => {
                self.fill_level(CacheLevel::L2c, line, true, trigger_pc, ready);
                self.fill_level(CacheLevel::L1d, line, true, trigger_pc, ready);
            }
            CacheLevel::L2c => {
                self.fill_level(CacheLevel::L2c, line, true, trigger_pc, ready);
            }
            CacheLevel::Llc => {}
        }
        if self.prefetch_provenance.len() < TRACKING_SET_CAP {
            self.prefetch_provenance.insert(line, idx);
        }
    }

    /// The system configuration this hierarchy was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    fn fill_level(&mut self, level: CacheLevel, line: u64, is_prefetch: bool, pc: u64, ready: u64) {
        let evicted = match level {
            CacheLevel::L1d => self.l1d.fill(line, is_prefetch, pc, ready),
            CacheLevel::L2c => self.l2c.fill(line, is_prefetch, pc, ready),
            CacheLevel::Llc => {
                let ev = self.llc.fill(line, is_prefetch, pc, ready);
                if let Some(ocp) = &mut self.ocp {
                    ocp.on_fill(line, CacheLevel::Llc);
                }
                ev
            }
        };
        if let Some(ev) = evicted {
            self.handle_eviction(level, ev);
        }
    }

    fn handle_eviction(&mut self, level: CacheLevel, ev: EvictedLine) {
        match level {
            CacheLevel::L1d => {
                if ev.dirty {
                    self.l2c.mark_dirty(ev.line_addr);
                }
            }
            CacheLevel::L2c => {
                if ev.dirty {
                    self.llc.mark_dirty(ev.line_addr);
                }
            }
            CacheLevel::Llc => {
                if ev.dirty {
                    // Writebacks consume DRAM bandwidth at an arbitrary (current) time; the
                    // precise cycle does not affect the core's critical path in this model.
                    let _span = athena_probe::span(athena_probe::Phase::Dram);
                    let mut dram = self.dram.borrow_mut();
                    let when = dram.bus_next_free();
                    dram.access(ev.line_addr, when, DramRequestKind::Writeback);
                }
                if ev.evicted_by_prefetch && self.pollution_victims.len() < TRACKING_SET_CAP {
                    self.pollution_victims.insert(ev.line_addr);
                }
                if let Some(ocp) = &mut self.ocp {
                    ocp.on_evict(ev.line_addr, CacheLevel::Llc);
                }
            }
        }
        if ev.was_prefetch && !ev.was_used {
            if let Some(idx) = self.prefetch_provenance.remove(&ev.line_addr) {
                if let Some(p) = self.prefetchers.get_mut(idx) {
                    p.on_prefetch_evicted_unused(ev.line_addr);
                }
            }
            if self
                .dram_prefetch_provenance
                .remove(&ev.line_addr)
                .is_some()
            {
                self.total_prefetch_fills_from_dram_unused += 1;
            }
        }
    }

    /// Closes the current epoch: fills in the DRAM-side counters, returns the epoch
    /// telemetry, and resets the per-epoch state. The core-side counters (instructions,
    /// cycles, branches) must already have been written into the epoch by the caller.
    pub fn finish_epoch(&mut self, core_side: &EpochStats) -> EpochStats {
        let dram_now = self.dram.borrow().stats_snapshot();
        let mut e = self.epoch;
        e.epoch_index = core_side.epoch_index;
        e.instructions = core_side.instructions;
        e.cycles = core_side.cycles;
        e.branches = core_side.branches;
        e.branch_mispredicts = core_side.branch_mispredicts;
        e.dram_demand_requests =
            dram_now.demand_requests - self.dram_at_epoch_start.demand_requests;
        e.dram_prefetch_requests =
            dram_now.prefetch_requests - self.dram_at_epoch_start.prefetch_requests;
        e.dram_ocp_requests = dram_now.ocp_requests - self.dram_at_epoch_start.ocp_requests;
        e.dram_writeback_requests =
            dram_now.writeback_requests - self.dram_at_epoch_start.writeback_requests;
        e.dram_busy_cycles = dram_now.bus_busy_cycles - self.dram_at_epoch_start.bus_busy_cycles;

        self.dram_at_epoch_start = dram_now;
        self.epoch = EpochStats::default();
        e
    }

    /// Closes the epoch and, if a coordinator is attached, consults it and applies the
    /// decision it returns for the next epoch. Returns the epoch's telemetry.
    pub fn end_epoch(&mut self, core_side: &EpochStats) -> EpochStats {
        let stats = self.finish_epoch(core_side);
        if let Some(coord) = &mut self.coordinator {
            let decision = coord.on_epoch_end(&stats);
            for (idx, p) in self.prefetchers.iter_mut().enumerate() {
                if let Some(&deg) = decision.prefetcher_degree.get(idx) {
                    p.set_degree(deg.max(1));
                }
            }
            self.decision = decision;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::PrefetcherInfo;

    /// A trivial next-line prefetcher used only for hierarchy tests.
    struct TestNextLine {
        degree: u32,
        level: CacheLevel,
    }

    impl Prefetcher for TestNextLine {
        fn name(&self) -> &'static str {
            "test-next-line"
        }
        fn level(&self) -> CacheLevel {
            self.level
        }
        fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
            for d in 1..=self.degree {
                out.push(PrefetchRequest::new(ev.addr + u64::from(d) * 64));
            }
        }
        fn max_degree(&self) -> u32 {
            4
        }
        fn degree(&self) -> u32 {
            self.degree
        }
        fn set_degree(&mut self, degree: u32) {
            self.degree = degree.clamp(1, 4);
        }
    }

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(SimConfig::tiny())
    }

    #[test]
    fn load_latency_grows_with_miss_depth() {
        let mut h = hierarchy();
        // Cold miss goes to DRAM.
        let cold = h.demand_load(0x400, 0x10_0000, 0);
        assert!(cold.went_off_chip);
        // Second access to the same line hits in L1.
        let hot = h.demand_load(0x400, 0x10_0000, cold.completion_cycle);
        assert!(!hot.went_off_chip);
        let l1_latency = hot.completion_cycle - cold.completion_cycle;
        assert!(
            l1_latency < cold.completion_cycle,
            "L1 hit should be much faster"
        );
        assert_eq!(l1_latency, 4);
    }

    #[test]
    fn epoch_counts_misses_and_loads() {
        let mut h = hierarchy();
        for i in 0..10u64 {
            h.demand_load(0x400, 0x20_0000 + i * 4096, i * 10);
        }
        let core = EpochStats {
            instructions: 10,
            cycles: 100,
            ..Default::default()
        };
        let e = h.finish_epoch(&core);
        assert_eq!(e.loads, 10);
        assert_eq!(e.llc_misses, 10);
        assert_eq!(e.dram_demand_requests, 10);
        assert!(e.llc_miss_latency_sum > 0);
        // Epoch counters reset afterwards.
        let e2 = h.finish_epoch(&core);
        assert_eq!(e2.loads, 0);
        assert_eq!(e2.dram_demand_requests, 0);
    }

    #[test]
    fn prefetcher_converts_misses_into_hits() {
        let mut base = hierarchy();
        let mut with_pf = hierarchy();
        with_pf.attach_prefetcher(Box::new(TestNextLine {
            degree: 2,
            level: CacheLevel::L2c,
        }));

        let mut base_offchip = 0;
        let mut pf_offchip = 0;
        for i in 0..200u64 {
            let addr = 0x40_0000 + i * 64;
            if base.demand_load(0x400, addr, i * 20).went_off_chip {
                base_offchip += 1;
            }
            if with_pf.demand_load(0x400, addr, i * 20).went_off_chip {
                pf_offchip += 1;
            }
        }
        assert!(
            pf_offchip * 2 < base_offchip,
            "prefetching should cut off-chip demand misses: base={base_offchip} pf={pf_offchip}"
        );
        let core = EpochStats::default();
        let e = with_pf.finish_epoch(&core);
        assert!(e.prefetches_issued > 0);
        assert!(e.prefetches_useful > 0);
        assert!(e.prefetcher_accuracy() > 0.5);
    }

    #[test]
    fn disabled_prefetcher_issues_nothing() {
        let mut h = hierarchy();
        h.attach_prefetcher(Box::new(TestNextLine {
            degree: 2,
            level: CacheLevel::L2c,
        }));
        h.apply_decision(CoordinationDecision {
            enable_ocp: false,
            prefetcher_enable: vec![false],
            prefetcher_degree: vec![1],
        });
        for i in 0..50u64 {
            h.demand_load(0x400, 0x50_0000 + i * 64, i * 20);
        }
        let e = h.finish_epoch(&EpochStats::default());
        assert_eq!(e.prefetches_issued, 0);
        assert_eq!(e.dram_prefetch_requests, 0);
    }

    /// An OCP that always predicts off-chip — maximally aggressive, useful for testing the
    /// speculative path.
    struct AlwaysOffChip;
    impl OffChipPredictor for AlwaysOffChip {
        fn name(&self) -> &'static str {
            "always"
        }
        fn predict(&mut self, _ctx: &LoadContext) -> bool {
            true
        }
        fn train(&mut self, _ctx: &LoadContext, _went_off_chip: bool) {}
    }

    /// A coordinator that drops every L1D prefetch it is asked about.
    struct DropL1dPrefetches {
        filters: bool,
    }
    impl Coordinator for DropL1dPrefetches {
        fn name(&self) -> &'static str {
            "drop-l1d"
        }
        fn filters_l1d_prefetches(&self) -> bool {
            self.filters
        }
        fn attach(&mut self, _prefetchers: &[PrefetcherInfo]) {}
        fn on_epoch_end(&mut self, _stats: &EpochStats) -> CoordinationDecision {
            CoordinationDecision::all_on(&[4])
        }
        fn filter_l1d_prefetch(&mut self, _req: &PrefetchRequest, _conf: f32) -> bool {
            false
        }
    }

    #[test]
    fn l1d_filter_is_asked_only_when_the_coordinator_filters() {
        let issued = |filters: bool| {
            let mut h = hierarchy();
            h.attach_prefetcher(Box::new(TestNextLine {
                degree: 2,
                level: CacheLevel::L1d,
            }));
            h.attach_ocp(Box::new(AlwaysOffChip));
            h.attach_coordinator(Box::new(DropL1dPrefetches { filters }));
            for i in 0..50u64 {
                h.demand_load(0x400, 0x50_0000 + i * 256, i * 20);
            }
            h.finish_epoch(&EpochStats::default()).prefetches_issued
        };
        assert_eq!(issued(true), 0);
        assert!(issued(false) > 0);
    }

    #[test]
    fn ocp_hides_onchip_lookup_latency() {
        let mut no_ocp = hierarchy();
        let mut with_ocp = hierarchy();
        with_ocp.attach_ocp(Box::new(AlwaysOffChip));

        // Cold loads to distinct lines: both go off-chip; the OCP one should complete sooner
        // because the request is issued 6 cycles after address generation instead of after
        // the full hierarchy lookup.
        let a = no_ocp.demand_load(0x400, 0x60_0000, 1000);
        let b = with_ocp.demand_load(0x400, 0x60_0000, 1000);
        assert!(a.went_off_chip && b.went_off_chip);
        assert!(
            b.completion_cycle < a.completion_cycle,
            "OCP should reduce off-chip latency: {} vs {}",
            b.completion_cycle,
            a.completion_cycle
        );
        let saved = a.completion_cycle - b.completion_cycle;
        // On-chip lookup serialisation in the tiny config is 4 + 12 + 40 = 56 cycles; the OCP
        // request is issued at +6, so ~50 cycles should be hidden.
        assert_eq!(saved, 50);
    }

    #[test]
    fn wrong_ocp_prediction_wastes_bandwidth() {
        let mut h = hierarchy();
        h.attach_ocp(Box::new(AlwaysOffChip));
        // Warm the line, then hit it: the predictor still predicts off-chip, wasting a DRAM
        // access.
        h.demand_load(0x400, 0x70_0000, 0);
        let before = h.dram_stats().ocp_requests;
        h.demand_load(0x400, 0x70_0000, 500);
        let after = h.dram_stats().ocp_requests;
        assert_eq!(after - before, 1);
        let e = h.finish_epoch(&EpochStats::default());
        assert_eq!(e.ocp_predictions, 2);
        assert_eq!(e.ocp_correct, 1);
    }

    #[test]
    fn ocp_disabled_by_decision() {
        let mut h = hierarchy();
        h.attach_ocp(Box::new(AlwaysOffChip));
        h.apply_decision(CoordinationDecision {
            enable_ocp: false,
            prefetcher_enable: vec![],
            prefetcher_degree: vec![],
        });
        h.demand_load(0x400, 0x80_0000, 0);
        let e = h.finish_epoch(&EpochStats::default());
        assert_eq!(e.ocp_predictions, 0);
        assert_eq!(e.dram_ocp_requests, 0);
    }

    #[test]
    fn pollution_is_detected() {
        // Aggressive useless prefetching into a tiny LLC evicts demand lines; re-demanding
        // them must count pollution misses.
        let mut h = hierarchy();
        struct Useless {
            degree: u32,
            next: u64,
        }
        impl Prefetcher for Useless {
            fn name(&self) -> &'static str {
                "useless"
            }
            fn level(&self) -> CacheLevel {
                CacheLevel::L2c
            }
            fn on_access(&mut self, _ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
                // Prefetch a stream of far-away lines nobody will ever demand.
                for _ in 0..self.degree {
                    out.push(PrefetchRequest::new(0xdead_0000 + self.next * 64));
                    self.next += 1;
                }
            }
            fn max_degree(&self) -> u32 {
                8
            }
            fn degree(&self) -> u32 {
                self.degree
            }
            fn set_degree(&mut self, degree: u32) {
                self.degree = degree;
            }
        }
        h.attach_prefetcher(Box::new(Useless { degree: 8, next: 0 }));

        // A working set that fits the tiny LLC (64 KB = 1024 lines): use 512 lines, touch it
        // twice. Without pollution the second pass would hit.
        let lines = 512u64;
        let mut cycle = 0;
        for pass in 0..3 {
            for i in 0..lines {
                let addr = 0x100_0000 + i * 64;
                let out = h.demand_load(0x400 + (i % 8), addr, cycle);
                cycle = out.completion_cycle + 10;
                let _ = pass;
            }
        }
        let e = h.finish_epoch(&EpochStats::default());
        assert!(
            e.pollution_misses > 0,
            "aggressive useless prefetching must cause pollution misses"
        );
        assert!(e.cache_pollution() > 0.0);
    }

    #[test]
    fn stores_allocate_and_mark_dirty() {
        let mut h = hierarchy();
        h.demand_store(0x500, 0x90_0000, 0);
        let out = h.demand_load(0x500, 0x90_0000, 100);
        assert!(!out.went_off_chip, "store should have allocated the line");
        let e = h.finish_epoch(&EpochStats::default());
        assert_eq!(e.stores, 1);
        assert_eq!(e.loads, 1);
    }

    #[test]
    fn prefetcher_info_reflects_attachments() {
        let mut h = hierarchy();
        h.attach_prefetcher(Box::new(TestNextLine {
            degree: 2,
            level: CacheLevel::L1d,
        }));
        h.attach_prefetcher(Box::new(TestNextLine {
            degree: 4,
            level: CacheLevel::L2c,
        }));
        let infos = h.prefetcher_infos();
        assert_eq!(
            infos,
            vec![
                PrefetcherInfo {
                    name: "test-next-line",
                    level: CacheLevel::L1d,
                    max_degree: 4
                },
                PrefetcherInfo {
                    name: "test-next-line",
                    level: CacheLevel::L2c,
                    max_degree: 4
                },
            ]
        );
    }
}
