//! The core timing model ([`CoreEngine`]) and the single-core simulation driver
//! ([`Simulator`]).
//!
//! The core is modelled as a ROB window: up to `issue_width` instructions enter the reorder
//! buffer per cycle, each instruction obtains a completion cycle (one cycle for ALU work,
//! branch-resolution plus a penalty for mispredicted branches, the memory hierarchy's answer
//! for loads), and instructions retire in order at up to `commit_width` per cycle. A load
//! whose trace record is marked dependent on the previous load cannot issue its memory
//! request before that load completes, which is how pointer-chasing (latency-bound) code is
//! expressed. The ROB and commit windows are fixed [`Ring`]s sized once at construction.

use crate::branch::GsharePredictor;
use crate::config::SimConfig;
use crate::dram::DramStats;
use crate::hierarchy::MemoryHierarchy;
use crate::ring::Ring;
use crate::stats::{EpochStats, SimStats};
use crate::trace::{InstrKind, TraceRecord, TraceSource};
use crate::traits::{Coordinator, CoordinatorTelemetry, OffChipPredictor, Prefetcher};

/// Records fetched per `trace_gen` span and stepped per `core_step` span when the profiler
/// is on (see [`CoreEngine::advance`]): big enough to make span overhead negligible, small
/// enough that the batch stays in L1.
const STEP_BATCH: usize = 64;

/// The result of a single-core simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles taken.
    pub cycles: u64,
    /// Whole-run aggregate statistics.
    pub stats: SimStats,
    /// End-of-run DRAM-channel statistics (row-buffer behaviour, bus occupancy, per-kind
    /// request counts, demand latency sum). For a multi-core run every core reports the
    /// *shared* channel's totals, since there is one channel; single-core runs report
    /// their private channel.
    pub dram: DramStats,
    /// Telemetry of every epoch, in order. Useful for phase-level analysis and the
    /// case-study experiments.
    pub epochs: Vec<EpochStats>,
    /// Per-epoch snapshots of the coordinator's learning internals, positionally aligned
    /// with `epochs`: entry *i* is the snapshot taken when epoch *i* closed, `None` when
    /// the coordinator reported none for that epoch (a policy may legitimately warm up
    /// before it has internals worth sampling). Empty unless agent telemetry was enabled
    /// ([`Simulator::with_agent_telemetry`] / [`CoreEngine::enable_agent_telemetry`]) —
    /// sampling reads the whole QVStore once per epoch, so it is strictly opt-in.
    pub agent_epochs: Vec<Option<CoordinatorTelemetry>>,
}

impl SimResult {
    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// The per-core instruction-stepping state machine.
///
/// Used directly by [`Simulator`] for single-core runs and by
/// [`crate::multicore::MultiCoreSimulator`] for round-robin multi-core runs.
pub struct CoreEngine {
    issue_width: u64,
    epoch_len: u64,
    mispredict_penalty: u64,

    /// Retire cycles of the instructions in the reorder buffer, `rob_size` of them (at
    /// least one).
    rob: Ring,
    /// Retire cycles of the last `commit_width` instructions (at least one).
    recent_retires: Ring,
    fetch_cycle: u64,
    issued_this_cycle: u64,
    last_alloc_cycle: u64,
    last_retire: u64,
    last_load_completion: u64,

    retired: u64,
    epoch_index: u64,
    epoch_start_cycle: u64,
    epoch_start_instr: u64,
    epoch_branches: u64,
    epoch_mispredicts: u64,

    branch_predictor: GsharePredictor,
    stats: SimStats,
    epochs: Vec<EpochStats>,
    collect_agent_telemetry: bool,
    agent_epochs: Vec<Option<CoordinatorTelemetry>>,
}

impl CoreEngine {
    /// Creates a fresh engine for a core described by `config`.
    pub fn new(config: &SimConfig) -> Self {
        Self {
            issue_width: u64::from(config.core.issue_width.max(1)),
            epoch_len: config.epoch_len.max(1),
            mispredict_penalty: config.core.mispredict_penalty,
            rob: Ring::new(config.core.rob_size),
            recent_retires: Ring::new(config.core.commit_width as usize),
            fetch_cycle: 0,
            issued_this_cycle: 0,
            last_alloc_cycle: 0,
            last_retire: 0,
            last_load_completion: 0,
            retired: 0,
            epoch_index: 0,
            epoch_start_cycle: 0,
            epoch_start_instr: 0,
            epoch_branches: 0,
            epoch_mispredicts: 0,
            branch_predictor: GsharePredictor::default_sized(),
            stats: SimStats::default(),
            epochs: Vec::new(),
            collect_agent_telemetry: false,
            agent_epochs: Vec::new(),
        }
    }

    /// Enables per-epoch coordinator snapshots (see [`SimResult::agent_epochs`]). Disabled
    /// by default: the snapshot walks the agent's value store, and runs that do not ask for
    /// a timeline must not pay for one.
    pub fn enable_agent_telemetry(&mut self) {
        self.collect_agent_telemetry = true;
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Steps records from `trace` until `target` instructions have retired; returns `false`
    /// once the trace has ended. This is the one fetch/step loop: [`Simulator::run`] calls
    /// it once with its budget, [`crate::MultiCoreSimulator::run`] once per core per
    /// quantum. Generic over the source, so a single-core run fetches without a dynamic
    /// call.
    ///
    /// With the profiler off it is a plain fetch/step loop with no probe bookkeeping. With
    /// it on, records are fetched `STEP_BATCH` at a time under one `trace_gen` span and
    /// stepped under one `core_step` span, so spans open once per batch, not once per
    /// instruction. The steps are the same either way: a trace never observes simulator
    /// state, and no batch fetches past `target`. Batching unprofiled runs too measured
    /// about 10 % slower (`docs/OPTIMIZATION_LOG.md`).
    pub fn advance<T: TraceSource + ?Sized>(
        &mut self,
        trace: &mut T,
        hierarchy: &mut MemoryHierarchy,
        target: u64,
    ) -> bool {
        if !athena_probe::profiling_enabled() {
            while self.retired < target {
                let Some(record) = trace.next_record() else {
                    return false;
                };
                self.step(record, hierarchy);
            }
            return true;
        }
        let mut batch = [TraceRecord::alu(0); STEP_BATCH];
        while self.retired < target {
            let want = (STEP_BATCH as u64).min(target - self.retired) as usize;
            let mut fetched = 0;
            {
                let _span = athena_probe::span(athena_probe::Phase::TraceGen);
                while fetched < want {
                    let Some(record) = trace.next_record() else {
                        break;
                    };
                    batch[fetched] = record;
                    fetched += 1;
                }
            }
            if fetched > 0 {
                let _span = athena_probe::span(athena_probe::Phase::CoreStep);
                for &record in &batch[..fetched] {
                    self.step(record, hierarchy);
                }
            }
            if fetched < want {
                return false;
            }
        }
        true
    }

    /// Processes one trace record against `hierarchy`.
    fn step(&mut self, record: TraceRecord, hierarchy: &mut MemoryHierarchy) {
        // --- allocate into the ROB: wait for the oldest entry to retire once it is full ---
        let rob_free_cycle = self.rob.oldest_if_full().unwrap_or(0);
        let mut alloc = self.fetch_cycle.max(rob_free_cycle);
        if alloc == self.last_alloc_cycle {
            self.issued_this_cycle += 1;
            if self.issued_this_cycle >= self.issue_width {
                alloc += 1;
                self.issued_this_cycle = 0;
            }
        } else {
            self.issued_this_cycle = 1;
        }
        self.last_alloc_cycle = alloc;
        self.fetch_cycle = self.fetch_cycle.max(alloc);

        // --- execute ---
        let completion = match record.kind {
            InstrKind::Alu => alloc + 1,
            InstrKind::Branch { taken } => {
                self.epoch_branches += 1;
                let mispredicted = self.branch_predictor.predict_and_train(record.pc, taken);
                let resolve = alloc + 1;
                if mispredicted {
                    self.epoch_mispredicts += 1;
                    self.fetch_cycle = self.fetch_cycle.max(resolve + self.mispredict_penalty);
                }
                resolve
            }
            InstrKind::Load {
                addr,
                dep_on_recent_load,
            } => {
                let request_cycle = if dep_on_recent_load {
                    alloc.max(self.last_load_completion)
                } else {
                    alloc
                };
                let outcome = hierarchy.demand_load(record.pc, addr, request_cycle);
                self.last_load_completion = outcome.completion_cycle;
                outcome.completion_cycle
            }
            InstrKind::Store { addr } => {
                hierarchy.demand_store(record.pc, addr, alloc);
                alloc + 1
            }
        };

        // --- retire in order, bounded by commit width ---
        let mut retire = completion.max(self.last_retire);
        if let Some(old) = self.recent_retires.oldest_if_full() {
            retire = retire.max(old + 1);
        }
        self.recent_retires.push(retire);
        self.last_retire = retire;
        self.rob.push(retire);
        self.retired += 1;

        // --- epoch boundary ---
        if self.retired - self.epoch_start_instr >= self.epoch_len {
            self.close_epoch(hierarchy);
        }
    }

    fn close_epoch(&mut self, hierarchy: &mut MemoryHierarchy) {
        let _span = athena_probe::span(athena_probe::Phase::CoordinatorUpdate);
        let core_side = EpochStats {
            epoch_index: self.epoch_index,
            instructions: self.retired - self.epoch_start_instr,
            cycles: self.last_retire.saturating_sub(self.epoch_start_cycle),
            branches: self.epoch_branches,
            branch_mispredicts: self.epoch_mispredicts,
            ..Default::default()
        };
        let e = hierarchy.end_epoch(&core_side);
        self.stats.absorb_epoch(&e);
        self.epochs.push(e);
        if self.collect_agent_telemetry {
            // Sampled after end_epoch, so the snapshot includes this epoch's SARSA update
            // and the action just chosen for the next epoch. One entry is pushed per
            // epoch — `None` included — so the vector stays positionally aligned with
            // `epochs` even for a policy that only reports telemetry intermittently.
            self.agent_epochs.push(hierarchy.coordinator_telemetry());
        }
        self.epoch_index += 1;
        self.epoch_start_cycle = self.last_retire;
        self.epoch_start_instr = self.retired;
        self.epoch_branches = 0;
        self.epoch_mispredicts = 0;
    }

    /// Closes the final partial epoch (if any) and produces the run result.
    pub fn finish(mut self, hierarchy: &mut MemoryHierarchy) -> SimResult {
        if self.retired > self.epoch_start_instr {
            self.close_epoch(hierarchy);
        }
        self.stats.prefetch_fills_from_dram = hierarchy.prefetch_fills_from_dram();
        self.stats.prefetch_fills_from_dram_unused = hierarchy.prefetch_fills_from_dram_unused();
        SimResult {
            instructions: self.retired,
            cycles: self.last_retire,
            stats: self.stats,
            dram: hierarchy.dram_stats(),
            epochs: self.epochs,
            agent_epochs: self.agent_epochs,
        }
    }
}

/// A single-core, trace-driven simulator instance.
///
/// Construct it, attach prefetchers / an OCP / a coordinator, then call [`Simulator::run`].
pub struct Simulator {
    config: SimConfig,
    hierarchy: MemoryHierarchy,
    agent_telemetry: bool,
}

impl Simulator {
    /// Creates a simulator with no prefetchers, no OCP and no coordinator attached.
    pub fn new(config: SimConfig) -> Self {
        let hierarchy = MemoryHierarchy::new(config.clone());
        Self {
            config,
            hierarchy,
            agent_telemetry: false,
        }
    }

    /// Enables per-epoch coordinator snapshots in the results of subsequent runs (builder
    /// style; see [`SimResult::agent_epochs`]). Off by default — the disabled path costs
    /// nothing.
    pub fn with_agent_telemetry(mut self) -> Self {
        self.agent_telemetry = true;
        self
    }

    /// Attaches a data prefetcher (builder style).
    pub fn with_prefetcher(mut self, prefetcher: Box<dyn Prefetcher>) -> Self {
        self.hierarchy.attach_prefetcher(prefetcher);
        self
    }

    /// Attaches an off-chip predictor (builder style).
    pub fn with_ocp(mut self, ocp: Box<dyn OffChipPredictor>) -> Self {
        self.hierarchy.attach_ocp(ocp);
        self
    }

    /// Attaches a coordination policy (builder style). Attach prefetchers and the OCP first
    /// so the coordinator sees the final configuration.
    pub fn with_coordinator(mut self, coordinator: Box<dyn Coordinator>) -> Self {
        self.hierarchy.attach_coordinator(coordinator);
        self
    }

    /// Read access to the memory hierarchy (for tests and reporting).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Runs the simulation for at most `max_instructions` instructions from `trace`
    /// (see [`CoreEngine::advance`]).
    pub fn run<T: TraceSource>(&mut self, mut trace: T, max_instructions: u64) -> SimResult {
        let mut engine = CoreEngine::new(&self.config);
        if self.agent_telemetry {
            engine.enable_agent_telemetry();
        }
        engine.advance(&mut trace, &mut self.hierarchy, max_instructions);
        engine.finish(&mut self.hierarchy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu_trace(n: u64) -> impl Iterator<Item = TraceRecord> {
        (0..n).map(|i| TraceRecord::alu(0x400 + (i % 64) * 4))
    }

    #[test]
    fn alu_only_trace_approaches_issue_width_ipc() {
        let mut sim = Simulator::new(SimConfig::golden_cove_like());
        let r = sim.run(alu_trace(60_000), 60_000);
        assert_eq!(r.instructions, 60_000);
        // With a 6-wide core and no stalls, IPC should be close to 6.
        assert!(r.ipc() > 4.0, "ipc was {}", r.ipc());
        assert!(r.ipc() <= 6.05);
    }

    #[test]
    fn dependent_loads_are_slower_than_independent_loads() {
        let base = SimConfig::golden_cove_like();
        let make_trace = |dep: bool| {
            (0..20_000u64).map(move |i| {
                if i % 4 == 0 {
                    // Large stride so every load misses all caches.
                    TraceRecord::load(0x400, 0x1000_0000 + i * 4096, dep)
                } else {
                    TraceRecord::alu(0x800)
                }
            })
        };
        let mut sim_indep = Simulator::new(base.clone());
        let indep = sim_indep.run(make_trace(false), 20_000);
        let mut sim_dep = Simulator::new(base);
        let dep = sim_dep.run(make_trace(true), 20_000);
        assert!(
            dep.cycles > indep.cycles * 2,
            "dependent-load chain should be much slower: dep={} indep={}",
            dep.cycles,
            indep.cycles
        );
    }

    #[test]
    fn cache_hits_make_reuse_fast() {
        // A small working set reused many times should be far faster than a streaming
        // working set of the same instruction count.
        let small =
            (0..40_000u64).map(|i| TraceRecord::load(0x400, 0x10_0000 + (i % 64) * 64, false));
        let large = (0..40_000u64).map(|i| TraceRecord::load(0x400, 0x10_0000 + i * 4096, false));
        let mut sim_small = Simulator::new(SimConfig::golden_cove_like());
        let rs = sim_small.run(small, 40_000);
        let mut sim_large = Simulator::new(SimConfig::golden_cove_like());
        let rl = sim_large.run(large, 40_000);
        assert!(rs.ipc() > rl.ipc() * 3.0);
        assert!(rl.stats.llc_mpki() > 100.0);
        assert!(rs.stats.llc_mpki() < 5.0);
    }

    #[test]
    fn branch_mispredictions_cost_cycles() {
        // Random (unpredictable) branches vs always-taken branches.
        let predictable = (0..30_000u64).map(|i| {
            if i % 3 == 0 {
                TraceRecord::branch(0x500, true)
            } else {
                TraceRecord::alu(0x800)
            }
        });
        let mut x = 0x1234_5678_9abc_def0u64;
        let random = (0..30_000u64).map(move |i| {
            if i % 3 == 0 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                TraceRecord::branch(0x500, x & 1 == 0)
            } else {
                TraceRecord::alu(0x800)
            }
        });
        let mut sp = Simulator::new(SimConfig::golden_cove_like());
        let rp = sp.run(predictable, 30_000);
        let mut sr = Simulator::new(SimConfig::golden_cove_like());
        let rr = sr.run(random, 30_000);
        assert!(rr.cycles > rp.cycles);
        assert!(rr.stats.branch_mispredicts > rp.stats.branch_mispredicts * 5);
    }

    #[test]
    fn epochs_partition_the_run() {
        let mut sim = Simulator::new(SimConfig::golden_cove_like().with_epoch_len(1000));
        let r = sim.run(alu_trace(10_500), 10_500);
        assert_eq!(r.epochs.len(), 11);
        let total_instr: u64 = r.epochs.iter().map(|e| e.instructions).sum();
        assert_eq!(total_instr, 10_500);
        let total_cycles: u64 = r.epochs.iter().map(|e| e.cycles).sum();
        assert_eq!(total_cycles, r.cycles);
    }

    #[test]
    fn run_stops_when_trace_ends() {
        let mut sim = Simulator::new(SimConfig::golden_cove_like());
        let r = sim.run(alu_trace(100), 1_000_000);
        assert_eq!(r.instructions, 100);
    }

    #[test]
    fn bandwidth_constrained_streaming_is_slower() {
        let make = || (0..30_000u64).map(|i| TraceRecord::load(0x400, 0x2000_0000 + i * 64, false));
        let mut narrow = Simulator::new(SimConfig::golden_cove_like().with_bandwidth(1.6));
        let rn = narrow.run(make(), 30_000);
        let mut wide = Simulator::new(SimConfig::golden_cove_like().with_bandwidth(12.8));
        let rw = wide.run(make(), 30_000);
        assert!(
            rn.cycles as f64 > rw.cycles as f64 * 1.5,
            "narrow={} wide={}",
            rn.cycles,
            rw.cycles
        );
    }
}
