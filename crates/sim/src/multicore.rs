//! Multi-core simulation: several cores with private hierarchies sharing one DRAM channel.
//!
//! Each core has its own private L1D/L2C and its own LLC slice (capacity-equivalent to the
//! paper's 3 MB/core shared LLC), but all cores contend for the same DRAM data bus, which is
//! the first-order interference effect the paper's multi-core experiments exercise. Cores are
//! advanced round-robin in fixed instruction quanta so their local clocks stay approximately
//! aligned; this is an approximation of a globally synchronised event queue, adequate for
//! trend-level reproduction of the four- and eight-core mixes (Figures 15 and 16).

use std::cell::RefCell;
use std::rc::Rc;

use crate::config::SimConfig;
use crate::core::{CoreEngine, SimResult};
use crate::dram::Dram;
use crate::hierarchy::MemoryHierarchy;
use crate::trace::TraceSource;
use crate::traits::{Coordinator, OffChipPredictor, Prefetcher};

/// Number of instructions each core advances before yielding to the next core.
const QUANTUM: u64 = 512;

/// Result of a multi-core run: one [`SimResult`] per core, in core order.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreResult {
    /// Per-core results.
    pub cores: Vec<SimResult>,
}

impl MultiCoreResult {
    /// Geometric mean of per-core IPCs.
    pub fn geomean_ipc(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self.cores.iter().map(|c| c.ipc().max(1e-9).ln()).sum();
        (log_sum / self.cores.len() as f64).exp()
    }

    /// Geometric-mean speedup of this run's per-core IPCs relative to `baseline`'s, the
    /// normalisation used throughout the paper's multi-core evaluation.
    pub fn geomean_speedup_over(&self, baseline: &MultiCoreResult) -> f64 {
        assert_eq!(self.cores.len(), baseline.cores.len());
        if self.cores.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self
            .cores
            .iter()
            .zip(&baseline.cores)
            .map(|(a, b)| (a.ipc().max(1e-9) / b.ipc().max(1e-9)).ln())
            .sum();
        (log_sum / self.cores.len() as f64).exp()
    }
}

struct CoreSlot {
    engine: CoreEngine,
    hierarchy: MemoryHierarchy,
    trace: Box<dyn TraceSource>,
    done: bool,
}

/// A multi-core simulator with a shared DRAM channel.
pub struct MultiCoreSimulator {
    config: SimConfig,
    dram: Rc<RefCell<Dram>>,
    cores: Vec<CoreSlot>,
    agent_telemetry: bool,
}

impl MultiCoreSimulator {
    /// Creates a multi-core simulator. The configured per-core bandwidth is multiplied by
    /// `expected_cores` when sizing the shared channel, matching the paper's methodology of
    /// keeping per-core bandwidth constant as the core count grows.
    pub fn new(config: SimConfig, expected_cores: usize) -> Self {
        let shared_config = config
            .clone()
            .with_bandwidth(config.dram.bandwidth_gbps * expected_cores.max(1) as f64);
        let dram = Rc::new(RefCell::new(Dram::new(&shared_config)));
        Self {
            config,
            dram,
            cores: Vec::new(),
            agent_telemetry: false,
        }
    }

    /// Enables per-epoch coordinator snapshots on every core added *afterwards* (see
    /// [`SimResult::agent_epochs`]); call it before [`MultiCoreSimulator::add_core`]. Off
    /// by default.
    pub fn with_agent_telemetry(mut self) -> Self {
        self.agent_telemetry = true;
        self
    }

    /// Adds a core running `trace`, with the given prefetchers, optional OCP and optional
    /// coordinator.
    pub fn add_core(
        &mut self,
        trace: Box<dyn TraceSource>,
        prefetchers: Vec<Box<dyn Prefetcher>>,
        ocp: Option<Box<dyn OffChipPredictor>>,
        coordinator: Option<Box<dyn Coordinator>>,
    ) {
        let mut hierarchy =
            MemoryHierarchy::with_shared_dram(self.config.clone(), Rc::clone(&self.dram));
        for p in prefetchers {
            hierarchy.attach_prefetcher(p);
        }
        if let Some(o) = ocp {
            hierarchy.attach_ocp(o);
        }
        if let Some(c) = coordinator {
            hierarchy.attach_coordinator(c);
        }
        let mut engine = CoreEngine::new(&self.config);
        if self.agent_telemetry {
            engine.enable_agent_telemetry();
        }
        self.cores.push(CoreSlot {
            engine,
            hierarchy,
            trace,
            done: false,
        });
    }

    /// Number of cores added so far.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Runs every core for `instructions_per_core` instructions (or until its trace ends)
    /// and returns the per-core results. Each round advances every unfinished core by one
    /// quantum, in core order, through [`CoreEngine::advance`].
    pub fn run(mut self, instructions_per_core: u64) -> MultiCoreResult {
        while self.cores.iter().any(|slot| !slot.done) {
            for slot in self.cores.iter_mut().filter(|slot| !slot.done) {
                let target = (slot.engine.retired() + QUANTUM).min(instructions_per_core);
                let more = slot
                    .engine
                    .advance(&mut *slot.trace, &mut slot.hierarchy, target);
                slot.done = !more || target == instructions_per_core;
            }
        }
        MultiCoreResult {
            cores: self
                .cores
                .into_iter()
                .map(|mut slot| slot.engine.finish(&mut slot.hierarchy))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;

    fn streaming_trace(seed: u64) -> Box<dyn TraceSource> {
        Box::new((0..u64::MAX).map(move |i| {
            if i % 3 == 0 {
                TraceRecord::load(0x400 + seed, 0x1000_0000 * (seed + 1) + i * 64, false)
            } else {
                TraceRecord::alu(0x800)
            }
        }))
    }

    #[test]
    fn per_core_results_are_produced() {
        let mut mc = MultiCoreSimulator::new(SimConfig::tiny(), 4);
        for c in 0..4 {
            mc.add_core(streaming_trace(c), Vec::new(), None, None);
        }
        assert_eq!(mc.core_count(), 4);
        let result = mc.run(5_000);
        assert_eq!(result.cores.len(), 4);
        for core in &result.cores {
            assert_eq!(core.instructions, 5_000);
            assert!(core.ipc() > 0.0);
        }
        assert!(result.geomean_ipc() > 0.0);
    }

    #[test]
    fn shared_bus_creates_interference() {
        // One core streaming alone vs the same core sharing the channel with three other
        // bandwidth-hungry cores (total bandwidth scaled for 1 core in both cases, so the
        // neighbours genuinely steal bandwidth).
        let solo = {
            let mut mc = MultiCoreSimulator::new(SimConfig::tiny(), 1);
            mc.add_core(streaming_trace(0), Vec::new(), None, None);
            mc.run(10_000)
        };
        let crowded = {
            let mut mc = MultiCoreSimulator::new(SimConfig::tiny(), 1);
            for c in 0..4 {
                mc.add_core(streaming_trace(c), Vec::new(), None, None);
            }
            mc.run(10_000)
        };
        assert!(
            crowded.cores[0].cycles > solo.cores[0].cycles,
            "sharing a fixed-size channel must slow core 0 down: solo={} crowded={}",
            solo.cores[0].cycles,
            crowded.cores[0].cycles
        );
    }

    #[test]
    fn speedup_normalisation_is_relative() {
        let run = |n_cores: usize| {
            let mut mc = MultiCoreSimulator::new(SimConfig::tiny(), n_cores);
            for c in 0..n_cores as u64 {
                mc.add_core(streaming_trace(c), Vec::new(), None, None);
            }
            mc.run(3_000)
        };
        let a = run(2);
        let b = run(2);
        let s = a.geomean_speedup_over(&b);
        assert!(
            (s - 1.0).abs() < 1e-9,
            "identical runs must have speedup 1, got {s}"
        );
    }
}
