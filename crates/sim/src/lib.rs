//! # athena-sim
//!
//! Trace-driven CPU / cache-hierarchy / DRAM simulator substrate used by the Athena
//! reproduction. The simulator models:
//!
//! * a wide out-of-order core as a ROB-window timing model (issue width, commit width,
//!   reorder-buffer occupancy, branch misprediction penalty driven by a built-in gshare
//!   predictor, and load-to-load dependencies from the trace),
//! * a three-level cache hierarchy (private L1D, private L2C, shared LLC) with full content
//!   simulation, LRU and SHiP-style replacement, MSHR-bounded miss overlap and per-line
//!   prefetch metadata,
//! * a bandwidth-constrained DDR-style memory controller (banks, row buffers, a shared data
//!   bus sized from the configured GB/s) on which demand, prefetch and off-chip-predictor
//!   requests contend, and
//! * per-epoch telemetry ([`EpochStats`]) consumed by coordination policies.
//!
//! The crate also defines the three extension traits the rest of the workspace plugs into:
//! [`Prefetcher`], [`OffChipPredictor`] and [`Coordinator`].
//!
//! ```
//! use athena_sim::{SimConfig, Simulator, TraceRecord, InstrKind};
//!
//! // A tiny streaming trace: every 4th instruction loads the next cache line.
//! let trace = (0..4000u64).map(|i| {
//!     if i % 4 == 0 {
//!         TraceRecord::load(0x400 + (i % 16), 0x10_0000 + i * 16, false)
//!     } else {
//!         TraceRecord::alu(0x800)
//!     }
//! });
//!
//! let config = SimConfig::golden_cove_like();
//! let mut sim = Simulator::new(config);
//! let result = sim.run(trace, 4000);
//! assert!(result.cycles > 0);
//! assert!(result.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod fastmap;
pub mod hierarchy;
pub mod multicore;
pub mod ring;
pub mod stats;
pub mod trace;
pub mod traits;

pub use branch::GsharePredictor;
pub use cache::{Cache, CacheConfig, CacheLevel, EvictedLine, LookupOutcome, Replacement};
pub use config::{CoreConfig, DramConfig, SimConfig};
pub use core::{CoreEngine, SimResult, Simulator};
pub use dram::{Dram, DramRequestKind, DramStats};
pub use hierarchy::{LoadOutcome, MemoryHierarchy};
pub use multicore::{MultiCoreResult, MultiCoreSimulator};
pub use stats::{EpochStats, SimStats};
pub use trace::{InstrKind, TraceRecord, TraceSource, LINE_SIZE, PAGE_SIZE};
pub use traits::{
    AccessEvent, CoordinationDecision, Coordinator, CoordinatorTelemetry, LoadContext,
    OffChipPredictor, PrefetchRequest, Prefetcher, PrefetcherInfo,
};
