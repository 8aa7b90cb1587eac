//! # athena-repro
//!
//! Umbrella crate for the Athena reproduction workspace. It re-exports the public APIs of
//! every member crate so that examples and downstream users can depend on a single crate:
//!
//! ```
//! use athena_repro::prelude::*;
//!
//! let spec = suite_workloads(Suite::Ligra)[0].clone();
//! let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
//! let result = simulate(&spec, &config, CoordinatorKind::Athena, 20_000);
//! assert!(result.cycles > 0);
//! ```
//!
//! See the individual crates for full documentation:
//!
//! * [`sim`] — trace-driven CPU / cache / DRAM simulator substrate.
//! * [`prefetchers`] — IPCP, Berti, Pythia, SPP+PPF, MLOP, SMS.
//! * [`ocp`] — POPET, HMP, TTP off-chip predictors.
//! * [`athena`] — the Athena RL coordination agent (the paper's contribution).
//! * [`coordinators`] — Naive, HPAC, MAB, TLP baseline policies.
//! * [`workloads`] — the 100-workload synthetic trace suite.
//! * [`trace_io`] — the binary on-disk trace format and streaming replay.
//! * [`telemetry`] — windowed time-series telemetry (per-interval IPC/MPKI/coverage
//!   series, agent learning internals, learning curves).
//! * [`probe`] — zero-cost-when-off observability: the hot-path phase profiler and the
//!   process-wide metrics registry.
//! * [`engine`] — the parallel experiment engine (jobs, deterministic seeding, worker
//!   pool, JSON reports, and the structured JSONL event stream written through its JSON
//!   writer).
//! * [`store`] — the persistent content-addressed result store (append-only record log,
//!   rebuildable index, single-writer locking) that caches finished cells across runs.
//! * [`tune`] — deterministic design-space exploration over Athena configurations
//!   (successive halving over seeded samples, objective scoring, leaderboards).
//! * [`harness`] — the per-figure experiment harness and the `figures` / `trace` /
//!   `tune` / `results` CLIs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use athena_coordinators as coordinators;
pub use athena_core as athena;
pub use athena_engine as engine;
pub use athena_harness as harness;
pub use athena_ocp as ocp;
pub use athena_prefetchers as prefetchers;
pub use athena_probe as probe;
pub use athena_sim as sim;
pub use athena_store as store;
pub use athena_telemetry as telemetry;
pub use athena_trace_io as trace_io;
pub use athena_tune as tune;
pub use athena_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use athena_coordinators::{FixedCombo, Hpac, Mab, NaiveAll, Tlp};
    pub use athena_core::{AthenaAgent, AthenaConfig, Feature, RewardWeights};
    pub use athena_engine::{CellResult, Engine, Event, Job, JobOutput, ProbeSink, StoreHandle};
    pub use athena_harness::{
        simulate, CoordinatorKind, OcpKind, PrefetcherKind, RunOptions, RunResult, SystemConfig,
    };
    pub use athena_probe::PhaseProfile;
    pub use athena_sim::{
        Coordinator, CoordinatorTelemetry, EpochStats, OffChipPredictor, Prefetcher, SimConfig,
        Simulator, TraceRecord, TraceSource,
    };
    pub use athena_store::{ResultStore, StoreError, StorePolicy};
    pub use athena_telemetry::{LearningCurve, Timeline, WindowSample};
    pub use athena_trace_io::{open_trace, record_trace, TraceIoError};
    pub use athena_tune::{
        load_config, tune, DesignSpace, Leaderboard, Objective, ParamSpace, TuneOptions,
        TuneStrategy,
    };
    pub use athena_workloads::{
        all_workloads, find_workload, mixes, suite_workloads, Suite, WorkloadSpec,
    };
}
