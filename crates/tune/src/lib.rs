//! # athena-tune
//!
//! Deterministic, parallel design-space exploration over [`AthenaConfig`]s — the
//! reproduction's analogue of the automated DSE that produced the paper's Table 3
//! configuration.
//!
//! The subsystem sits between the experiment engine and the per-figure harness:
//!
//! * a [`DesignSpace`] declares what may vary — hyperparameter grids for
//!   (α, γ, ε, τ), candidate reward-weight vectors, candidate feature subsets drawn from
//!   Table 1's seven features;
//! * a [`TuneStrategy`] sets the search: successive halving over seeded samples, which
//!   screens many candidates on short instruction budgets and promotes the best fraction
//!   to longer ones ([`halving_schedule`]); with one rung it is plain random search;
//! * every evaluation runs as an [`athena_engine::Job`] batch on the caller's engine
//!   ([`TuneOptions::engine`]), inheriting its worker pool, panic isolation, result store
//!   and distributed workers, plus `--trace-dir` replay;
//! * candidates are scored by a configurable [`Objective`] (IPC speedup over
//!   prefetchers-only, accuracy/coverage-weighted variants, a bandwidth-aware variant
//!   that reads the per-run DRAM statistics);
//! * the result is a ranked [`Leaderboard`] whose CSV/JSON serialisations
//!   (schema `athena-tune-v1`) are byte-identical at any worker count, and whose winning
//!   configuration round-trips to disk ([`load_config`]) so the harness can run it as a
//!   file-loaded `tuned` policy that reproduces the claimed speedup exactly.
//!
//! ```
//! use athena_engine::Engine;
//! use athena_tune::{tune, DesignSpace, TuneOptions, TuneStrategy};
//! use athena_workloads::tuning_workloads;
//!
//! let workloads: Vec<_> = tuning_workloads().into_iter().take(2).collect();
//! let board = tune(
//!     &DesignSpace::quick(),
//!     &TuneStrategy { samples: 6, eta: 2, rungs: 2 },
//!     &workloads,
//!     &TuneOptions::new(8_192).with_engine(Engine::new(2)),
//! );
//! assert_eq!(board.entries.len(), 6);
//! assert!(board.best().objective > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod leaderboard;
mod objective;
mod search;
mod space;

// The config ↔ JSON round trip lives in the engine's wire module now (the distributed
// protocol serialises whole jobs, configs included); re-exported here so tuner consumers
// keep their import paths.
pub use athena_engine::wire::{config_from_json, config_to_json, load_config};
pub use leaderboard::{CandidateResult, Leaderboard};
pub use objective::{geomean, Objective};
pub use search::{
    halving_schedule, tune, Rung, TuneOptions, TuneStrategy, DEFAULT_TUNE_SEED, MIN_RUNG_BUDGET,
    TUNE_EXPERIMENT,
};
pub use space::{DesignSpace, ParamSpace};

use athena_core::AthenaConfig;

// The tuner hands design-space values to engine jobs that cross worker threads; keep the
// whole vocabulary `Send + Sync + Clone` — checked at compile time, so a stray `Rc` or
// thread-local sneaking into a config type fails the build here rather than deep inside
// a worker-pool trait bound (the same pattern the engine applies to workloads).
const fn assert_engine_shippable<T: Send + Sync + Clone>() {}
const _: () = {
    assert_engine_shippable::<AthenaConfig>();
    assert_engine_shippable::<DesignSpace>();
    assert_engine_shippable::<ParamSpace>();
    assert_engine_shippable::<TuneOptions>();
    assert_engine_shippable::<TuneStrategy>();
    assert_engine_shippable::<Objective>();
    assert_engine_shippable::<Rung>();
    assert_engine_shippable::<CandidateResult>();
    assert_engine_shippable::<Leaderboard>();
};
