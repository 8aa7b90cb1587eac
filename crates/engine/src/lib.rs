//! # athena-engine
//!
//! The parallel experiment-execution subsystem of the Athena reproduction.
//!
//! Every figure of the paper's evaluation is a grid of (workload × mechanism ×
//! system-config) simulation cells. This crate turns one grid cell into a [`Job`] — a plain
//! data value carrying the workload (or multi-core mix), the [`SystemConfig`], the
//! [`CoordinatorKind`] and an instruction budget — and runs batches of jobs on a hand-rolled
//! bounded worker pool (`std` only; the offline build has no rayon):
//!
//! * **Determinism** — a job's result is a pure function of the job itself. Seeds are
//!   derived from the cell identity ([`seed`]), never from scheduling, so a batch produces
//!   bit-identical results at any worker count and in any submission order.
//! * **Panic isolation** — one poisoned cell fails that cell only; the rest of the batch
//!   completes ([`Engine::run`]).
//! * **In-order collection** — results come back in submission order with per-cell
//!   wall-clock accounting ([`Engine::run`]).
//! * **Machine-readable results** — a hand-rolled JSON writer ([`json::JsonWriter`], under
//!   the [`json::Json`] tree and the streaming [`codec`]) serialises aggregate
//!   [`ExperimentTable`]s, per-cell records ([`with_recording`]) and the `BENCH_sim.json`
//!   phase profile ([`report::SIM_BENCH_SCHEMA`]); every document declares a shared
//!   [`report::Schema`] constant.
//! * **Event stream** — an optional JSONL log of every batch's lifecycle ([`Event`],
//!   written by a [`ProbeSink`] through the same JSON writer), emitted at deterministic
//!   merge points ([`Engine::with_probe`]).
//! * **Result caching** — an optional persistent content-addressed store
//!   ([`StoreHandle`], crate `athena-store`) serves previously simulated cells, keyed by
//!   [`Job::identity_hash`], so warm re-runs simulate nothing and killed sweeps resume
//!   paying only for missing cells ([`Engine::with_store`]).
//! * **Per-run reuse** — an optional [`CellMemo`] shared by every batch of one run serves
//!   a cell that an earlier experiment of the run already simulated, so each distinct cell
//!   is simulated about once per run ([`Engine::with_memo`]).
//! * **Distribution** — an optional coordinator/worker executor ([`DistPool`], module
//!   [`dist`]) shards each batch across long-lived worker processes over a
//!   length-delimited checksummed stdio protocol (jobs serialised by [`wire`]), with
//!   bounded retry/reassignment on worker death and a loud failure on corruption; merge
//!   order and the result store stay on the coordinator, so tables remain byte-identical
//!   at any worker count ([`Engine::with_dist`]).
//!
//! ```
//! use athena_engine::{CoordinatorKind, Engine, Job, OcpKind, PrefetcherKind, SystemConfig};
//! use athena_workloads::all_workloads;
//!
//! let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
//! let jobs: Vec<Job> = all_workloads()
//!     .into_iter()
//!     .take(2)
//!     .map(|w| Job::single("demo", w, config.clone(), CoordinatorKind::Athena, 5_000))
//!     .collect();
//! let cells = Engine::new(2).run(jobs);
//! assert_eq!(cells.len(), 2);
//! assert!(cells.iter().all(|c| c.output.is_ok()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod exec;
mod fingerprint;
mod job;
mod kinds;
mod memo;
mod record;
mod table;

pub mod codec;
pub mod dist;
pub mod json;
pub mod pool;
pub mod report;
pub mod seed;
pub mod store;
pub mod wire;

pub use dist::{DistPool, RemoteCell, WorkerCommand};
pub use events::{
    CellOrigin, Event, ProbeSink, EVENTS_SCHEMA_ID, TOPOLOGY_EVENT_KINDS, WALL_CLOCK_FIELDS,
    WORKER_ATTRIBUTION_FIELDS,
};
pub use exec::{CellResult, Engine};
pub use job::{simulate, FileWorkload, Job, JobOutput, RunResult, TelemetrySpec, WorkloadRef};
pub use kinds::{default_athena_config, CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};
pub use memo::CellMemo;
pub use pool::available_parallelism;
pub use record::{with_recording, CellRecord};
pub use seed::SeedHasher;
pub use store::{record_key, variant_hash, RecordEnvelope, StoreHandle};
pub use table::ExperimentTable;

// Re-exported so store consumers need only this crate.
pub use athena_store::{
    GcReport, RecordKey, ResultStore, StoreError, StorePolicy, StoreStats, VerifyReport,
};

// Re-exported so observability consumers (the CLIs, the tune crate) need only this crate.
pub use athena_probe::{
    metrics, profiling_enabled, set_profiling, swap_cell, take_cell, Counter, Histogram,
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Phase, PhaseProfile, PhaseStat,
    WorkerUtil, ALL_PHASES,
};
