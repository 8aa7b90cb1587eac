//! # athena-probe
//!
//! Zero-cost-when-off observability for the Athena reproduction, in two parts:
//!
//! * **Hot-path phase profiler** ([`profile`]) — lightweight span instrumentation over
//!   the simulator's stages (trace generation, core stepping, cache lookups, prefetch
//!   issue, OCP prediction, coordinator updates, DRAM accesses) and the engine's stages
//!   (store fetch, dispatch, merge). Spans accumulate per-phase call counts and
//!   *self*-time nanoseconds into a per-cell [`PhaseProfile`]; because every span
//!   subtracts its children's time, the phases partition the cell's wall-clock and their
//!   totals sum back to it.
//! * **Metrics registry** ([`mod@metrics`]) — a fixed set of process-wide atomic counters,
//!   log2-bucketed histograms and a per-worker utilization table, bumped by the engine
//!   (cell wall-clock, store fetch/persist latency, wire frame bytes, retries) and
//!   snapshotted in deterministic order into the CLIs' JSON reports.
//!
//! The structured event stream (`--events`) is not here: its lines are JSON documents,
//! so they live with the engine's JSON writer (`athena_engine::{Event, ProbeSink}`).
//!
//! **Observation is not identity.** Nothing in this crate feeds back into a simulation:
//! profiles and metrics are derived from results, never consulted by them, so enabling
//! either must not change a single table byte (the engine's tests lock this in). The
//! disabled path compiles to near-nothing — one relaxed atomic load and a branch per
//! span site.
//!
//! This crate sits below `athena-sim` and `athena-engine` in the dependency order and
//! therefore depends on nothing.

// `deny` rather than `forbid`: the clock module holds the crate's single, documented
// exemption (the `rdtsc` intrinsic backing span timestamps).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod clock;
pub mod metrics;
pub mod profile;

pub use metrics::{
    metrics, Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, WorkerUtil,
};
pub use profile::{
    begin_cell, profiling_enabled, set_profiling, span, swap_cell, take_cell, Phase, PhaseProfile,
    PhaseStat, SpanGuard, ALL_PHASES, PHASE_COUNT,
};
