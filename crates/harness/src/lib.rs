//! # athena-harness
//!
//! The experiment harness that reproduces every figure of the Athena paper's evaluation.
//!
//! The harness wires together the workload suite (`athena-workloads`), the simulator
//! substrate (`athena-sim`), the prefetchers, off-chip predictors, baseline coordination
//! policies and the Athena agent, and exposes:
//!
//! * [`SystemConfig`] — the four cache designs (CD1–CD4) and their sensitivity variants;
//! * [`simulate`] — one single-core run of a workload under a configuration and policy;
//! * [`experiments`] — one experiment per paper figure (`fig1` … `fig21`, plus the DSE
//!   and storage tables), run by name through [`experiments::run_experiment`], each
//!   returning an [`ExperimentTable`] that can be printed or written as CSV/JSON. Every
//!   experiment enumerates its simulation cells as jobs on the `athena-engine` worker pool;
//!   [`RunOptions::jobs`] picks the worker count and the results are bit-identical at any
//!   value;
//! * the `figures` binary (built by the umbrella package, like every CLI that drives
//!   this crate) — `cargo run --release --bin figures -- --fig fig7 --jobs 8`;
//! * the `trace` binary — records workloads to binary trace files (`trace record --quick
//!   --out traces/`) and prints their headers (`trace info`); recorded directories replay
//!   through `figures --trace-dir`, reproducing the generated tables byte-for-byte;
//! * the `tune` binary — design-space exploration over Athena configurations
//!   (`athena-tune`, re-exported here as [`tune`]): seeded random search or successive
//!   halving on the engine, deterministic leaderboards, and a winning configuration that
//!   `figures --fig tuned --tuned-config` re-measures exactly.
//!
//! ```no_run
//! use athena_harness::{simulate, CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};
//! use athena_workloads::all_workloads;
//!
//! let spec = &all_workloads()[0];
//! let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
//! let run = simulate(spec, &config, CoordinatorKind::Athena, 100_000);
//! println!("{} IPC = {:.3}", spec.name, run.ipc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
mod run;
pub mod timeline;

pub use athena_engine::ExperimentTable;
pub use athena_tune as tune;
pub use run::{
    simulate, CellMemo, CoordinatorKind, DistPool, OcpKind, PrefetcherKind, ProbeSink, RunOptions,
    RunResult, StoreHandle, StorePolicy, SystemConfig, WorkerCommand,
};

// One geomean for the whole workspace: the experiments aggregate through the exact same
// function the tuner scores with, which is part of why a tuned configuration's replayed
// speedup matches its leaderboard claim bit for bit.
pub use athena_tune::geomean;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}
