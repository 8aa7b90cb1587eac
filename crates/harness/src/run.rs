//! Run options and the single-run entry points.
//!
//! The system configurations (CD1–CD4), mechanism registries and the `simulate` function
//! moved to `athena-engine` when the parallel experiment engine was introduced; they are
//! re-exported here unchanged so existing callers keep working (a multi-core run is
//! `athena_engine::Job::multicore(..).run()`). What remains harness-local is [`RunOptions`], which bundles every knob an
//! experiment takes: run length, workload sampling, engine parallelism and trace
//! substitution.
//!
//! Most fields map onto a run flag that `figures` and `tune` share (`--instructions`,
//! `--workloads`, `--jobs`, `--trace-dir`, `--store`, `--workers`, `--events`,
//! `--progress`), parsed once by [`crate::cli::RunFlags`]; the CLIs additionally offer
//! output-mode flags that never reach the experiments themselves — `--out DIR` (CSV
//! files) and `--json` (per-figure JSON reports with per-cell records).

use std::path::PathBuf;

use athena_engine::Engine;

pub use athena_engine::{
    default_athena_config, simulate, CellMemo, CoordinatorKind, DistPool, OcpKind, PrefetcherKind,
    ProbeSink, RunResult, StoreHandle, StorePolicy, SystemConfig, WorkerCommand,
};

/// Options controlling run length, parallelism and trace substitution.
///
/// Passed (by reference) to every experiment; construct via [`RunOptions::full`] or
/// [`RunOptions::quick`] and override fields as needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Instructions simulated per workload (the `--instructions` flag).
    pub instructions: u64,
    /// Optional cap on the number of workloads used by suite-wide experiments (the
    /// `--workloads` flag; useful for quick runs and the `e2ebench` benchmark). `None` means
    /// all workloads. The cap keeps a balanced interleaving of designed-friendly and
    /// designed-adverse workloads — see [`crate::experiments::workload_set`].
    pub workload_limit: Option<usize>,
    /// Number of simulation cells run concurrently by the experiment engine (the `--jobs`
    /// flag; the CLI defaults it to every hardware thread). `1` is the exact serial path
    /// (no worker threads); results are bit-identical at any value — see `athena-engine`.
    pub jobs: usize,
    /// Optional directory of recorded traces (the `--trace-dir` flag). When set, every
    /// single-core cell whose workload has a recorded trace in the directory (a
    /// `<workload-name>.trace` file, as written by `trace record`) is replayed from that
    /// file instead of being generated in-process; workloads without a recorded trace, and
    /// multi-core mixes, fall back to generation. A replayed trace recorded from the same
    /// generator reproduces the generated cell's results byte for byte (locked in by
    /// `tests/trace_roundtrip.rs`).
    pub trace_dir: Option<PathBuf>,
    /// Optional tuned Athena configuration file (the `--tuned-config` flag), as written
    /// by the `tune` CLI (`best.json` or a bare config object). When set, the `tuned`
    /// experiment and the timeline study run a `tuned` policy loaded from this file; a
    /// configuration produced by `tune` on the same options reproduces its leaderboard
    /// speedup exactly (locked in by `tests/tune_determinism.rs`).
    pub tuned_config: Option<PathBuf>,
    /// Optional persistent result store (the `--store` flag): every engine batch an
    /// experiment runs consults it before simulating and persists what it simulates, as
    /// the handle's [`StorePolicy`] allows. Because cells are pure functions of their
    /// jobs, tables are byte-identical with or without a store; a warm store makes the
    /// whole run simulation-free.
    pub store: Option<StoreHandle>,
    /// Optional distributed worker pool (the `--workers` flag): every engine batch an
    /// experiment runs executes its store-missing cells on the pool's worker processes
    /// (`athena_engine::dist`) instead of in-process threads. Every clone of the options
    /// shares the pool's workers: they are spawned once and serve every batch. Merge
    /// order, the store and event emission stay on the coordinator, so tables are
    /// byte-identical at any worker count.
    pub dist: Option<DistPool>,
    /// Optional structured event sink (the `--events` flag): every engine batch an
    /// experiment runs emits its lifecycle events through it as JSONL. Observation is not
    /// identity — attaching a sink cannot change a table byte.
    pub probe: Option<ProbeSink>,
    /// Live `cells done / cached / ETA` progress line on stderr while batches simulate
    /// (the `--progress` flag). Off by default.
    pub progress: bool,
    /// The run's cell memo (`athena_engine::CellMemo`): every engine batch an experiment
    /// runs reuses outputs an earlier batch of the same options simulated for the same
    /// cell. Clones share it, and each [`RunOptions::full`] / [`RunOptions::quick`] call
    /// starts an empty one, so reuse never crosses from one run to another. Reused
    /// outputs are bit-identical to fresh ones, so tables are byte-identical either way.
    pub memo: CellMemo,
}

impl RunOptions {
    /// Full-suite defaults used by the `figures` binary. 400 K instructions per workload is
    /// roughly 200 coordination epochs and keeps a full figure under a minute on a laptop.
    /// It is not a converged length: a 20-workload probe of `fig7` and `fig9` still saw
    /// policy orderings flip between 400 K and 6.4 M instructions (ROADMAP item 2).
    pub fn full() -> Self {
        Self {
            instructions: 400_000,
            workload_limit: None,
            jobs: 1,
            trace_dir: None,
            tuned_config: None,
            store: None,
            dist: None,
            probe: None,
            progress: false,
            memo: CellMemo::new(),
        }
    }

    /// Reduced defaults used by `--quick`, the `e2ebench` benchmark and integration tests.
    pub fn quick() -> Self {
        Self {
            instructions: 40_000,
            workload_limit: Some(12),
            jobs: 1,
            trace_dir: None,
            tuned_config: None,
            store: None,
            dist: None,
            probe: None,
            progress: false,
            memo: CellMemo::new(),
        }
    }

    /// Returns a copy with a different engine worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Returns a copy replaying recorded traces from `dir` (see
    /// [`RunOptions::trace_dir`]).
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Returns a copy running the `tuned` policy from the given configuration file (see
    /// [`RunOptions::tuned_config`]).
    pub fn with_tuned_config(mut self, path: impl Into<PathBuf>) -> Self {
        self.tuned_config = Some(path.into());
        self
    }

    /// Returns a copy whose engine batches use the given result store (see
    /// [`RunOptions::store`]).
    pub fn with_store(mut self, store: StoreHandle) -> Self {
        self.store = Some(store);
        self
    }

    /// Returns a copy whose engine batches run on the given distributed worker pool (see
    /// [`RunOptions::dist`]).
    pub fn with_dist(mut self, dist: DistPool) -> Self {
        self.dist = Some(dist);
        self
    }

    /// Returns a copy whose engine batches emit lifecycle events through the given sink
    /// (see [`RunOptions::probe`]).
    pub fn with_probe(mut self, probe: ProbeSink) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Returns a copy with the stderr progress line enabled (see
    /// [`RunOptions::progress`]).
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Builds the experiment engine these options ask for: `jobs` workers and the
    /// options' cell memo, with the result store, distributed pool and event sink
    /// attached when configured. Every experiment batch and every `tune` evaluation goes
    /// through here, so the memo and the `--store` / `--workers` / `--events` /
    /// `--progress` flags reach all of them.
    pub fn engine(&self) -> Engine {
        Engine::new(self.jobs)
            .with_store(self.store.clone())
            .with_memo(Some(self.memo.clone()))
            .with_dist(self.dist.clone())
            .with_probe(self.probe.clone())
            .with_progress(self.progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_serial_and_generated() {
        assert_eq!(RunOptions::full().jobs, 1);
        assert_eq!(RunOptions::quick().jobs, 1);
        assert_eq!(RunOptions::full().trace_dir, None);
        assert_eq!(RunOptions::quick().trace_dir, None);
    }

    #[test]
    fn with_jobs_clamps_to_at_least_one() {
        assert_eq!(RunOptions::quick().with_jobs(8).jobs, 8);
        assert_eq!(RunOptions::quick().with_jobs(0).jobs, 1);
    }

    #[test]
    fn with_trace_dir_sets_the_directory() {
        let opts = RunOptions::quick().with_trace_dir("/tmp/traces");
        assert_eq!(
            opts.trace_dir.as_deref(),
            Some(std::path::Path::new("/tmp/traces"))
        );
    }
}
