//! The `figures --timeline` study: windowed time series and learning curves for every
//! online coordination policy.
//!
//! One cell per (workload × policy) on CD1, each run with windowed telemetry enabled.
//! Like every experiment, the grid is enumerated as engine jobs and each cell is a pure
//! function of its job, so the per-cell series — not just the aggregate table — are
//! byte-identical at any `--jobs` count and under `--trace-dir` replay
//! (`tests/timeline_determinism.rs` locks this in).

use athena_engine::{CellResult, Job};
use athena_sim::EpochStats;
use athena_telemetry::{Timeline, WindowMetrics};

use crate::experiments::{cell_job, workload_set};
use crate::{CoordinatorKind, ExperimentTable, OcpKind, PrefetcherKind, RunOptions, SystemConfig};

/// The coordination policies the timeline study tracks: the ones whose behaviour can
/// change over a run (learning policies plus the always-on references they are compared
/// against).
pub fn timeline_coordinators() -> Vec<(&'static str, CoordinatorKind)> {
    vec![
        ("prefetchers-only", CoordinatorKind::PrefetchersOnly),
        ("naive", CoordinatorKind::Naive),
        ("hpac", CoordinatorKind::Hpac),
        ("mab", CoordinatorKind::Mab),
        ("athena", CoordinatorKind::Athena),
    ]
}

/// One cell of the study: a workload's full windowed series under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineCell {
    /// Workload name.
    pub workload: String,
    /// Policy name (row label in the learning-curve table).
    pub coordinator: String,
    /// The cell's derived seed (for the JSON documents).
    pub seed: u64,
    /// The windowed time series.
    pub timeline: Timeline,
}

/// The assembled study: every per-cell series plus the aggregate learning-curve table.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineStudy {
    /// The window length the series were collected at.
    pub window_instructions: u64,
    /// Every (workload × policy) cell, grouped by policy in [`timeline_coordinators`]
    /// order.
    pub cells: Vec<TimelineCell>,
    /// Early-vs-late learning-curve table: one row per policy, aggregated over all
    /// workloads (the repository's analogue of the paper's learning-behaviour figures).
    pub curves: ExperimentTable,
}

/// Columns of the learning-curve table: each metric at the run's first and last quarter
/// of windows.
const CURVE_COLUMNS: [&str; 8] = [
    "early-ipc",
    "late-ipc",
    "early-pf-accuracy",
    "late-pf-accuracy",
    "early-pf-coverage",
    "late-pf-coverage",
    "early-ocp-precision",
    "late-ocp-precision",
];

/// Runs the study on the engine (`opts.jobs` workers, `opts.trace_dir` honoured exactly
/// like the figure experiments). When [`RunOptions::tuned_config`] names a configuration
/// file (written by the `tune` CLI), a `tuned` policy running that file-loaded
/// configuration joins the tracked policies, so its learning curve can be compared
/// against the default agent's.
///
/// # Panics
///
/// Panics if the tuned configuration file cannot be loaded (the CLI validates first).
pub fn timeline_study(opts: &RunOptions, window_instructions: u64) -> TimelineStudy {
    let specs = workload_set(opts);
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let mut coordinators = timeline_coordinators();
    if let Some(path) = &opts.tuned_config {
        let cfg = athena_tune::load_config(path).unwrap_or_else(|e| panic!("{e}"));
        coordinators.push(("tuned", CoordinatorKind::AthenaWith(cfg)));
    }

    let mut jobs: Vec<Job> = Vec::new();
    for (_, kind) in &coordinators {
        for spec in &specs {
            jobs.push(
                cell_job("timeline", spec, &config, kind, opts).with_telemetry(window_instructions),
            );
        }
    }
    let mut results = opts.engine().run(jobs).into_iter();

    let mut cells = Vec::new();
    let mut curves = ExperimentTable::new(
        "Learning curves: early vs late telemetry windows (CD1 <popet, pythia>)",
        "coordinator",
        CURVE_COLUMNS.iter().map(|s| s.to_string()).collect(),
    );
    for (name, _) in &coordinators {
        // Aggregate the early/late window counters across workloads and derive the
        // metrics from the sums, so the row is exact rather than an average of averages.
        let mut early_sum = EpochStats::default();
        let mut late_sum = EpochStats::default();
        for spec in &specs {
            let cell: CellResult = results.next().expect("one result per job");
            let seed = cell.seed;
            let run = cell.into_single();
            let timeline = run.timeline.expect("timeline jobs collect telemetry");
            // The per-run window split is the telemetry layer's: this table aggregates
            // the same early/late sums that the per-cell JSON's learning_curve reports.
            let (_, early, late) = timeline
                .early_late_window_sums()
                .expect("a completed run has windows");
            early_sum.accumulate(&early);
            late_sum.accumulate(&late);
            cells.push(TimelineCell {
                workload: spec.name.clone(),
                coordinator: name.to_string(),
                seed,
                timeline,
            });
        }
        let early = WindowMetrics::from_stats(&early_sum);
        let late = WindowMetrics::from_stats(&late_sum);
        curves.push_row(
            *name,
            vec![
                early.ipc,
                late.ipc,
                early.prefetch_accuracy,
                late.prefetch_accuracy,
                early.prefetch_coverage,
                late.prefetch_coverage,
                early.ocp_precision,
                late.ocp_precision,
            ],
        );
    }
    TimelineStudy {
        window_instructions,
        cells,
        curves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunOptions {
        RunOptions {
            instructions: 12_000,
            workload_limit: Some(3),
            jobs: 2,
            trace_dir: None,
            tuned_config: None,
            store: None,
            dist: None,
            probe: None,
            progress: false,
            memo: Default::default(),
        }
    }

    #[test]
    fn study_covers_the_full_grid() {
        let study = timeline_study(&tiny(), 4096);
        let coordinators = timeline_coordinators();
        assert_eq!(study.cells.len(), 3 * coordinators.len());
        assert_eq!(study.curves.rows.len(), coordinators.len());
        assert_eq!(study.curves.columns.len(), CURVE_COLUMNS.len());
        for cell in &study.cells {
            assert!(!cell.timeline.windows.is_empty(), "{}", cell.workload);
            assert_eq!(
                cell.timeline.totals().instructions,
                12_000,
                "windows partition the whole run"
            );
        }
        // Athena cells carry agent snapshots; static policies do not.
        assert!(study
            .cells
            .iter()
            .filter(|c| c.coordinator == "athena")
            .all(|c| c.timeline.windows.iter().all(|w| w.agent.is_some())));
        assert!(study
            .cells
            .iter()
            .filter(|c| c.coordinator == "naive")
            .all(|c| c.timeline.windows.iter().all(|w| w.agent.is_none())));
    }

    #[test]
    fn a_tuned_config_file_joins_the_tracked_policies() {
        let dir =
            std::env::temp_dir().join(format!("athena-timeline-tuned-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tuned.json");
        let cfg = athena_engine::default_athena_config().with_hyperparameters(0.3, 0.6, 0.05, 0.12);
        std::fs::write(&path, athena_tune::config_to_json(&cfg).to_pretty()).unwrap();

        let mut opts = tiny();
        opts.workload_limit = Some(2);
        opts.tuned_config = Some(path);
        let study = timeline_study(&opts, 4096);
        assert_eq!(study.cells.len(), 2 * (timeline_coordinators().len() + 1));
        assert!(study.curves.rows.iter().any(|(name, _)| name == "tuned"));
        // The tuned policy is a learning agent: its cells carry snapshots too.
        assert!(study
            .cells
            .iter()
            .filter(|c| c.coordinator == "tuned")
            .all(|c| c.timeline.windows.iter().all(|w| w.agent.is_some())));
        std::fs::remove_dir_all(
            std::env::temp_dir().join(format!("athena-timeline-tuned-{}", std::process::id())),
        )
        .ok();
    }
}
