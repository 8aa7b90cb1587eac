//! Timeline determinism (workspace-level).
//!
//! The engine's byte-identity guarantee — a cell's result is a pure function of its job,
//! independent of worker count and scheduling — must extend to the new time-series
//! output: the `figures --timeline` study's per-cell CSV/JSON bytes and its aggregate
//! learning-curve table must be identical at `--jobs 1` vs `--jobs 4`, and identical
//! again when the workloads are replayed from recorded trace files via `--trace-dir`.

use athena_repro::engine::report::timeline_report;
use athena_repro::harness::experiments::workload_set;
use athena_repro::harness::timeline::timeline_study;
use athena_repro::harness::RunOptions;
use athena_repro::trace_io::{record_trace, TraceFormat};

const INSTRUCTIONS: u64 = 12_000;
const WINDOW: u64 = 4_096;

fn opts(jobs: usize) -> RunOptions {
    RunOptions {
        instructions: INSTRUCTIONS,
        workload_limit: Some(4),
        jobs,
        trace_dir: None,
        tuned_config: None,
        store: None,
        dist: None,
        probe: None,
        progress: false,
        memo: Default::default(),
    }
}

/// Serialises a whole study to the exact bytes the `figures --timeline` CLI writes:
/// the learning-curve CSV plus one (CSV, JSON) pair per cell, keyed by file stem.
fn study_bytes(opts: &RunOptions) -> Vec<(String, String)> {
    let study = timeline_study(opts, WINDOW);
    let mut files = vec![("learning_curve.csv".to_string(), study.curves.to_csv())];
    for cell in &study.cells {
        let stem = format!("{}.{}.timeline", cell.workload, cell.coordinator);
        files.push((format!("{stem}.csv"), cell.timeline.to_csv()));
        files.push((
            format!("{stem}.json"),
            timeline_report(&cell.workload, &cell.coordinator, cell.seed, &cell.timeline)
                .to_pretty(),
        ));
    }
    files
}

#[test]
fn timelines_are_byte_identical_at_any_worker_count() {
    let serial = study_bytes(&opts(1));
    let parallel = study_bytes(&opts(4));
    assert_eq!(serial.len(), parallel.len());
    for ((name_s, bytes_s), (name_p, bytes_p)) in serial.iter().zip(&parallel) {
        assert_eq!(name_s, name_p);
        assert_eq!(
            bytes_s, bytes_p,
            "{name_s} diverged between --jobs 1 and --jobs 4"
        );
    }
}

#[test]
fn timelines_are_byte_identical_under_trace_replay() {
    // Record every workload of the study's sample, then rerun the study replaying the
    // recordings through --trace-dir.
    let dir = std::env::temp_dir().join(format!("athena-timeline-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let generated_opts = opts(2);
    for spec in workload_set(&generated_opts) {
        let path = dir.join(format!("{}.trace", spec.name));
        let mut generator = spec.trace();
        record_trace(&mut generator, INSTRUCTIONS, &path, TraceFormat::Binary).unwrap();
    }
    let mut replay_opts = generated_opts.clone();
    replay_opts.trace_dir = Some(dir.clone());

    let generated = study_bytes(&generated_opts);
    let replayed = study_bytes(&replay_opts);
    assert_eq!(generated.len(), replayed.len());
    for ((name_g, bytes_g), (name_r, bytes_r)) in generated.iter().zip(&replayed) {
        assert_eq!(name_g, name_r);
        assert_eq!(
            bytes_g, bytes_r,
            "{name_g} diverged between generation and replay"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
