//! Recording every `quick` workload to disk and replaying it
//! through `--trace-dir` reproduces the generated-path experiment tables byte-for-byte,
//! and a damaged trace file fails loudly instead of quietly changing results.

use std::path::PathBuf;

use athena_repro::harness::experiments::{run_experiment, workload_set};
use athena_repro::prelude::*;
use athena_repro::trace_io::record_trace;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("athena-{tag}-{}", std::process::id()));
    // A stale directory from a previous crashed run would make the test read old traces.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp trace dir");
    dir
}

/// The quick preset, shortened: traces are recorded at the full quick length (so the
/// recording step exercises exactly what `trace record --quick` writes), while the
/// replayed experiment consumes a prefix — keeping the double experiment run fast in
/// debug builds. The generated and replayed paths both use the same budget, which is what
/// byte-identity is about.
fn roundtrip_opts() -> RunOptions {
    let mut opts = RunOptions::quick();
    opts.instructions = 10_000;
    opts.jobs = 2;
    opts
}

#[test]
fn replaying_recorded_quick_workloads_reproduces_tables_byte_for_byte() {
    let opts = roundtrip_opts();
    let dir = fresh_dir("trace-roundtrip");
    let quick_len = RunOptions::quick().instructions;
    for spec in workload_set(&opts) {
        let path = dir.join(format!("{}.trace", spec.name));
        let mut generator = spec.trace();
        let written = record_trace(&mut generator, quick_len, &path).expect("record");
        assert_eq!(written, quick_len, "{}: generators are infinite", spec.name);
    }

    // fig7 covers the full (workload × policy) sweep shape: shared baselines,
    // classification runs and every coordination policy, all as one engine batch.
    let generated = run_experiment("fig7", &opts).expect("fig7 exists");
    let replayed_opts = opts.clone().with_trace_dir(&dir);
    let replayed = run_experiment("fig7", &replayed_opts).expect("fig7 exists");

    assert_eq!(generated, replayed, "tables must match structurally");
    assert_eq!(
        generated.to_csv(),
        replayed.to_csv(),
        "CSV bytes must match exactly"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_damaged_trace_file_fails_the_run_instead_of_changing_results() {
    let opts = roundtrip_opts();
    let dir = fresh_dir("trace-damaged");
    // A file with the right name but garbage contents: the replay path must actually open
    // it (proving substitution happens) and must refuse to run on it.
    let victim = &workload_set(&opts)[0];
    std::fs::write(
        dir.join(format!("{}.trace", victim.name)),
        b"this is not a trace",
    )
    .expect("write garbage");

    let replayed_opts = opts.clone().with_trace_dir(&dir);
    let outcome = std::panic::catch_unwind(|| run_experiment("fig7", &replayed_opts));
    assert!(
        outcome.is_err(),
        "a garbage trace under a quick workload's name must fail the experiment"
    );

    std::fs::remove_dir_all(&dir).ok();
}
