//! Regression tests for the `bench_gate` CLI: synthetic `BENCH_sim.json` profiles written
//! to a temp dir and compared cross-process, covering each way the gate must fail and the
//! tolerances it must allow (`share <= base * 1.10 + 0.02`, calls per cell within 1 % on
//! the same grid).

mod common;

use std::path::{Path, PathBuf};
use std::process::Output;
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{run_bin, temp_dir, text};

const SCHEMA: &str = "athena-sim-bench-v1";

/// One phase entry, as `figures --profile` writes it.
fn phase(calls: u64, nanos: u64) -> String {
    format!("{{\"calls\": {calls}, \"nanos\": {nanos}}}")
}

/// A profile holding only the fields the gate reads.
fn profile(schema: &str, cells: u64, total_nanos: u64, phases: &[(&str, String)]) -> String {
    let phases: Vec<String> = phases
        .iter()
        .map(|(name, entry)| format!("\"{name}\": {entry}"))
        .collect();
    format!(
        "{{\"schema\": \"{schema}\", \"profiled_cells\": {cells}, \"cell_phases\": \
         {{\"phases\": {{{}}}, \"total_nanos\": {total_nanos}}}}}",
        phases.join(", ")
    )
}

/// The baseline every test compares against: 10 cells, 1 000 ns, three phases at
/// 60 % / 30 % / 10 %.
fn baseline() -> String {
    profile(
        SCHEMA,
        10,
        1000,
        &[
            ("core_step", phase(1000, 600)),
            ("cache_lookup", phase(5000, 300)),
            ("dispatch", phase(10, 100)),
        ],
    )
}

/// The baseline with `cache_lookup` replaced by the given entry (`core_step` absorbs the
/// difference, so the phases still sum to the total).
fn with_cache_lookup(calls: u64, nanos: u64) -> String {
    profile(
        SCHEMA,
        10,
        1000,
        &[
            ("core_step", phase(1000, 900 - nanos)),
            ("cache_lookup", phase(calls, nanos)),
            ("dispatch", phase(10, 100)),
        ],
    )
}

fn write(dir: &Path, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, body).expect("write profile");
    path
}

/// Runs `bench_gate <baseline> <candidate>` on the two documents.
fn gate(base: &str, candidate: &str) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = temp_dir(&format!(
        "bench-gate-{}",
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let base = write(&dir, "base.json", base);
    let candidate = write(&dir, "candidate.json", candidate);
    let out = run_bin(
        "bench_gate",
        &[base.to_str().unwrap(), candidate.to_str().unwrap()],
        &[],
    );
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn assert_passes(out: &Output) {
    assert!(
        out.status.success(),
        "gate should pass\nstdout:\n{}\nstderr:\n{}",
        text(&out.stdout),
        text(&out.stderr)
    );
    assert!(
        text(&out.stdout).contains("gate: ok"),
        "{}",
        text(&out.stdout)
    );
}

/// Asserts a failing exit whose stdout + stderr mention every `needle`.
fn assert_fails(out: &Output, needles: &[&str]) {
    let all = format!("{}{}", text(&out.stdout), text(&out.stderr));
    assert!(!out.status.success(), "gate should fail:\n{all}");
    for needle in needles {
        assert!(all.contains(needle), "missing '{needle}' in:\n{all}");
    }
}

#[test]
fn a_profile_compared_with_itself_passes() {
    assert_passes(&gate(&baseline(), &baseline()));
}

#[test]
fn a_share_past_the_tolerance_fails() {
    // cache_lookup's limit is 30 % * 1.10 + 2 points = 35 %.
    assert_passes(&gate(&baseline(), &with_cache_lookup(5000, 340)));
    assert_fails(
        &gate(&baseline(), &with_cache_lookup(5000, 360)),
        &["SHARE REGRESSED", "phase 'cache_lookup' share grew"],
    );
}

#[test]
fn a_calls_per_cell_drift_on_the_same_grid_fails() {
    assert_passes(&gate(&baseline(), &with_cache_lookup(5040, 300)));
    assert_fails(
        &gate(&baseline(), &with_cache_lookup(5200, 300)),
        &["CALLS DRIFTED", "phase 'cache_lookup' calls/cell drifted"],
    );
}

#[test]
fn a_phase_missing_from_the_candidate_fails() {
    let candidate = profile(
        SCHEMA,
        10,
        1000,
        &[
            ("core_step", phase(1000, 900)),
            ("dispatch", phase(10, 100)),
        ],
    );
    assert_fails(
        &gate(&baseline(), &candidate),
        &["phase 'cache_lookup' disappeared"],
    );
}

#[test]
fn a_schema_mismatch_fails() {
    let candidate = baseline().replace(SCHEMA, "athena-sim-bench-v0");
    assert_fails(&gate(&baseline(), &candidate), &["schema mismatch"]);
}

#[test]
fn an_empty_profile_fails() {
    let empty = profile(
        SCHEMA,
        0,
        0,
        &[
            ("core_step", phase(0, 0)),
            ("cache_lookup", phase(0, 0)),
            ("dispatch", phase(0, 0)),
        ],
    );
    assert_fails(&gate(&baseline(), &empty), &["profiled no cells"]);
    assert_fails(&gate(&empty, &baseline()), &["profiled no cells"]);

    let no_time = profile(
        SCHEMA,
        10,
        0,
        &[
            ("core_step", phase(1000, 0)),
            ("cache_lookup", phase(5000, 0)),
            ("dispatch", phase(10, 0)),
        ],
    );
    assert_fails(
        &gate(&baseline(), &no_time),
        &["cell_phases.total_nanos is 0"],
    );
}

#[test]
fn a_phase_without_numeric_calls_or_nanos_fails() {
    let no_nanos = profile(
        SCHEMA,
        10,
        1000,
        &[
            ("core_step", "{\"calls\": 1000}".to_string()),
            ("cache_lookup", "{\"calls\": 5000}".to_string()),
            ("dispatch", "{\"calls\": 10}".to_string()),
        ],
    );
    assert_fails(
        &gate(&baseline(), &no_nanos),
        &["phase 'core_step' has no numeric 'nanos' field"],
    );
    let text_calls = baseline().replace("\"calls\": 10,", "\"calls\": \"10\",");
    assert_fails(
        &gate(&baseline(), &text_calls),
        &["phase 'dispatch' has no numeric 'calls' field"],
    );
}
