//! Shared helpers for the cross-process integration tests (`dist_determinism`,
//! `dist_faults`, `dist_probe`, the `results` CLI regression tests, the `bench_gate`
//! tests, the `end_to_end` usage-error test).
//!
//! The CLIs (`figures`, `tune`, `trace`, `results`, `bench_gate`) are bin targets of this
//! umbrella package, so Cargo builds them before running its integration tests and hands
//! each test binary their paths as `CARGO_BIN_EXE_<name>` at compile time — the suites
//! always run the binaries built from the same sources, in the same profile.

#![allow(dead_code)] // each test binary uses a different subset of these helpers

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use athena_repro::engine::json::Json;

/// The path of one of this package's CLI binaries, as built for this test run.
pub fn harness_bin(name: &str) -> PathBuf {
    PathBuf::from(match name {
        "figures" => env!("CARGO_BIN_EXE_figures"),
        "tune" => env!("CARGO_BIN_EXE_tune"),
        "trace" => env!("CARGO_BIN_EXE_trace"),
        "results" => env!("CARGO_BIN_EXE_results"),
        "bench_gate" => env!("CARGO_BIN_EXE_bench_gate"),
        other => panic!("no CLI binary named '{other}' in this package"),
    })
}

/// Runs a harness binary with the given arguments and environment overrides, capturing
/// stdout/stderr. Panics only if the process cannot be spawned at all — callers assert on
/// the exit status themselves, because several tests expect failure.
pub fn run_bin(name: &str, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let bin = harness_bin(name);
    let mut cmd = Command::new(&bin);
    cmd.args(args);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", bin.display()))
}

/// UTF-8 view of a captured stream (the harness binaries only ever print UTF-8).
pub fn text(stream: &[u8]) -> String {
    String::from_utf8_lossy(stream).into_owned()
}

/// Fresh per-test temp directory (removed first if a previous run left it behind).
pub fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("athena-dist-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Asserts that two files have identical bytes, with a readable diff context on failure.
pub fn assert_same_bytes(a: &std::path::Path, b: &std::path::Path) {
    let left = std::fs::read(a).unwrap_or_else(|e| panic!("read {}: {e}", a.display()));
    let right = std::fs::read(b).unwrap_or_else(|e| panic!("read {}: {e}", b.display()));
    assert!(
        left == right,
        "{} and {} differ ({} vs {} bytes)",
        a.display(),
        b.display(),
        left.len(),
        right.len()
    );
}

/// An integer field of an event line.
pub fn event_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("event line without an integer '{key}': {doc}")) as u64
}

/// The lines of one kind in an event log, parsed.
pub fn events_of_kind(lines: &[String], kind: &str) -> Vec<Json> {
    lines
        .iter()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("corrupt line {line:?}: {e}")))
        .filter(|doc| doc.get("kind").and_then(Json::as_str) == Some(kind))
        .collect()
}

/// Whether a process with this pid exists: an exited one that waits to be reaped still
/// does, a reaped one does not.
pub fn process_exists(pid: u64) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}
