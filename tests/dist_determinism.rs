//! Distributed-execution determinism acceptance tests (ISSUE 9):
//!
//! * every `figures --all --quick` table is byte-identical across the serial path
//!   (`--jobs 1`), the in-process pool at `--jobs 4`, one worker process and four worker
//!   processes — real subprocesses, spawned by the coordinator and fed job shards over
//!   stdin/stdout;
//! * the identity holds under `--trace-dir` replay and against a store warmed by a
//!   distributed run (which then simulates nothing);
//! * `tune --quick` leaderboards are byte-identical at any worker count.
//!
//! The instruction/workload budget is trimmed below the quick preset so the triple sweep
//! stays fast in debug builds; byte-identity does not depend on the budget.

use std::fs;

mod common;

use athena_repro::harness::experiments::experiment_names;
use common::{assert_same_bytes, run_bin, temp_dir, text};

const BUDGET: &[&str] = &["--quick", "--instructions", "8000", "--workloads", "4"];

fn figures(extra: &[&str]) -> std::process::Output {
    let mut args: Vec<&str> = BUDGET.to_vec();
    args.extend_from_slice(extra);
    run_bin("figures", &args, &[])
}

fn expect_success(out: &std::process::Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({:?}):\n{}",
        out.status.code(),
        text(&out.stderr)
    );
}

#[test]
fn all_quick_tables_are_byte_identical_at_any_worker_count() {
    let root = temp_dir("det-all");
    let dirs = [
        root.join("j1"),
        root.join("j4"),
        root.join("w1"),
        root.join("w4"),
    ];
    let runs: [&[&str]; 4] = [
        &["--jobs", "1"],
        &["--jobs", "4"],
        &["--workers", "1"],
        &["--workers", "4"],
    ];
    for (dir, executor) in dirs.iter().zip(runs) {
        let dir_s = dir.to_str().unwrap();
        let mut extra: Vec<&str> = vec!["--all", "--out", dir_s];
        extra.extend_from_slice(executor);
        expect_success(&figures(&extra), &format!("figures --all into {dir_s}"));
    }

    let mut tables: Vec<String> = fs::read_dir(&dirs[0])
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".csv"))
        .collect();
    tables.sort();
    assert_eq!(
        tables.len(),
        experiment_names().len(),
        "--all writes every experiment table, got {tables:?}"
    );
    for name in &tables {
        for other in &dirs[1..] {
            assert_same_bytes(&dirs[0].join(name), &other.join(name));
        }
    }
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn trace_replay_is_byte_identical_under_distribution() {
    let root = temp_dir("det-trace");
    let traces = root.join("traces");
    let out = run_bin(
        "trace",
        &[
            "record",
            "--quick",
            "--instructions",
            "8000",
            "--out",
            traces.to_str().unwrap(),
        ],
        &[],
    );
    expect_success(&out, "trace record --quick");

    let inproc = root.join("inproc");
    let dist = root.join("dist");
    for (dir, workers) in [(&inproc, None), (&dist, Some("2"))] {
        let mut extra = vec![
            "--fig",
            "fig7",
            "--trace-dir",
            traces.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
        ];
        if let Some(n) = workers {
            extra.extend_from_slice(&["--workers", n]);
        }
        expect_success(&figures(&extra), "figures --trace-dir");
    }
    assert_same_bytes(&inproc.join("fig7.csv"), &dist.join("fig7.csv"));
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn a_store_warmed_by_workers_serves_an_in_process_rerun_unchanged() {
    let root = temp_dir("det-store");
    let store = root.join("store");
    let cold_dir = root.join("cold");
    let warm_dir = root.join("warm");

    let cold = figures(&[
        "--fig",
        "fig7",
        "--workers",
        "2",
        "--store",
        store.to_str().unwrap(),
        "--out",
        cold_dir.to_str().unwrap(),
    ]);
    expect_success(&cold, "cold distributed run");

    // The warm re-run is in-process: the records persisted by the coordinator of the
    // distributed run must satisfy it completely (zero cells simulated) and exactly.
    let warm = figures(&[
        "--fig",
        "fig7",
        "--store",
        store.to_str().unwrap(),
        "--out",
        warm_dir.to_str().unwrap(),
    ]);
    expect_success(&warm, "warm in-process run");
    let stdout = text(&warm.stdout);
    assert!(
        stdout.contains("[store] 0 simulated"),
        "a store warmed by workers leaves nothing to simulate:\n{stdout}"
    );
    assert_same_bytes(&cold_dir.join("fig7.csv"), &warm_dir.join("fig7.csv"));
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn tune_leaderboards_are_byte_identical_at_any_worker_count() {
    let root = temp_dir("det-tune");
    let dirs = [root.join("inproc"), root.join("w1"), root.join("w4")];
    let runs: [&[&str]; 3] = [&[], &["--workers", "1"], &["--workers", "4"]];
    for (dir, workers) in dirs.iter().zip(runs) {
        let mut args: Vec<&str> = BUDGET.to_vec();
        args.extend_from_slice(&["--out", dir.to_str().unwrap()]);
        args.extend_from_slice(workers);
        let out = run_bin("tune", &args, &[]);
        expect_success(&out, "tune --quick");
    }
    for name in ["leaderboard.csv", "leaderboard.json", "best.json"] {
        assert_same_bytes(&dirs[0].join(name), &dirs[1].join(name));
        assert_same_bytes(&dirs[0].join(name), &dirs[2].join(name));
    }
    fs::remove_dir_all(&root).unwrap();
}
