//! Distributed-execution fault-injection acceptance tests (ISSUE 9):
//!
//! * a worker SIGKILLed mid-shard: the coordinator notices, reassigns the dead worker's
//!   unfinished cells to a fresh process, emits `worker_died` / `cell_reassigned`
//!   events, and the final table is byte-identical to a serial run;
//! * a worker whose result frame is truncated mid-write: indistinguishable from death at
//!   the wire level, same recovery, same bytes;
//! * a worker that sends a corrupted frame (checksum mismatch): the coordinator fails
//!   loudly and merges nothing from it — a lying record is never retried around;
//! * a worker SIGKILLed while idle between batches: the next batch replaces it without
//!   charging any cell an attempt, and the table bytes survive;
//! * a run that failed on a corrupt frame leaves no worker behind: the same pool's next
//!   run starts from fresh processes and produces the serial bytes;
//! * a worker that panics on one cell: the panic travels back as that cell's error,
//!   exactly like an in-process panic, with no retry (the cell is deterministic — a
//!   second attempt would panic again).
//!
//! The faults are injected by the worker itself, armed through `ATHENA_DIST_FAULT_*`
//! environment variables on the spawned processes; a shared marker file makes each fault
//! fire exactly once per test even across respawns.

use std::fs;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use athena_repro::engine::{DistPool, Engine, Job, WorkerCommand};
use athena_repro::harness::experiments::run_experiment;
use athena_repro::prelude::*;

mod common;

use common::{event_u64, events_of_kind, harness_bin, process_exists, temp_dir};

fn opts() -> RunOptions {
    RunOptions {
        instructions: 8_000,
        workload_limit: Some(4),
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

/// A 2-worker pool running the real `figures --worker` binary with one fault armed.
fn faulty_pool(fault_var: &str, marker: &Path) -> DistPool {
    let command = WorkerCommand::new(harness_bin("figures"), &["--worker"])
        .with_env(fault_var, marker.to_str().unwrap());
    DistPool::new(command, 2)
}

fn fig7_csv(opts: &RunOptions) -> String {
    run_experiment("fig7", opts).expect("fig7 exists").to_csv()
}

/// Runs fig7 distributed with `fault_var` armed and asserts the table matches the serial
/// run byte-for-byte; returns the probe event log.
fn recovery_case(tag: &str, fault_var: &str) -> String {
    let dir = temp_dir(tag);
    let marker = dir.join("fault.marker");
    let events = dir.join("events.jsonl");

    let serial = fig7_csv(&opts());

    let mut distributed = opts();
    distributed.dist = Some(faulty_pool(fault_var, &marker));
    distributed.probe = Some(ProbeSink::create(&events).expect("event sink"));
    let table = fig7_csv(&distributed);
    drop(distributed); // close the sink before reading the log

    assert!(
        marker.exists(),
        "the {fault_var} fault must actually have fired"
    );
    assert_eq!(
        table, serial,
        "the recovered table must match the serial run byte-for-byte"
    );
    let log = fs::read_to_string(&events).expect("event log");
    fs::remove_dir_all(&dir).unwrap();
    log
}

#[test]
fn a_sigkilled_worker_is_reassigned_and_the_table_bytes_survive() {
    let log = recovery_case("kill", "ATHENA_DIST_FAULT_DIE");
    assert!(
        log.contains("\"kind\":\"worker_died\""),
        "the death must be observable: {log}"
    );
    assert!(
        log.contains("\"kind\":\"cell_reassigned\""),
        "the orphaned cells must be reassigned: {log}"
    );
}

#[test]
fn a_truncated_result_frame_reads_as_death_and_recovers_identically() {
    let log = recovery_case("truncate", "ATHENA_DIST_FAULT_TRUNCATE");
    assert!(
        log.contains("\"kind\":\"worker_died\""),
        "a cut frame is a dead worker: {log}"
    );
    assert!(log.contains("\"kind\":\"cell_reassigned\""), "{log}");
}

#[test]
fn a_corrupted_result_frame_fails_the_run_loudly() {
    let dir = temp_dir("corrupt");
    let marker = dir.join("fault.marker");

    let mut distributed = opts();
    distributed.dist = Some(faulty_pool("ATHENA_DIST_FAULT_CORRUPT", &marker));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_experiment("fig7", &distributed)
    }));
    let message = match outcome {
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".into()),
        Ok(_) => panic!("a checksum-failing frame must fail the run, not merge"),
    };
    assert!(
        message.contains("corrupt"),
        "the failure must say the frame was corrupt: {message}"
    );
    assert!(marker.exists(), "the corruption fault must have fired");
    fs::remove_dir_all(&dir).unwrap();
}

/// The `(worker id, pid)` of every `worker_joined` line, and the `outstanding` count of
/// every `worker_died` line, in a buffered sink's log.
fn topology(lines: &[String]) -> (Vec<(u64, u64)>, Vec<u64>) {
    let joined = events_of_kind(lines, "worker_joined")
        .iter()
        .map(|doc| (event_u64(doc, "worker"), event_u64(doc, "pid")))
        .collect();
    let died = events_of_kind(lines, "worker_died")
        .iter()
        .map(|doc| event_u64(doc, "outstanding"))
        .collect();
    (joined, died)
}

/// Whether `pid` has exited and waits to be reaped.
fn is_zombie(pid: u64) -> bool {
    fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|stat| {
            stat.rsplit(')')
                .next()
                .map(|rest| rest.trim_start().starts_with('Z'))
        })
        .unwrap_or(false)
}

#[test]
fn a_worker_killed_while_idle_is_replaced_without_charging_a_cell() {
    let serial = fig7_csv(&opts());
    let sink = ProbeSink::buffered();
    let command = WorkerCommand::new(harness_bin("figures"), &["--worker"]);
    let mut distributed = opts();
    distributed.dist = Some(DistPool::new(command, 2));
    distributed.probe = Some(sink.clone());

    assert_eq!(fig7_csv(&distributed), serial);
    let (joined, _) = topology(&sink.take_lines());
    assert_eq!(joined.len(), 2, "fig7 runs on the pool's two workers");
    let victim = joined[0].1;
    let status = Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !is_zombie(victim) {
        assert!(Instant::now() < deadline, "worker {victim} did not die");
        std::thread::sleep(Duration::from_millis(5));
    }

    assert_eq!(
        fig7_csv(&distributed),
        serial,
        "the rerun on a repaired pool must match the serial run byte-for-byte"
    );
    let log = sink.take_lines();
    let (rejoined, died) = topology(&log);
    assert_eq!(
        died,
        vec![0],
        "one idle death, with no cell outstanding: {log:?}"
    );
    assert_eq!(
        rejoined.len(),
        1,
        "exactly one replacement is spawned: {log:?}"
    );
    assert!(
        !log.iter()
            .any(|line| line.contains("\"kind\":\"cell_reassigned\"")),
        "an idle death reassigns nothing: {log:?}"
    );
    assert!(!process_exists(victim), "the dead worker was reaped");
}

#[test]
fn a_pool_starts_afresh_after_a_run_fails_on_corruption() {
    let dir = temp_dir("corrupt-then-clean");
    let marker = dir.join("fault.marker");
    let sink = ProbeSink::buffered();
    let mut distributed = opts();
    distributed.dist = Some(faulty_pool("ATHENA_DIST_FAULT_CORRUPT", &marker));
    distributed.probe = Some(sink.clone());

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_experiment("fig7", &distributed)
    }));
    assert!(outcome.is_err(), "the corrupt frame fails the run");
    assert!(marker.exists(), "the corruption fault must have fired");
    let (failed_workers, _) = topology(&sink.take_lines());
    assert!(!failed_workers.is_empty());
    for &(_, pid) in &failed_workers {
        assert!(
            !process_exists(pid),
            "worker {pid} survived the failed batch"
        );
    }

    // The fault fired once; the same pool's next run is clean, on new processes.
    assert_eq!(fig7_csv(&distributed), fig7_csv(&opts()));
    let (fresh, _) = topology(&sink.take_lines());
    assert_eq!(fresh.len(), 2, "the next run spawns a full set of workers");
    for (id, pid) in &fresh {
        assert!(
            failed_workers
                .iter()
                .all(|(old_id, old_pid)| old_id != id && old_pid != pid),
            "worker #{id} (pid {pid}) was carried over from the failed batch"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_worker_panicking_on_one_cell_fails_only_that_cell() {
    let dir = temp_dir("panic");
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let jobs: Vec<Job> = all_workloads()
        .into_iter()
        .take(3)
        .map(|spec| {
            Job::single(
                "dist-panic",
                spec,
                config.clone(),
                CoordinatorKind::Athena,
                6_000,
            )
        })
        .collect();
    let poisoned = jobs[1].label();
    let serial: Vec<_> = Engine::new(1).run(jobs.clone());

    let events = dir.join("events.jsonl");
    let command = WorkerCommand::new(harness_bin("figures"), &["--worker"])
        .with_env("ATHENA_DIST_FAULT_PANIC", &poisoned);
    let pool = DistPool::new(command, 2);
    let sink = ProbeSink::create(&events).expect("event sink");
    let results = Engine::new(2)
        .with_dist(Some(pool))
        .with_probe(Some(sink))
        .run(jobs);

    assert_eq!(results.len(), serial.len());
    for (got, want) in results.iter().zip(&serial) {
        if got.label == poisoned {
            let error = got.output.as_ref().expect_err("the poisoned cell fails");
            assert!(
                error.contains("injected worker fault"),
                "the panic message travels back verbatim: {error}"
            );
        } else {
            assert_eq!(
                got.output, want.output,
                "unrelated cells are untouched by a sibling's panic"
            );
        }
    }

    // A deterministic panic is not a worker failure: nothing is retried or reassigned.
    let log = fs::read_to_string(&events).expect("event log");
    assert!(
        !log.contains("\"kind\":\"worker_died\"") && !log.contains("\"kind\":\"cell_reassigned\""),
        "a per-cell panic must not look like a dead worker: {log}"
    );
    fs::remove_dir_all(&dir).unwrap();
}
