//! Distributed-run observability acceptance tests (ISSUE 10):
//!
//! * every cell simulated on a worker shows up in the coordinator's event log as exactly
//!   one worker-attributed `cell_started`/`cell_finished` pair — observation composes
//!   with distribution, and observation is still not identity (table bytes survive);
//! * the event log's deterministic fields are byte-stable across in-process execution
//!   and any worker count, once wall-clock and worker-attribution fields are stripped
//!   and pool-topology lines are dropped;
//! * phase profiles cross the process boundary: `--profile --workers N` attaches a
//!   non-empty profile to every distributed cell, and each `cell_finished` line carries
//!   exactly the wall-clock and profile of its cell's result;
//! * a cell crosses the pipe once: a one-worker batch of N cells costs the coordinator
//!   the worker's `HELLO`, N `RESULT` frames and its `DONE`, nothing more;
//! * workers live as long as their pool: one pool running two batches spawns each worker
//!   once and runs both batches' cells on the same processes, and dropping the pool's
//!   last clone reaps every worker;
//! * a SIGKILLed worker never corrupts the log — after recovery every line still parses
//!   and every cell still has exactly one pair;
//! * the `results trace` exporter turns a distributed log into valid Chrome
//!   `trace_event` JSON with one process row per worker, and `results events` /
//!   `results metrics` speak the distributed vocabulary.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use athena_repro::engine::codec::Codec;
use athena_repro::engine::json::Json;
use athena_repro::engine::{
    metrics, set_profiling, DistPool, Engine, Job, WorkerCommand, EVENTS_SCHEMA_ID,
    TOPOLOGY_EVENT_KINDS, WALL_CLOCK_FIELDS, WORKER_ATTRIBUTION_FIELDS,
};
use athena_repro::harness::experiments::run_experiment;
use athena_repro::prelude::*;

mod common;

use common::{event_u64, events_of_kind, harness_bin, process_exists, run_bin, temp_dir, text};

/// The profiler switch is process-global and worker pools compete for cores, so every
/// test in this binary serialises on one gate.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    }
}

fn pool(workers: usize) -> DistPool {
    DistPool::new(
        WorkerCommand::new(harness_bin("figures"), &["--worker"]),
        workers,
    )
}

fn jobs() -> Vec<Job> {
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    all_workloads()
        .into_iter()
        .take(4)
        .map(|spec| {
            Job::single(
                "dist-probe",
                spec,
                config.clone(),
                CoordinatorKind::Athena,
                6_000,
            )
        })
        .collect()
}

/// Parses every log line, asserting the schema id, and returns the parsed documents.
fn parsed_lines(path: &Path) -> Vec<Json> {
    let log = fs::read_to_string(path).expect("event log readable");
    log.lines()
        .filter(|l| !l.is_empty())
        .map(|line| {
            let doc = Json::parse(line).unwrap_or_else(|e| panic!("corrupt line {line:?}: {e}"));
            assert_eq!(
                doc.get("schema").and_then(Json::as_str),
                Some(EVENTS_SCHEMA_ID),
                "every line leads with the schema id: {line}"
            );
            doc
        })
        .collect()
}

fn kind_of(doc: &Json) -> &str {
    doc.get("kind").and_then(Json::as_str).expect("a kind")
}

/// The log reduced to its deterministic skeleton: wall-clock and worker-attribution
/// fields stripped, pool-topology lines dropped.
fn deterministic_skeleton(path: &Path) -> String {
    let mut out = String::new();
    for mut doc in parsed_lines(path) {
        if TOPOLOGY_EVENT_KINDS.contains(&kind_of(&doc)) {
            continue;
        }
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| {
                !WALL_CLOCK_FIELDS.contains(&k.as_str())
                    && !WORKER_ATTRIBUTION_FIELDS.contains(&k.as_str())
            });
        }
        out.push_str(&doc.to_string());
        out.push('\n');
    }
    out
}

/// Runs the fixed job set on a 2-worker pool with an event sink (and optionally the
/// profiler) and returns the results plus the log path inside `dir`.
fn distributed_run(dir: &Path, profile: bool) -> (Vec<CellResult>, PathBuf) {
    let events = dir.join("events.jsonl");
    let sink = ProbeSink::create(&events).expect("event sink");
    set_profiling(profile);
    let results = Engine::new(2)
        .with_dist(Some(pool(2)))
        .with_probe(Some(sink))
        .run(jobs());
    set_profiling(false);
    (results, events)
}

#[test]
fn every_distributed_cell_logs_one_attributed_started_finished_pair() {
    let _gate = gate();
    let dir = temp_dir("pairs");
    let serial: Vec<_> = Engine::new(1).run(jobs());
    let (results, events) = distributed_run(&dir, false);

    // Observation is not identity, distributed or not.
    assert_eq!(results.len(), serial.len());
    for (got, want) in results.iter().zip(&serial) {
        assert_eq!(got.label, want.label, "cell order changed");
        assert_eq!(got.output, want.output, "{}: output changed", got.label);
    }

    let lines = parsed_lines(&events);
    for cell in &results {
        for kind in ["cell_started", "cell_finished"] {
            let matching: Vec<_> = lines
                .iter()
                .filter(|doc| {
                    kind_of(doc) == kind
                        && doc.get("label").and_then(Json::as_str) == Some(&cell.label)
                })
                .collect();
            assert_eq!(
                matching.len(),
                1,
                "{}: want exactly one {kind} event, got {}",
                cell.label,
                matching.len()
            );
            let doc = matching[0];
            assert!(
                doc.get("worker").and_then(Json::as_f64).is_some(),
                "{}: {kind} carries no worker attribution",
                cell.label
            );
            assert!(
                doc.get("pid").and_then(Json::as_f64).is_some(),
                "{}: {kind} carries no worker pid",
                cell.label
            );
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn event_logs_are_stable_across_in_process_and_any_worker_count() {
    let _gate = gate();
    let dir = temp_dir("stability");
    let mut skeletons = Vec::new();
    for (tag, workers) in [("inproc", None), ("w1", Some(1)), ("w4", Some(4))] {
        let events = dir.join(format!("{tag}.jsonl"));
        let mut run = opts();
        run.dist = workers.map(pool);
        run.probe = Some(ProbeSink::create(&events).expect("event sink"));
        run_experiment("fig7", &run).expect("fig7 exists");
        drop(run); // close the sink before reading the log
        skeletons.push((tag, deterministic_skeleton(&events)));
    }
    let (_, reference) = &skeletons[0];
    assert!(!reference.is_empty(), "the run emitted events");
    for (tag, skeleton) in &skeletons[1..] {
        assert_eq!(
            skeleton, reference,
            "deterministic event fields diverged between in-process and {tag}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn phase_profiles_cross_the_process_boundary() {
    let _gate = gate();
    let dir = temp_dir("profiles");
    let (results, events) = distributed_run(&dir, true);

    for cell in &results {
        let profile = cell.profile.expect("profiling was on across the wire");
        assert!(!profile.is_empty(), "{}: empty remote profile", cell.label);
        assert!(
            cell.origin.is_some(),
            "{}: a distributed cell must carry its origin",
            cell.label
        );
    }
    let finished: Vec<_> = parsed_lines(&events)
        .into_iter()
        .filter(|doc| kind_of(doc) == "cell_finished")
        .collect();
    assert_eq!(finished.len(), results.len(), "one cell_finished per cell");
    for doc in &finished {
        assert!(
            doc.get("profile").and_then(|p| p.get("phases")).is_some(),
            "cell_finished line without the cell's profile: {}",
            doc
        );
        // The line tells the same story as the result it was built from.
        let label = doc.get("label").and_then(Json::as_str).expect("a label");
        let cell = results
            .iter()
            .find(|c| c.label == label)
            .expect("every cell_finished line names a cell of the batch");
        assert_eq!(
            doc.get("wall_ms").and_then(Json::as_f64),
            Some(cell.wall.as_secs_f64() * 1e3),
            "{label}: the logged wall_ms is not the result's wall"
        );
        let logged = PhaseProfile::decode(doc.get("profile").unwrap())
            .unwrap_or_else(|e| panic!("{label}: undecodable logged profile: {e}"));
        assert_eq!(
            Some(logged),
            cell.profile,
            "{label}: the logged profile is not the result's profile"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_distributed_cell_crosses_the_pipe_once() {
    let _gate = gate();
    let jobs = jobs();
    let before = metrics().frames_received.get();
    let cells = pool(1).run_jobs(None, false, &jobs);
    let received = metrics().frames_received.get() - before;
    assert_eq!(cells.len(), jobs.len());
    assert!(
        jobs.len() >= 2,
        "the bound only means something for a multi-cell batch"
    );
    assert!(
        received <= jobs.len() as u64 + 2,
        "{received} frames for {} cells: want at most HELLO + one RESULT per cell + DONE",
        jobs.len()
    );
}

/// The pids of the given kind of line in a buffered sink's log.
fn pids_of(lines: &[String], kind: &str) -> Vec<u64> {
    events_of_kind(lines, kind)
        .iter()
        .map(|doc| event_u64(doc, "pid"))
        .collect()
}

#[test]
fn one_pool_runs_every_batch_on_the_same_workers() {
    let _gate = gate();
    let sink = ProbeSink::buffered();
    let engine = Engine::new(2)
        .with_dist(Some(pool(2)))
        .with_probe(Some(sink.clone()));
    let first = engine.run(jobs());
    let first_log = sink.take_lines();
    // A second engine from a clone of the pool, as each batch of an options set gets.
    let second = engine.clone().run(jobs());
    let second_log = sink.take_lines();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.output, b.output,
            "{}: a reused worker changed a cell",
            a.label
        );
    }

    let joined = pids_of(&first_log, "worker_joined");
    assert_eq!(
        joined.len(),
        2,
        "the first batch spawns the pool's two workers"
    );
    assert!(
        pids_of(&second_log, "worker_joined").is_empty(),
        "the second batch spawns nothing: {second_log:?}"
    );
    let pids =
        |log: &[String]| -> BTreeSet<u64> { pids_of(log, "cell_started").into_iter().collect() };
    let expected: BTreeSet<u64> = joined.into_iter().collect();
    assert_eq!(
        pids(&first_log),
        expected,
        "the first batch ran on the spawned workers"
    );
    assert_eq!(
        pids(&second_log),
        expected,
        "the second batch ran on the same processes"
    );
}

#[test]
fn dropping_the_last_clone_of_a_pool_reaps_its_workers() {
    let _gate = gate();
    let pool = pool(2);
    let clone = pool.clone();
    let cells = pool.run_jobs(None, false, &jobs());
    let pids: BTreeSet<u64> = cells
        .iter()
        .map(|c| c.origin.expect("an origin").pid)
        .collect();
    assert_eq!(pids.len(), 2, "both workers ran cells");
    drop(pool);
    assert!(
        pids.iter().all(|&pid| process_exists(pid)),
        "a surviving clone keeps the workers alive"
    );
    drop(clone);
    for pid in pids {
        assert!(!process_exists(pid), "worker {pid} outlived its pool");
    }
}

#[test]
fn a_sigkilled_workers_partial_events_do_not_corrupt_the_log() {
    let _gate = gate();
    let dir = temp_dir("fault-log");
    let marker = dir.join("fault.marker");
    let events = dir.join("events.jsonl");

    let serial: Vec<_> = Engine::new(1).run(jobs());
    let command = WorkerCommand::new(harness_bin("figures"), &["--worker"])
        .with_env("ATHENA_DIST_FAULT_DIE", marker.to_str().unwrap());
    let sink = ProbeSink::create(&events).expect("event sink");
    let results = Engine::new(2)
        .with_dist(Some(DistPool::new(command, 2)))
        .with_probe(Some(sink))
        .run(jobs());

    assert!(marker.exists(), "the death fault must actually have fired");
    for (got, want) in results.iter().zip(&serial) {
        assert_eq!(
            got.output, want.output,
            "{}: recovery changed output",
            got.label
        );
    }
    // parsed_lines re-asserts that every surviving line is intact JSON with the schema;
    // cell events are built only when a cell's result merges, so each cell still has
    // exactly one started/finished pair even though some cells ran twice.
    let lines = parsed_lines(&events);
    assert!(
        lines.iter().any(|doc| kind_of(doc) == "worker_died"),
        "the death must be observable"
    );
    for cell in &results {
        for kind in ["cell_started", "cell_finished"] {
            let count = lines
                .iter()
                .filter(|doc| {
                    kind_of(doc) == kind
                        && doc.get("label").and_then(Json::as_str) == Some(&cell.label)
                })
                .count();
            assert_eq!(count, 1, "{}: {kind} seen {count} times", cell.label);
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn results_trace_exports_one_process_row_per_worker() {
    let _gate = gate();
    let dir = temp_dir("trace");
    let (_, events) = distributed_run(&dir, true);

    let out = dir.join("trace.json");
    let output = run_bin(
        "results",
        &[
            "trace",
            events.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ],
        &[],
    );
    assert!(
        output.status.success(),
        "results trace failed: {}",
        text(&output.stderr)
    );
    let doc = Json::parse(&fs::read_to_string(&out).expect("trace written"))
        .expect("trace.json is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let trace_events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("a traceEvents array");
    assert!(!trace_events.is_empty());

    let mut process_rows = Vec::new();
    let mut cell_spans = 0usize;
    let mut phase_slices = 0usize;
    for event in trace_events {
        let ph = event.get("ph").and_then(Json::as_str).unwrap_or("");
        let cat = event.get("cat").and_then(Json::as_str).unwrap_or("");
        let name = event.get("name").and_then(Json::as_str).unwrap_or("");
        if ph == "M" && name == "process_name" {
            process_rows.push(event.get("pid").and_then(Json::as_f64).unwrap() as usize);
        }
        cell_spans += usize::from(ph == "X" && cat == "cell");
        phase_slices += usize::from(ph == "X" && cat == "phase");
    }
    assert!(
        process_rows.contains(&1) && process_rows.contains(&2),
        "want a process row per worker, got pids {process_rows:?}"
    );
    assert_eq!(cell_spans, jobs().len(), "one span per simulated cell");
    assert!(phase_slices > 0, "profiled cells export phase child slices");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn results_events_speaks_the_distributed_vocabulary() {
    let _gate = gate();
    let dir = temp_dir("events-cli");
    let (_, events) = distributed_run(&dir, false);

    let output = run_bin(
        "results",
        &["events", events.to_str().unwrap(), "--json"],
        &[],
    );
    assert!(
        output.status.success(),
        "results events failed: {}",
        text(&output.stderr)
    );
    let doc = Json::parse(&text(&output.stdout)).expect("results events --json parses");
    let dist = doc
        .get("distributed")
        .expect("a distributed section for a distributed log");
    let workers = dist
        .get("workers")
        .and_then(Json::as_array)
        .expect("per-worker event counts");
    assert_eq!(workers.len(), 2, "both workers appear");
    assert!(
        dist.get("shard_frames")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 2.0,
        "each worker received at least one shard"
    );

    let plain = run_bin("results", &["events", events.to_str().unwrap()], &[]);
    assert!(plain.status.success());
    assert!(
        text(&plain.stdout).contains("distributed: cell events by worker"),
        "text mode mentions the per-worker breakdown:\n{}",
        text(&plain.stdout)
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn results_metrics_reads_bare_and_embedded_snapshots() {
    let _gate = gate();
    let dir = temp_dir("metrics-cli");
    // A real snapshot from this process: run a couple of cells so counters are non-zero.
    Engine::new(2).run(jobs());
    let snapshot = athena_repro::engine::report::metrics_snapshot_json(
        &athena_repro::engine::metrics().snapshot(),
    );

    let bare = dir.join("metrics.json");
    fs::write(&bare, snapshot.to_pretty()).unwrap();
    let embedded = dir.join("report.json");
    fs::write(
        &embedded,
        Json::obj(vec![("metrics", snapshot.clone())]).to_pretty(),
    )
    .unwrap();

    for path in [&bare, &embedded] {
        let output = run_bin(
            "results",
            &["metrics", path.to_str().unwrap(), "--json"],
            &[],
        );
        assert!(
            output.status.success(),
            "results metrics {} failed: {}",
            path.display(),
            text(&output.stderr)
        );
        let doc = Json::parse(&text(&output.stdout)).expect("metrics --json parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("athena-metrics-v1")
        );
        assert!(
            doc.get("counters")
                .and_then(|c| c.get("cells_simulated"))
                .is_some(),
            "the snapshot carries its counters"
        );
    }
    let human = run_bin("results", &["metrics", bare.to_str().unwrap()], &[]);
    assert!(human.status.success());
    let stdout = text(&human.stdout);
    assert!(
        stdout.contains("counters:") && stdout.contains("cells_simulated"),
        "text mode lists the counters:\n{stdout}"
    );
    fs::remove_dir_all(&dir).unwrap();
}
