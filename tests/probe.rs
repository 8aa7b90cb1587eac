//! Observability guarantees (ISSUE 7 acceptance criteria):
//!
//! * observation is not identity: attaching an event sink and enabling the profiler
//!   changes no table byte and no cell output, for every coordinator kind;
//! * the event log's deterministic fields are byte-stable across worker counts once the
//!   wall-clock fields ([`WALL_CLOCK_FIELDS`]) are stripped;
//! * a panicking cell still emits a `cell_panicked` event and fails only its own cell;
//! * with profiling on, a cell's phase totals account for its recorded wall-clock to
//!   within 10%; with profiling off, cells carry no profile;
//! * a cell reused within a run emits one `cell_reused` event naming the experiment
//!   that simulated it, and `results events` counts those next to store hits.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use athena_repro::engine::json::Json;
use athena_repro::engine::{
    default_athena_config, set_profiling, EVENTS_SCHEMA_ID, WALL_CLOCK_FIELDS,
};
use athena_repro::harness::experiments::run_experiment;
use athena_repro::prelude::*;

mod common;

use common::{events_of_kind, run_bin, text};

/// The profiler switch is process-global, so every test in this binary serialises on one
/// gate (and restores the switch before releasing it).
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_log(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "athena-probe-it-{}-{tag}.jsonl",
        std::process::id()
    ))
}

fn cd1() -> SystemConfig {
    SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet)
}

fn jobs_for(kind: &CoordinatorKind) -> Vec<Job> {
    all_workloads()
        .into_iter()
        .take(2)
        .map(|spec| Job::single("probe-test", spec, cd1(), kind.clone(), 5_000))
        .collect()
}

fn tiny() -> RunOptions {
    RunOptions {
        instructions: 6_000,
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

/// Every line of the log with the wall-clock fields removed, re-serialised compactly.
fn stripped_lines(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("event log readable");
    let mut out = String::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let mut doc = Json::parse(line).expect("event line parses as JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(EVENTS_SCHEMA_ID),
            "every line leads with the schema id"
        );
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| !WALL_CLOCK_FIELDS.contains(&k.as_str()));
        }
        out.push_str(&doc.to_string());
        out.push('\n');
    }
    out
}

#[test]
fn observation_changes_no_cell_output_for_any_coordinator() {
    let _gate = gate();
    let kinds = [
        CoordinatorKind::Baseline,
        CoordinatorKind::OcpOnly,
        CoordinatorKind::PrefetchersOnly,
        CoordinatorKind::Naive,
        CoordinatorKind::Fixed {
            ocp: true,
            prefetchers: false,
        },
        CoordinatorKind::Hpac,
        CoordinatorKind::Mab,
        CoordinatorKind::Tlp,
        CoordinatorKind::Athena,
        CoordinatorKind::AthenaWith(default_athena_config()),
    ];
    for kind in &kinds {
        let plain = Engine::new(2).run(jobs_for(kind));

        let path = temp_log("identity");
        let sink = ProbeSink::create(&path).expect("sink created");
        set_profiling(true);
        let observed = Engine::new(2).with_probe(Some(sink)).run(jobs_for(kind));
        set_profiling(false);
        std::fs::remove_file(&path).ok();

        for (p, o) in plain.iter().zip(&observed) {
            assert_eq!(p.label, o.label, "{kind:?}: cell order changed");
            assert_eq!(p.seed, o.seed, "{kind:?}: {} seed changed", p.label);
            assert_eq!(p.output, o.output, "{kind:?}: {} output changed", p.label);
            assert!(
                p.profile.is_none(),
                "{kind:?}: profile attached with profiling off"
            );
            assert!(
                o.profile.is_some(),
                "{kind:?}: no profile attached with profiling on"
            );
        }
    }
}

#[test]
fn observed_tables_are_byte_identical_to_plain_runs() {
    let _gate = gate();
    let plain = run_experiment("fig7", &tiny()).expect("fig7");

    let path = temp_log("tables");
    let mut opts = tiny();
    opts.probe = Some(ProbeSink::create(&path).expect("sink created"));
    set_profiling(true);
    let observed = run_experiment("fig7", &opts).expect("fig7");
    set_profiling(false);
    std::fs::remove_file(&path).ok();

    assert_eq!(plain, observed, "fig7 tables diverged under observation");
    assert_eq!(
        plain.to_csv(),
        observed.to_csv(),
        "fig7 CSV bytes diverged under observation"
    );
}

#[test]
fn event_logs_are_byte_stable_across_worker_counts_modulo_wall_clock() {
    let _gate = gate();
    let serial_path = temp_log("jobs1");
    let parallel_path = temp_log("jobs4");

    let mut opts = tiny().with_jobs(1);
    opts.probe = Some(ProbeSink::create(&serial_path).expect("sink created"));
    run_experiment("fig7", &opts).expect("fig7");

    let mut opts = tiny().with_jobs(4);
    opts.probe = Some(ProbeSink::create(&parallel_path).expect("sink created"));
    run_experiment("fig7", &opts).expect("fig7");

    let serial = stripped_lines(&serial_path);
    let parallel = stripped_lines(&parallel_path);
    std::fs::remove_file(&serial_path).ok();
    std::fs::remove_file(&parallel_path).ok();

    assert!(!serial.is_empty(), "the run emitted events");
    assert_eq!(
        serial, parallel,
        "deterministic event fields diverged between --jobs 1 and --jobs 4"
    );
}

#[test]
fn a_panicking_cell_still_emits_its_event_and_fails_alone() {
    let _gate = gate();
    let path = temp_log("panic");
    let sink = ProbeSink::create(&path).expect("sink created");

    let spec = all_workloads().into_iter().next().expect("a workload");
    let good = Job::single("probe-test", spec, cd1(), CoordinatorKind::Baseline, 5_000);
    let bad = Job::from_file(
        "probe-test",
        "missing",
        "/nonexistent/athena-probe-test.trace",
        cd1(),
        CoordinatorKind::Baseline,
        5_000,
    );
    let results = Engine::new(2).with_probe(Some(sink)).run(vec![good, bad]);
    assert_eq!(results.len(), 2);
    assert!(results[0].output.is_ok(), "healthy cell completed");
    let error = results[1].output.as_ref().expect_err("bad trace panics");
    assert!(error.contains("cannot replay trace"), "got: {error}");

    let text = std::fs::read_to_string(&path).expect("event log readable");
    std::fs::remove_file(&path).ok();
    assert!(
        text.lines()
            .any(|l| l.contains("\"kind\":\"cell_panicked\"") && l.contains("missing")),
        "no cell_panicked event for the failed cell:\n{text}"
    );
    assert!(
        text.lines()
            .any(|l| l.contains("\"kind\":\"cell_finished\"")),
        "no cell_finished event for the healthy cell:\n{text}"
    );
}

#[test]
fn phase_totals_account_for_cell_wall_clock() {
    let _gate = gate();
    set_profiling(true);
    // Four workers on purpose: an oversubscribed pool is the case where a worker sits
    // descheduled between claiming a job and starting it. The cell wall-clock is measured
    // co-extensively with the `dispatch` root span (not around the pool closure), so
    // coverage must hold even when cells queue — this regressed once, to coverage < 0.1
    // on a single-CPU host, when the wall included the queueing delay.
    let jobs: Vec<Job> = all_workloads()
        .into_iter()
        .take(6)
        .map(|spec| Job::single("probe-test", spec, cd1(), CoordinatorKind::Athena, 30_000))
        .collect();
    let results = Engine::new(4).run(jobs);
    set_profiling(false);

    for cell in &results {
        let profile = cell.profile.expect("profiling was on");
        assert!(!profile.is_empty(), "{}: empty profile", cell.label);
        let coverage = profile.total_nanos() as f64 / (cell.wall.as_nanos() as f64).max(1.0);
        assert!(
            (coverage - 1.0).abs() <= 0.10,
            "{}: phase totals cover {:.1}% of the cell's wall-clock (want within 10%)",
            cell.label,
            coverage * 100.0
        );
    }
}

#[test]
fn results_events_counts_reused_cells_next_to_store_hits() {
    const FIGS: [&str; 3] = ["fig7", "fig8a", "fig8b"];
    let _gate = gate();
    let log = temp_log("reuse");
    let store_dir = std::env::temp_dir().join(format!(
        "athena-probe-it-{}-reuse-store",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let sink = ProbeSink::create(&log).expect("sink created");
    let observed = || RunOptions {
        probe: Some(sink.clone()),
        store: Some(StoreHandle::open(&store_dir, StorePolicy::ReadWrite).expect("store")),
        ..tiny()
    };
    // One run of three experiments that share cells, then a warm rerun of the last.
    let run = observed();
    for fig in FIGS {
        run_experiment(fig, &run).expect("experiment exists");
    }
    drop(run);
    run_experiment("fig8b", &observed()).expect("fig8b");
    drop(sink);

    let lines: Vec<String> = std::fs::read_to_string(&log)
        .expect("event log readable")
        .lines()
        .map(str::to_string)
        .collect();
    let count = |kind| events_of_kind(&lines, kind).len();
    let (hits, reused, scheduled) = (
        count("cell_store_hit"),
        count("cell_reused"),
        count("cell_scheduled"),
    );
    assert!(hits > 0 && reused > 0, "{hits} store hits, {reused} reused");
    // A reused cell is neither scheduled nor started: only simulated cells finish.
    assert_eq!(count("cell_started"), scheduled);
    assert_eq!(count("cell_finished"), scheduled);
    for line in events_of_kind(&lines, "cell_reused") {
        let source = line.get("source").and_then(Json::as_str).expect("a source");
        assert!(
            FIGS.contains(&source),
            "source {source} is an experiment of the run"
        );
    }

    let log_arg = log.to_str().unwrap();
    let json = run_bin("results", &["events", log_arg, "--json"], &[]);
    assert!(json.status.success(), "{}", text(&json.stderr));
    let doc = Json::parse(&text(&json.stdout)).expect("results events --json parses");
    let field = |name: &str| doc.get(name).and_then(Json::as_f64).unwrap_or(-1.0) as usize;
    assert_eq!(field("store_hits"), hits);
    assert_eq!(field("reused"), reused);
    assert_eq!(field("cells"), hits + reused + scheduled);

    let plain = run_bin("results", &["events", log_arg], &[]);
    assert!(plain.status.success());
    let summary = text(&plain.stdout);
    assert!(
        summary.contains(&format!("{hits} served from the store"))
            && summary.contains(&format!("{reused} reused within the run")),
        "text mode counts reused cells next to store hits:\n{summary}"
    );
    std::fs::remove_file(&log).unwrap();
    std::fs::remove_dir_all(&store_dir).unwrap();
}
