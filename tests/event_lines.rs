//! The event-log line format, pinned byte for byte.
//!
//! Every `Event` variant is emitted once through a buffered `ProbeSink` with fixed
//! values: a label that needs every kind of escape (a quote, a backslash, a newline and
//! a control byte), a worker origin, a two-phase profile and a seed with leading zero
//! nibbles. Only the trailing wall-clock `t_ms` field differs between runs, so it is
//! stripped and the rest of each line is compared with a literal. Readers of event logs
//! (`results events`, `results trace`, the determinism tests) depend on these bytes.

use athena_repro::engine::{CellOrigin, Event, Phase, PhaseProfile, ProbeSink};

const LABEL: &str = "w\"q\\b\nl\u{1}/athena";
const SEED: u64 = 0x0000_00ab_cdef_0123;

fn events() -> Vec<Event> {
    let mut profile = PhaseProfile::new();
    profile.record(Phase::CoreStep, 500);
    profile.add(Phase::Dispatch, 2, 1_500);
    let origin = Some(CellOrigin {
        worker: 3,
        pid: 4242,
    });
    vec![
        Event::BatchOpened {
            experiment: "fig7".into(),
            cells: 12,
        },
        Event::StoreFetch { hits: 4, misses: 8 },
        Event::CellStoreHit {
            experiment: "fig7".into(),
            label: LABEL.into(),
            seed: SEED,
        },
        Event::CellReused {
            experiment: "fig8a".into(),
            label: LABEL.into(),
            seed: SEED,
            source: "fig\t7".into(),
        },
        Event::CellScheduled {
            experiment: "fig7".into(),
            label: LABEL.into(),
            seed: SEED,
        },
        Event::CellStarted {
            experiment: "fig7".into(),
            label: LABEL.into(),
            origin,
        },
        Event::CellFinished {
            experiment: "fig7".into(),
            label: LABEL.into(),
            wall_ms: 12.5,
            profile: Some(profile),
            origin,
        },
        Event::CellPanicked {
            experiment: "fig7".into(),
            label: LABEL.into(),
            error: "boom\r\n\"quoted\"".into(),
            origin: None,
        },
        Event::StorePersist { cells: 8 },
        Event::ReportWritten {
            path: "results\\fig7.csv".into(),
            bytes: 2_048,
        },
        Event::WorkerJoined {
            worker: 1,
            pid: 31_337,
        },
        Event::ShardDispatched {
            worker: 1,
            cells: 6,
            bytes: 9_001,
        },
        Event::WorkerDied {
            worker: 1,
            outstanding: 2,
            error: "EOF\u{1f}".into(),
        },
        Event::CellReassigned {
            experiment: "fig7".into(),
            label: LABEL.into(),
            from_worker: 1,
            to_worker: 2,
        },
    ]
}

const EXPECTED: [&str; 14] = [
    r#"{"schema":"athena-events-v1","kind":"batch_opened","experiment":"fig7","cells":12"#,
    r#"{"schema":"athena-events-v1","kind":"store_fetch","hits":4,"misses":8"#,
    r#"{"schema":"athena-events-v1","kind":"cell_store_hit","experiment":"fig7","label":"w\"q\\b\nl\u0001/athena","seed":"0x000000abcdef0123""#,
    r#"{"schema":"athena-events-v1","kind":"cell_reused","experiment":"fig8a","label":"w\"q\\b\nl\u0001/athena","seed":"0x000000abcdef0123","source":"fig\t7""#,
    r#"{"schema":"athena-events-v1","kind":"cell_scheduled","experiment":"fig7","label":"w\"q\\b\nl\u0001/athena","seed":"0x000000abcdef0123""#,
    r#"{"schema":"athena-events-v1","kind":"cell_started","experiment":"fig7","label":"w\"q\\b\nl\u0001/athena","worker":3,"pid":4242"#,
    r#"{"schema":"athena-events-v1","kind":"cell_finished","experiment":"fig7","label":"w\"q\\b\nl\u0001/athena","wall_ms":12.5,"profile":{"phases":{"core_step":{"calls":1,"nanos":500},"dispatch":{"calls":2,"nanos":1500}},"total_nanos":2000},"worker":3,"pid":4242"#,
    r#"{"schema":"athena-events-v1","kind":"cell_panicked","experiment":"fig7","label":"w\"q\\b\nl\u0001/athena","error":"boom\r\n\"quoted\"""#,
    r#"{"schema":"athena-events-v1","kind":"store_persist","cells":8"#,
    r#"{"schema":"athena-events-v1","kind":"report_written","path":"results\\fig7.csv","bytes":2048"#,
    r#"{"schema":"athena-events-v1","kind":"worker_joined","worker":1,"pid":31337"#,
    r#"{"schema":"athena-events-v1","kind":"shard_dispatched","worker":1,"cells":6,"bytes":9001"#,
    r#"{"schema":"athena-events-v1","kind":"worker_died","error":"EOF\u001f","worker":1,"outstanding":2"#,
    r#"{"schema":"athena-events-v1","kind":"cell_reassigned","experiment":"fig7","label":"w\"q\\b\nl\u0001/athena","from_worker":1,"to_worker":2"#,
];

/// Splits a line into everything before its trailing `,"t_ms":<number>}` and the
/// number, failing when the line does not end that way.
fn strip_t_ms(line: &str) -> (&str, f64) {
    let at = line
        .rfind(",\"t_ms\":")
        .unwrap_or_else(|| panic!("no trailing t_ms field: {line}"));
    let value = line[at + ",\"t_ms\":".len()..]
        .strip_suffix('}')
        .unwrap_or_else(|| panic!("line does not end after t_ms: {line}"));
    let t_ms = value
        .parse()
        .unwrap_or_else(|e| panic!("t_ms '{value}' is not a number ({e}): {line}"));
    (&line[..at], t_ms)
}

#[test]
fn every_event_variant_renders_its_pinned_line() {
    let sink = ProbeSink::buffered();
    let events = events();
    for event in &events {
        sink.emit(event);
    }
    let lines = sink.take_lines();
    assert_eq!(lines.len(), EXPECTED.len(), "one line per event");
    let mut last_t_ms = 0.0;
    for ((event, line), expected) in events.iter().zip(&lines).zip(EXPECTED) {
        let (fields, t_ms) = strip_t_ms(line);
        assert_eq!(fields, expected, "{} line changed", event.kind());
        assert!(
            t_ms >= last_t_ms,
            "t_ms runs forward: {t_ms} after {last_t_ms}"
        );
        last_t_ms = t_ms;
    }
}
