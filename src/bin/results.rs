//! The `results` CLI: inspect and maintain a persistent result store.
//!
//! ```text
//! cargo run --release --bin results -- stats --store results/store
//! cargo run --release --bin results -- query --store results/store --experiment fig7
//! cargo run --release --bin results -- diff --store a/ --against b/
//! cargo run --release --bin results -- gc --store results/store
//! cargo run --release --bin results -- verify --store results/store
//! cargo run --release --bin results -- events results/events.jsonl
//! cargo run --release --bin results -- trace results/events.jsonl --out trace.json
//! cargo run --release --bin results -- metrics results/fig7.json
//! ```
//!
//! Every store command except `gc` opens the store read-only and takes no writer lock,
//! so a running sweep can be inspected live. `verify` exits non-zero on any corruption,
//! a live record that does not decode included; `diff` exits non-zero when the two
//! stores disagree. Three commands read files instead
//! of a store: `events` summarises an event log written by `figures --events` /
//! `tune --events` — event counts by kind, the store cache-hit ratio, the slowest
//! simulated cells, and the per-worker breakdown of a distributed run; `trace` converts
//! such a log into Chrome `trace_event` JSON viewable in Perfetto (one process row per
//! distributed worker, cell spans with phase-profile child slices); `metrics` prints the
//! engine metrics snapshot embedded in a JSON report. Run `results --help` for the full
//! reference (also rendered into `docs/CLI.md`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use athena_engine::json::Json;
use athena_engine::report::METRICS_SCHEMA;
use athena_engine::{RecordEnvelope, RecordKey, StoreHandle, StorePolicy, EVENTS_SCHEMA_ID};
use athena_harness::cli::{fail, fail_env, open_store, RESULTS_HELP as HELP};

#[derive(PartialEq)]
enum Command {
    Stats,
    Query,
    Diff,
    Gc,
    Verify,
    Events,
    Trace,
    Metrics,
}

impl Command {
    /// Commands that read a file argument instead of opening a store.
    fn takes_file(&self) -> bool {
        matches!(self, Command::Events | Command::Trace | Command::Metrics)
    }
}

struct Args {
    command: Command,
    /// The store directory; empty (and unused) for the file commands.
    store: PathBuf,
    /// `events`/`trace`: the event log file; `metrics`: the JSON report file.
    events_file: PathBuf,
    /// `trace` only: the output path (default: `trace.json` next to the log).
    out: Option<PathBuf>,
    /// `diff` only: the second store.
    against: Option<PathBuf>,
    /// `query` filters (exact match on the record envelope's fields).
    experiment: Option<String>,
    workload: Option<String>,
    coordinator: Option<String>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut command = None;
    let mut store = None;
    let mut events_file = None;
    let mut out = None;
    let mut against = None;
    let mut experiment = None;
    let mut workload = None;
    let mut coordinator = None;
    let mut json = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            args.next().ok_or(format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "stats" if command.is_none() => command = Some(Command::Stats),
            "query" if command.is_none() => command = Some(Command::Query),
            "diff" if command.is_none() => command = Some(Command::Diff),
            "gc" if command.is_none() => command = Some(Command::Gc),
            "verify" if command.is_none() => command = Some(Command::Verify),
            "events" if command.is_none() => {
                command = Some(Command::Events);
                events_file = Some(PathBuf::from(
                    args.next()
                        .ok_or("events needs an event log file (results events <FILE>)")?,
                ));
            }
            "trace" if command.is_none() => {
                command = Some(Command::Trace);
                events_file = Some(PathBuf::from(
                    args.next()
                        .ok_or("trace needs an event log file (results trace <FILE>)")?,
                ));
            }
            "metrics" if command.is_none() => {
                command = Some(Command::Metrics);
                events_file = Some(PathBuf::from(
                    args.next()
                        .ok_or("metrics needs a JSON report file (results metrics <FILE>)")?,
                ));
            }
            "--store" => store = Some(PathBuf::from(value("--store")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--against" => against = Some(PathBuf::from(value("--against")?)),
            "--experiment" => experiment = Some(value("--experiment")?),
            "--workload" => workload = Some(value("--workload")?),
            "--coordinator" => coordinator = Some(value("--coordinator")?),
            "--json" => json = true,
            "--version" => {
                println!("results {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let command = command
        .ok_or("no command given (stats, query, diff, gc, verify, events, trace, metrics)")?;
    let store = match (command.takes_file(), store) {
        (true, Some(_)) => {
            return Err(
                "--store does not apply to events/trace/metrics (pass the file as the \
                 command's argument)"
                    .to_string(),
            )
        }
        (true, None) => PathBuf::new(),
        (false, Some(dir)) => dir,
        (false, None) => return Err("--store <DIR> is required".to_string()),
    };
    if command == Command::Diff && against.is_none() {
        return Err("diff needs --against <DIR>".to_string());
    }
    if command != Command::Diff && against.is_some() {
        return Err("--against only applies to diff".to_string());
    }
    if command != Command::Trace && out.is_some() {
        return Err("--out only applies to trace".to_string());
    }
    if command == Command::Trace && json {
        return Err("trace always writes JSON; --json does not apply".to_string());
    }
    if command != Command::Query
        && (experiment.is_some() || workload.is_some() || coordinator.is_some())
    {
        return Err("--experiment/--workload/--coordinator only apply to query".to_string());
    }
    Ok(Args {
        command,
        store,
        events_file: events_file.unwrap_or_default(),
        out,
        against,
        experiment,
        workload,
        coordinator,
        json,
    })
}

fn run_stats(args: &Args) {
    let handle = open_store(&args.store, StorePolicy::ReadOnly);
    let stats = handle.lock().stats();
    if args.json {
        let doc = Json::obj(vec![
            ("store", Json::str(args.store.display().to_string())),
            ("live_records", Json::int(stats.live_records as usize)),
            ("superseded_records", Json::int(stats.superseded() as usize)),
            ("total_records", Json::int(stats.total_records as usize)),
            ("log_bytes", Json::num(stats.log_bytes as f64)),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!(
            "{}: {} live records ({} superseded of {} total), {} log bytes",
            args.store.display(),
            stats.live_records,
            stats.superseded(),
            stats.total_records,
            stats.log_bytes
        );
    }
}

fn run_query(args: &Args) {
    let handle = open_store(&args.store, StorePolicy::ReadOnly);
    let mut store = handle.lock();
    let mut rows = Vec::new();
    for key in store.keys() {
        let payload = match store.get(key) {
            Ok(Some(p)) => p,
            Ok(None) => continue,
            Err(e) => fail_env(format!("result store {}: {e}", args.store.display())),
        };
        let env = RecordEnvelope::decode(&payload).unwrap_or_else(|e| {
            fail_env(format!(
                "result store {}: record {:016x}.{:016x}: {e}",
                args.store.display(),
                key.identity,
                key.variant
            ))
        });
        if args
            .experiment
            .as_deref()
            .is_some_and(|f| f != env.experiment)
            || args.workload.as_deref().is_some_and(|f| f != env.workload)
            || args
                .coordinator
                .as_deref()
                .is_some_and(|f| f != env.coordinator)
        {
            continue;
        }
        rows.push((key, env));
    }
    if args.json {
        let doc = Json::obj(vec![
            ("store", Json::str(args.store.display().to_string())),
            ("records", Json::int(rows.len())),
            (
                "entries",
                Json::arr(
                    rows.iter()
                        .map(|(key, env)| {
                            Json::obj(vec![
                                ("identity", Json::hex(key.identity)),
                                ("variant", Json::hex(key.variant)),
                                ("experiment", Json::str(&env.experiment)),
                                ("workload", Json::str(&env.workload)),
                                ("coordinator", Json::str(&env.coordinator)),
                                ("label", Json::str(&env.label)),
                                ("instructions", Json::hex(env.instructions)),
                                ("seed", Json::hex(env.seed)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        for (key, env) in &rows {
            println!(
                "{:016x}.{:016x}  {}  {}  {}  {}",
                key.identity, key.variant, env.experiment, env.workload, env.coordinator, env.label
            );
        }
        println!("{} records", rows.len());
    }
}

fn run_diff(args: &Args) {
    let b_dir = args.against.as_ref().expect("diff always has --against");
    let a_handle = open_store(&args.store, StorePolicy::ReadOnly);
    let b_handle = open_store(b_dir, StorePolicy::ReadOnly);
    let mut a = a_handle.lock();
    let mut b = b_handle.lock();
    let fetch = |store: &mut athena_engine::ResultStore, dir: &std::path::Path, key: RecordKey| {
        store.get(key).unwrap_or_else(|e| {
            fail_env(format!(
                "result store {}: record {:016x}.{:016x}: {e}",
                dir.display(),
                key.identity,
                key.variant
            ))
        })
    };
    let mut only_a = Vec::new();
    let mut only_b = Vec::new();
    let mut differ = Vec::new();
    let mut matching = 0usize;
    for key in a.keys() {
        match fetch(&mut b, b_dir, key) {
            None => only_a.push(key),
            Some(theirs) => {
                let ours = fetch(&mut a, &args.store, key).expect("key listed by the store");
                if ours == theirs {
                    matching += 1;
                } else {
                    differ.push(key);
                }
            }
        }
    }
    for key in b.keys() {
        if fetch(&mut a, &args.store, key).is_none() {
            only_b.push(key);
        }
    }
    let key_list = |keys: &[RecordKey]| {
        Json::arr(
            keys.iter()
                .map(|k| Json::str(format!("{:016x}.{:016x}", k.identity, k.variant)))
                .collect(),
        )
    };
    if args.json {
        let doc = Json::obj(vec![
            ("store", Json::str(args.store.display().to_string())),
            ("against", Json::str(b_dir.display().to_string())),
            ("matching", Json::int(matching)),
            ("only_store", key_list(&only_a)),
            ("only_against", key_list(&only_b)),
            ("differing", key_list(&differ)),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        for key in &only_a {
            println!(
                "only {}: {:016x}.{:016x}",
                args.store.display(),
                key.identity,
                key.variant
            );
        }
        for key in &only_b {
            println!(
                "only {}: {:016x}.{:016x}",
                b_dir.display(),
                key.identity,
                key.variant
            );
        }
        for key in &differ {
            println!(
                "payloads differ: {:016x}.{:016x}",
                key.identity, key.variant
            );
        }
        println!(
            "{} matching, {} only in {}, {} only in {}, {} differing",
            matching,
            only_a.len(),
            args.store.display(),
            only_b.len(),
            b_dir.display(),
            differ.len()
        );
    }
    if !(only_a.is_empty() && only_b.is_empty() && differ.is_empty()) {
        std::process::exit(1);
    }
}

fn run_gc(args: &Args) {
    let handle = open_store(&args.store, StorePolicy::ReadWrite);
    let report = match handle.lock().gc() {
        Ok(r) => r,
        Err(e) => fail_env(format!(
            "result store {}: gc failed: {e}",
            args.store.display()
        )),
    };
    if args.json {
        let doc = Json::obj(vec![
            ("store", Json::str(args.store.display().to_string())),
            ("kept", Json::int(report.kept as usize)),
            ("dropped", Json::int(report.dropped as usize)),
            ("bytes_before", Json::num(report.bytes_before as f64)),
            ("bytes_after", Json::num(report.bytes_after as f64)),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!(
            "{}: kept {} records, dropped {} superseded, {} -> {} bytes",
            args.store.display(),
            report.kept,
            report.dropped,
            report.bytes_before,
            report.bytes_after
        );
    }
}

fn run_verify(args: &Args) {
    let handle = open_store(&args.store, StorePolicy::ReadOnly);
    let mut store = handle.lock();
    let report = match store.verify() {
        Ok(r) => r,
        Err(e) => fail_env(format!(
            "result store {}: verify failed: {e}",
            args.store.display()
        )),
    };
    // A record whose checksum holds can still fail to decode; a warm run would panic on
    // it, so verify decodes every live record the way a fetch does.
    let mut decoded = 0u64;
    for key in store.keys() {
        let named = format!("{:016x}.{:016x}", key.identity, key.variant);
        let payload = match store.get(key) {
            Ok(Some(payload)) => payload,
            Ok(None) => fail_env(format!(
                "result store {}: record {named} is in the index but cannot be read",
                args.store.display()
            )),
            Err(e) => fail_env(format!(
                "result store {}: record {named}: {e}",
                args.store.display()
            )),
        };
        if let Err(e) = StoreHandle::decode(&payload) {
            fail_env(format!(
                "result store {}: verify failed: record {named} does not decode: {e}",
                args.store.display()
            ));
        }
        decoded += 1;
    }
    if args.json {
        let doc = Json::obj(vec![
            ("store", Json::str(args.store.display().to_string())),
            (
                "records_scanned",
                Json::int(report.records_scanned as usize),
            ),
            ("live_records", Json::int(report.live_records as usize)),
            ("decoded_records", Json::int(decoded as usize)),
            ("payload_bytes", Json::num(report.payload_bytes as f64)),
            ("ok", Json::Bool(true)),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!(
            "{}: ok — {} records scanned ({} live, {} decoded), {} payload bytes, every \
             checksum verified",
            args.store.display(),
            report.records_scanned,
            report.live_records,
            decoded,
            report.payload_bytes
        );
    }
}

/// One line of an event log, parsed and checked against the events schema.
struct EventLine<'a> {
    path: &'a Path,
    /// 1-based line number in the log.
    number: usize,
    doc: Json,
    kind: String,
}

impl EventLine<'_> {
    /// Exits naming the log file and line.
    fn malformed(&self, what: &str) -> ! {
        malformed_line(self.path, self.number, what)
    }
}

fn malformed_line(path: &Path, number: usize, what: &str) -> ! {
    fail_env(format!(
        "event log {}: line {number}: {what}",
        path.display()
    ))
}

/// Reads the event log at `path` and hands every non-empty line to `visit`, in order.
/// A line that is not JSON, declares another schema or has no `kind` ends the program
/// with an error naming the file and the line.
fn for_each_event(path: &Path, mut visit: impl FnMut(&EventLine<'_>)) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_env(format!("event log {}: {e}", path.display())));
    for (idx, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let number = idx + 1;
        let malformed = |what: &str| -> ! { malformed_line(path, number, what) };
        let doc = Json::parse(line).unwrap_or_else(|e| malformed(&format!("not JSON: {e}")));
        match doc.get("schema").and_then(Json::as_str) {
            Some(schema) if schema == EVENTS_SCHEMA_ID => {}
            Some(schema) => malformed(&format!("schema '{schema}' is not '{EVENTS_SCHEMA_ID}'")),
            None => malformed("no 'schema' field"),
        }
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| malformed("no 'kind' field"))
            .to_string();
        visit(&EventLine {
            path,
            number,
            doc,
            kind,
        });
    }
}

/// `events <FILE>`: summarise an event log written by `figures --events` /
/// `tune --events` — counts by kind, the store cache-hit ratio, the cells reused from an
/// earlier experiment of the run, the slowest cells, and
/// (for distributed logs) the per-worker breakdown.
fn run_events(args: &Args) {
    let path = &args.events_file;
    let mut by_kind: Vec<(String, usize)> = Vec::new();
    let mut hits = 0usize;
    let mut reused = 0usize;
    let mut scheduled = 0usize;
    let mut panicked = 0usize;
    let mut reports = 0usize;
    let mut report_bytes = 0.0f64;
    let mut finished: Vec<(String, String, f64)> = Vec::new();
    // Distributed vocabulary: cell events per worker id, topology tallies, shard bytes.
    let mut worker_cell_events: BTreeMap<u64, usize> = BTreeMap::new();
    let mut worker_deaths = 0usize;
    let mut cells_reassigned = 0usize;
    let mut shard_frames = 0usize;
    let mut shard_bytes = 0.0f64;
    for_each_event(path, |event| {
        let EventLine { doc, kind, .. } = event;
        match by_kind.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => by_kind.push((kind.clone(), 1)),
        }
        if matches!(
            kind.as_str(),
            "cell_started" | "cell_finished" | "cell_panicked"
        ) {
            if let Some(worker) = doc.get("worker").and_then(Json::as_f64) {
                *worker_cell_events.entry(worker as u64).or_insert(0) += 1;
            }
        }
        match kind.as_str() {
            "cell_store_hit" => hits += 1,
            "cell_reused" => reused += 1,
            "cell_scheduled" => scheduled += 1,
            "cell_panicked" => panicked += 1,
            "worker_died" => worker_deaths += 1,
            "cell_reassigned" => cells_reassigned += 1,
            "shard_dispatched" => {
                shard_frames += 1;
                shard_bytes += doc.get("bytes").and_then(Json::as_f64).unwrap_or(0.0);
            }
            "report_written" => {
                reports += 1;
                report_bytes += doc.get("bytes").and_then(Json::as_f64).unwrap_or(0.0);
            }
            "cell_finished" => finished.push((
                doc.get("experiment")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| event.malformed("cell_finished without 'experiment'"))
                    .to_string(),
                doc.get("label")
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| event.malformed("cell_finished without 'label'"))
                    .to_string(),
                doc.get("wall_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| event.malformed("cell_finished without 'wall_ms'")),
            )),
            _ => {}
        }
    });
    let total: usize = by_kind.iter().map(|(_, n)| n).sum();
    by_kind.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let cells = hits + reused + scheduled;
    let hit_ratio = if cells > 0 {
        hits as f64 / cells as f64
    } else {
        0.0
    };
    finished.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.1.cmp(&b.1)));
    finished.truncate(5);
    let distributed = !worker_cell_events.is_empty()
        || by_kind.iter().any(|(k, _)| k == "worker_joined")
        || worker_deaths > 0;
    if args.json {
        let mut fields = vec![
            ("log", Json::str(path.display().to_string())),
            ("schema", Json::str(EVENTS_SCHEMA_ID)),
            ("events", Json::int(total)),
            (
                "by_kind",
                Json::obj(
                    by_kind
                        .iter()
                        .map(|(k, n)| (k.as_str(), Json::int(*n)))
                        .collect(),
                ),
            ),
            ("cells", Json::int(cells)),
            ("store_hits", Json::int(hits)),
            ("reused", Json::int(reused)),
            ("cache_hit_ratio", Json::num(hit_ratio)),
            ("panicked", Json::int(panicked)),
            ("reports_written", Json::int(reports)),
            ("report_bytes", Json::num(report_bytes)),
            (
                "slowest_cells",
                Json::arr(
                    finished
                        .iter()
                        .map(|(experiment, label, wall_ms)| {
                            Json::obj(vec![
                                ("experiment", Json::str(experiment)),
                                ("label", Json::str(label)),
                                ("wall_ms", Json::num(*wall_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if distributed {
            fields.push((
                "distributed",
                Json::obj(vec![
                    (
                        "workers",
                        Json::arr(
                            worker_cell_events
                                .iter()
                                .map(|(&worker, &events)| {
                                    Json::obj(vec![
                                        ("worker", Json::int(worker as usize)),
                                        ("cell_events", Json::int(events)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("worker_deaths", Json::int(worker_deaths)),
                    ("cells_reassigned", Json::int(cells_reassigned)),
                    ("shard_frames", Json::int(shard_frames)),
                    ("shard_bytes", Json::num(shard_bytes)),
                ]),
            ));
        }
        println!("{}", Json::obj(fields).to_pretty());
    } else {
        println!("{}: {total} events ({EVENTS_SCHEMA_ID})", path.display());
        for (kind, n) in &by_kind {
            println!("  {kind:<16} {n:>8}");
        }
        println!(
            "cells: {cells} ({hits} served from the store, {:.1}% hit ratio; {reused} reused \
             within the run); {panicked} panicked",
            hit_ratio * 100.0
        );
        println!("reports: {reports} files, {report_bytes:.0} bytes");
        if distributed {
            let per: Vec<String> = worker_cell_events
                .iter()
                .map(|(w, n)| format!("w{w}:{n}"))
                .collect();
            println!(
                "distributed: cell events by worker [{}]; {worker_deaths} worker deaths, \
                 {cells_reassigned} cells reassigned; {shard_frames} shards, \
                 {shard_bytes:.0} payload bytes",
                per.join(" ")
            );
        }
        if !finished.is_empty() {
            println!("slowest cells:");
            for (experiment, label, wall_ms) in &finished {
                println!("  {experiment}:{label:<40} {wall_ms:>9.1} ms");
            }
        }
    }
}

/// One simulated cell's span in the exported trace, before lane assignment.
struct CellSpan {
    pid: usize,
    start_us: f64,
    end_us: f64,
    label: String,
    experiment: String,
    /// `(phase name, duration in µs)` child slices from the cell's phase profile.
    phases: Vec<(String, f64)>,
}

/// A point event in the exported trace.
struct TraceInstant {
    pid: usize,
    ts_us: f64,
    name: String,
}

/// `trace <FILE>`: convert a JSONL event log into Chrome `trace_event` JSON (the format
/// Perfetto and chrome://tracing open). Distributed workers become process rows (the
/// coordinator is process 0); concurrent cell spans within a process are packed onto
/// numbered thread lanes; a cell's phase profile becomes child slices under its span.
fn run_trace(args: &Args) {
    let path = &args.events_file;
    let mut spans: Vec<CellSpan> = Vec::new();
    let mut instants: Vec<TraceInstant> = Vec::new();
    for_each_event(path, |event| {
        let EventLine { doc, kind, .. } = event;
        let kind = kind.as_str();
        let t_us = doc
            .get("t_ms")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| event.malformed("no 't_ms' field"))
            * 1e3;
        // Worker-attributed lines land on that worker's process row; everything else is
        // the coordinator's (process 0).
        let pid = doc
            .get("worker")
            .and_then(Json::as_f64)
            .map_or(0, |w| w as usize + 1);
        let label = |field: &str| {
            doc.get(field)
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        match kind {
            "cell_finished" => {
                let wall_us = doc
                    .get("wall_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| event.malformed("cell_finished without 'wall_ms'"))
                    * 1e3;
                // Synthetic or clock-skewed logs can put a span start before the sink
                // epoch; clamp so the viewer never sees negative timestamps.
                let start_us = (t_us - wall_us).max(0.0);
                let mut phases = Vec::new();
                if let Some(Json::Obj(profile_phases)) =
                    doc.get("profile").and_then(|p| p.get("phases"))
                {
                    for (phase, stat) in profile_phases {
                        let nanos = stat.get("nanos").and_then(Json::as_f64).unwrap_or(0.0);
                        phases.push((phase.clone(), nanos / 1e3));
                    }
                }
                spans.push(CellSpan {
                    pid,
                    start_us,
                    end_us: t_us,
                    label: label("label"),
                    experiment: label("experiment"),
                    phases,
                });
            }
            "cell_panicked" => instants.push(TraceInstant {
                pid,
                ts_us: t_us,
                name: format!("panic: {}", label("label")),
            }),
            "batch_opened" | "store_fetch" | "store_persist" | "cell_store_hit" | "cell_reused"
            | "report_written" | "worker_joined" | "shard_dispatched" | "worker_died"
            | "cell_reassigned" => {
                let name = match kind {
                    "cell_store_hit" => format!("store hit: {}", label("label")),
                    "cell_reused" => format!("reused: {}", label("label")),
                    "report_written" => format!("report: {}", label("path")),
                    "cell_reassigned" => format!("reassigned: {}", label("label")),
                    other => other.to_string(),
                };
                instants.push(TraceInstant {
                    pid,
                    ts_us: t_us,
                    name,
                });
            }
            // cell_scheduled/cell_started carry no duration of their own; the
            // cell_finished span covers them.
            _ => {}
        }
    });

    // Greedy lane packing per process: each span takes the lowest-numbered lane that is
    // free at its start. Lane 0 of every process is reserved for instants.
    let mut events: Vec<Json> = Vec::new();
    let mut pids: Vec<usize> = spans
        .iter()
        .map(|s| s.pid)
        .chain(instants.iter().map(|i| i.pid))
        .collect();
    pids.sort_unstable();
    pids.dedup();
    let mut lanes_per_pid: BTreeMap<usize, usize> = BTreeMap::new();
    spans.sort_by(|a, b| {
        a.pid
            .cmp(&b.pid)
            .then(a.start_us.total_cmp(&b.start_us))
            .then(a.end_us.total_cmp(&b.end_us))
    });
    let mut lane_ends: Vec<f64> = Vec::new();
    let mut current_pid = usize::MAX;
    for span in &spans {
        if span.pid != current_pid {
            lane_ends.clear();
            current_pid = span.pid;
        }
        let lane = match lane_ends.iter().position(|&end| end <= span.start_us) {
            Some(lane) => lane,
            None => {
                lane_ends.push(0.0);
                lane_ends.len() - 1
            }
        };
        lane_ends[lane] = span.end_us;
        let seen = lanes_per_pid.entry(span.pid).or_insert(0);
        *seen = (*seen).max(lane + 1);
        let tid = lane + 1;
        events.push(Json::obj(vec![
            ("ph", Json::str("X")),
            ("pid", Json::int(span.pid)),
            ("tid", Json::int(tid)),
            ("ts", Json::num(span.start_us)),
            ("dur", Json::num(span.end_us - span.start_us)),
            ("name", Json::str(&span.label)),
            ("cat", Json::str("cell")),
            (
                "args",
                Json::obj(vec![("experiment", Json::str(&span.experiment))]),
            ),
        ]));
        let mut cursor = span.start_us;
        for (phase, dur_us) in &span.phases {
            events.push(Json::obj(vec![
                ("ph", Json::str("X")),
                ("pid", Json::int(span.pid)),
                ("tid", Json::int(tid)),
                ("ts", Json::num(cursor)),
                ("dur", Json::num(*dur_us)),
                ("name", Json::str(phase)),
                ("cat", Json::str("phase")),
            ]));
            cursor += dur_us;
        }
    }
    for instant in &instants {
        events.push(Json::obj(vec![
            ("ph", Json::str("i")),
            ("pid", Json::int(instant.pid)),
            ("tid", Json::int(0)),
            ("ts", Json::num(instant.ts_us)),
            ("name", Json::str(&instant.name)),
            ("cat", Json::str("event")),
            ("s", Json::str("p")),
        ]));
    }
    // Metadata rows come first so viewers name every process before its events.
    let mut meta = Vec::new();
    for &pid in &pids {
        let name = if pid == 0 {
            "coordinator".to_string()
        } else {
            format!("worker {}", pid - 1)
        };
        meta.push(Json::obj(vec![
            ("ph", Json::str("M")),
            ("pid", Json::int(pid)),
            ("tid", Json::int(0)),
            ("name", Json::str("process_name")),
            ("args", Json::obj(vec![("name", Json::str(name))])),
        ]));
        meta.push(Json::obj(vec![
            ("ph", Json::str("M")),
            ("pid", Json::int(pid)),
            ("tid", Json::int(0)),
            ("name", Json::str("thread_name")),
            ("args", Json::obj(vec![("name", Json::str("events"))])),
        ]));
        for lane in 0..lanes_per_pid.get(&pid).copied().unwrap_or(0) {
            meta.push(Json::obj(vec![
                ("ph", Json::str("M")),
                ("pid", Json::int(pid)),
                ("tid", Json::int(lane + 1)),
                ("name", Json::str("thread_name")),
                (
                    "args",
                    Json::obj(vec![("name", Json::str(format!("slot {lane}")))]),
                ),
            ]));
        }
    }
    meta.extend(events);
    let trace_events = meta.len();
    let doc = Json::obj(vec![
        ("traceEvents", Json::arr(meta)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    let out = args.out.clone().unwrap_or_else(|| {
        path.parent()
            .map(|d| d.to_path_buf())
            .unwrap_or_default()
            .join("trace.json")
    });
    if let Err(e) = std::fs::write(&out, doc.to_string()) {
        fail_env(format!("cannot write {}: {e}", out.display()));
    }
    println!(
        "wrote {}: {trace_events} trace events ({} cell spans) across {} processes",
        out.display(),
        spans.len(),
        pids.len()
    );
}

/// `metrics <FILE>`: print the `athena-metrics-v1` snapshot embedded in a JSON report
/// (or a standalone snapshot document).
fn run_metrics(args: &Args) {
    let path = &args.events_file;
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail_env(format!("report {}: {e}", path.display())));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| fail_env(format!("report {}: not JSON: {e}", path.display())));
    let snapshot = if METRICS_SCHEMA.matches(&doc) {
        doc
    } else {
        match doc.get("metrics") {
            Some(metrics) if METRICS_SCHEMA.matches(metrics) => metrics.clone(),
            Some(_) => fail_env(format!(
                "report {}: its 'metrics' object does not declare schema '{}'",
                path.display(),
                METRICS_SCHEMA.id()
            )),
            None => fail_env(format!(
                "report {}: no 'metrics' object (expected a figures --json report, \
                 BENCH_sim.json, or a bare snapshot)",
                path.display()
            )),
        }
    };
    if args.json {
        println!("{}", snapshot.to_pretty());
        return;
    }
    println!("{} ({})", path.display(), METRICS_SCHEMA.id());
    if let Some(Json::Obj(counters)) = snapshot.get("counters") {
        println!("counters:");
        for (name, value) in counters {
            println!("  {name:<24} {value}");
        }
    }
    if let Some(Json::Obj(histograms)) = snapshot.get("histograms") {
        println!("histograms (nanoseconds):");
        println!(
            "  {:<24} {:>10} {:>14} {:>14} {:>14}",
            "name", "count", "min", "mean", "max"
        );
        for (name, h) in histograms {
            let field = |f: &str| h.get(f).and_then(Json::as_f64).unwrap_or(0.0);
            println!(
                "  {name:<24} {:>10} {:>14.0} {:>14.0} {:>14.0}",
                field("count"),
                field("min"),
                field("mean"),
                field("max"),
            );
        }
    }
    if let Some(workers) = snapshot.get("workers").and_then(Json::as_array) {
        if !workers.is_empty() {
            println!("workers:");
            for w in workers {
                let field = |f: &str| w.get(f).and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "  worker {:<4} {:>6} cells  {:>12.1} ms busy",
                    field("worker"),
                    field("cells"),
                    field("busy_nanos") / 1e6,
                );
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => fail(e),
    };
    match args.command {
        Command::Stats => run_stats(&args),
        Command::Query => run_query(&args),
        Command::Diff => run_diff(&args),
        Command::Gc => run_gc(&args),
        Command::Verify => run_verify(&args),
        Command::Events => run_events(&args),
        Command::Trace => run_trace(&args),
        Command::Metrics => run_metrics(&args),
    }
}
