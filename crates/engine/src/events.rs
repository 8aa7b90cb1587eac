//! The structured event stream: lifecycle [`Event`]s and the JSONL [`ProbeSink`] that
//! writes them.
//!
//! One event is one line of JSON, written through the crate's one serialiser
//! ([`JsonWriter`]). Every line leads with the schema id ([`EVENTS_SCHEMA_ID`]) and the
//! event kind, followed by the event's deterministic fields (experiment, label, seed,
//! counts — everything derived from the jobs themselves), followed by the wall-clock
//! fields: `wall_ms` (the cell's simulation wall-clock, on `cell_finished` only) and
//! `t_ms` (milliseconds since the sink was created, on every line). The engine emits all
//! per-cell events on the batch's calling thread at deterministic merge points — never
//! live from worker threads — so two logs of the same batch at different `--jobs` values
//! are byte-identical once the fields in [`WALL_CLOCK_FIELDS`] are stripped
//! (`tests/probe.rs` locks this in; `tests/event_lines.rs` pins every variant's bytes).
//!
//! A cell that ran on a distributed worker gets its events at the same merge points,
//! built by the coordinator from the cell's result and stamped with the worker's
//! identity ([`CellOrigin`]). Stripping [`WORKER_ATTRIBUTION_FIELDS`] too — and dropping
//! the [`TOPOLOGY_EVENT_KINDS`] lines — extends the byte-stability guarantee across
//! worker counts, in-process included.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use athena_probe::PhaseProfile;

use crate::codec::Codec;
use crate::json::JsonWriter;

/// The schema id carried by every event line.
pub const EVENTS_SCHEMA_ID: &str = "athena-events-v1";

/// The per-line fields that carry wall-clock readings (or equally host-dependent values,
/// like a worker's OS pid or a phase profile's nanosecond totals) and nothing else.
/// Stripping these from every line of two logs of the same batch must leave
/// byte-identical documents, whatever the worker counts were.
pub const WALL_CLOCK_FIELDS: &[&str] = &["t_ms", "wall_ms", "pid", "profile"];

/// The per-line fields that attribute a cell event to the distributed worker that ran it.
/// Which worker ran which cell is a scheduling accident (it depends on worker count and
/// on recovery), so determinism comparisons across worker counts strip these alongside
/// [`WALL_CLOCK_FIELDS`].
pub const WORKER_ATTRIBUTION_FIELDS: &[&str] = &["worker", "from_worker", "to_worker"];

/// Event kinds that describe the worker topology of a distributed run rather than the
/// batch itself. Their *count* varies with worker count and fault recovery (a 4-worker
/// run joins four workers, a 1-worker run one), so cross-worker-count comparisons drop
/// these lines entirely instead of stripping fields.
pub const TOPOLOGY_EVENT_KINDS: &[&str] = &[
    "worker_joined",
    "shard_dispatched",
    "worker_died",
    "cell_reassigned",
];

/// Identity of the distributed worker process that ran a cell: the coordinator-assigned
/// worker id plus the worker's OS pid. Attached to cell lifecycle events when the cell
/// ran remotely; `None` means the cell ran in-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOrigin {
    /// Coordinator-assigned worker id (stable for the pool's lifetime; replacement
    /// workers get fresh ids).
    pub worker: usize,
    /// The worker's OS process id (host-dependent, stripped by determinism comparisons).
    pub pid: u64,
}

/// One lifecycle event of an engine batch.
///
/// Per-cell events are emitted in submission order on the calling thread: a cached cell
/// produces `CellStoreHit`; a cell served from the run's cell memo produces `CellReused`;
/// a simulated cell produces `CellScheduled` before dispatch and `CellStarted` +
/// `CellFinished` (or `CellPanicked`) at merge.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A batch of cells entered [`Engine::run`](crate::Engine::run).
    BatchOpened {
        /// Experiment of the batch's first cell (batches are per-experiment in practice).
        experiment: String,
        /// Number of cells submitted.
        cells: usize,
    },
    /// The attached result store was consulted for the whole batch.
    StoreFetch {
        /// Cells served from the store.
        hits: usize,
        /// Cells that must be simulated.
        misses: usize,
    },
    /// One cell's result was served from the result store (no simulation).
    CellStoreHit {
        /// The cell's experiment.
        experiment: String,
        /// The cell's label (`workload/coordinator/config`).
        label: String,
        /// The cell's derived seed.
        seed: u64,
    },
    /// One cell missed the store and reuses the output an earlier experiment of the same
    /// run simulated for the same cell (no simulation).
    CellReused {
        /// The cell's experiment.
        experiment: String,
        /// The cell's label.
        label: String,
        /// The cell's derived seed.
        seed: u64,
        /// The experiment whose simulation the output comes from.
        source: String,
    },
    /// One cell missed the store (or no store is attached) and was queued for simulation.
    CellScheduled {
        /// The cell's experiment.
        experiment: String,
        /// The cell's label.
        label: String,
        /// The cell's derived seed.
        seed: u64,
    },
    /// One simulated cell's execution is being merged (paired with the following
    /// `CellFinished`/`CellPanicked`).
    CellStarted {
        /// The cell's experiment.
        experiment: String,
        /// The cell's label.
        label: String,
        /// The distributed worker that ran the cell; `None` in-process.
        origin: Option<CellOrigin>,
    },
    /// One simulated cell completed.
    CellFinished {
        /// The cell's experiment.
        experiment: String,
        /// The cell's label.
        label: String,
        /// Wall-clock spent simulating the cell, in milliseconds (a wall-clock field;
        /// stripped by determinism comparisons).
        wall_ms: f64,
        /// The cell's phase profile when `--profile` is on (nanosecond wall-clock
        /// readings; stripped by determinism comparisons like `wall_ms`).
        profile: Option<PhaseProfile>,
        /// The distributed worker that ran the cell; `None` in-process.
        origin: Option<CellOrigin>,
    },
    /// One simulated cell panicked; the rest of the batch completed normally.
    CellPanicked {
        /// The cell's experiment.
        experiment: String,
        /// The cell's label.
        label: String,
        /// The caught panic message.
        error: String,
        /// The distributed worker that ran the cell; `None` in-process.
        origin: Option<CellOrigin>,
    },
    /// Newly simulated successes were persisted into the result store.
    StorePersist {
        /// Number of cells persisted.
        cells: usize,
    },
    /// A report file was written by a CLI (tables, JSON documents, snapshots).
    ReportWritten {
        /// Path of the written file.
        path: String,
        /// Size of the written contents in bytes.
        bytes: usize,
    },
    /// A distributed worker process was spawned by the coordinator (once per process:
    /// the pool reuses it for every later batch).
    WorkerJoined {
        /// Coordinator-assigned worker id (stable for the pool's lifetime; replacement
        /// workers get fresh ids).
        worker: usize,
        /// The worker's OS process id (a wall-clock-like value: real but not
        /// deterministic — comparisons should treat it like a timestamp).
        pid: u64,
    },
    /// A shard of cells was sent to a distributed worker.
    ShardDispatched {
        /// The receiving worker's id.
        worker: usize,
        /// Number of cells in the shard.
        cells: usize,
        /// Payload size of the shard frame in bytes (header excluded).
        bytes: usize,
    },
    /// A distributed worker died (EOF or truncated frame), mid-shard or while idle.
    WorkerDied {
        /// The dead worker's id.
        worker: usize,
        /// Number of cells it still owed (0 for a worker that died idle).
        outstanding: usize,
        /// What the coordinator observed on the stream.
        error: String,
    },
    /// A cell lost to a worker death was reassigned to a replacement worker.
    CellReassigned {
        /// The cell's experiment.
        experiment: String,
        /// The cell's label.
        label: String,
        /// Worker that died owning the cell.
        from_worker: usize,
        /// Replacement worker now owning the cell.
        to_worker: usize,
    },
}

impl Event {
    /// The event's kind tag, as written into the `"kind"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::BatchOpened { .. } => "batch_opened",
            Event::StoreFetch { .. } => "store_fetch",
            Event::CellStoreHit { .. } => "cell_store_hit",
            Event::CellReused { .. } => "cell_reused",
            Event::CellScheduled { .. } => "cell_scheduled",
            Event::CellStarted { .. } => "cell_started",
            Event::CellFinished { .. } => "cell_finished",
            Event::CellPanicked { .. } => "cell_panicked",
            Event::StorePersist { .. } => "store_persist",
            Event::ReportWritten { .. } => "report_written",
            Event::WorkerJoined { .. } => "worker_joined",
            Event::ShardDispatched { .. } => "shard_dispatched",
            Event::WorkerDied { .. } => "worker_died",
            Event::CellReassigned { .. } => "cell_reassigned",
        }
    }

    /// Writes the line without its trailing `t_ms` field and closing brace (the sink
    /// appends both).
    fn write_fields(&self, w: &mut JsonWriter) {
        w.begin_object();
        string_field(w, "schema", EVENTS_SCHEMA_ID);
        string_field(w, "kind", self.kind());
        match self {
            Event::BatchOpened { experiment, cells } => {
                string_field(w, "experiment", experiment);
                count_field(w, "cells", *cells);
            }
            Event::StoreFetch { hits, misses } => {
                count_field(w, "hits", *hits);
                count_field(w, "misses", *misses);
            }
            Event::CellStoreHit {
                experiment,
                label,
                seed,
            }
            | Event::CellScheduled {
                experiment,
                label,
                seed,
            } => {
                cell_fields(w, experiment, label);
                w.key("seed");
                w.hex(*seed);
            }
            Event::CellReused {
                experiment,
                label,
                seed,
                source,
            } => {
                cell_fields(w, experiment, label);
                w.key("seed");
                w.hex(*seed);
                string_field(w, "source", source);
            }
            Event::CellStarted {
                experiment,
                label,
                origin,
            } => {
                cell_fields(w, experiment, label);
                origin_fields(w, *origin);
            }
            Event::CellFinished {
                experiment,
                label,
                wall_ms,
                profile,
                origin,
            } => {
                cell_fields(w, experiment, label);
                w.key("wall_ms");
                w.f64(*wall_ms);
                if let Some(profile) = profile {
                    w.key("profile");
                    profile.write(w);
                }
                origin_fields(w, *origin);
            }
            Event::CellPanicked {
                experiment,
                label,
                error,
                origin,
            } => {
                cell_fields(w, experiment, label);
                string_field(w, "error", error);
                origin_fields(w, *origin);
            }
            Event::StorePersist { cells } => count_field(w, "cells", *cells),
            Event::ReportWritten { path, bytes } => {
                string_field(w, "path", path);
                count_field(w, "bytes", *bytes);
            }
            Event::WorkerJoined { worker, pid } => {
                count_field(w, "worker", *worker);
                w.key("pid");
                w.u64(*pid);
            }
            Event::ShardDispatched {
                worker,
                cells,
                bytes,
            } => {
                count_field(w, "worker", *worker);
                count_field(w, "cells", *cells);
                count_field(w, "bytes", *bytes);
            }
            Event::WorkerDied {
                worker,
                outstanding,
                error,
            } => {
                string_field(w, "error", error);
                count_field(w, "worker", *worker);
                count_field(w, "outstanding", *outstanding);
            }
            Event::CellReassigned {
                experiment,
                label,
                from_worker,
                to_worker,
            } => {
                cell_fields(w, experiment, label);
                count_field(w, "from_worker", *from_worker);
                count_field(w, "to_worker", *to_worker);
            }
        }
    }
}

fn string_field(w: &mut JsonWriter, name: &str, value: &str) {
    w.key(name);
    w.string(value);
}

fn count_field(w: &mut JsonWriter, name: &str, value: usize) {
    w.key(name);
    w.u64(value as u64);
}

fn cell_fields(w: &mut JsonWriter, experiment: &str, label: &str) {
    string_field(w, "experiment", experiment);
    string_field(w, "label", label);
}

/// Writes the worker-attribution tail of a cell event: `"worker":N,"pid":P`, or nothing
/// for an in-process cell. `worker` is deterministic-but-scheduling-dependent
/// ([`WORKER_ATTRIBUTION_FIELDS`]); `pid` is host state ([`WALL_CLOCK_FIELDS`]).
fn origin_fields(w: &mut JsonWriter, origin: Option<CellOrigin>) {
    if let Some(CellOrigin { worker, pid }) = origin {
        count_field(w, "worker", worker);
        w.key("pid");
        w.u64(pid);
    }
}

/// Where a sink's lines go: an open log file, or an in-memory buffer drained with
/// [`ProbeSink::take_lines`].
enum SinkTarget {
    File(BufWriter<File>),
    Memory(Vec<u8>),
}

struct SinkInner {
    target: SinkTarget,
}

/// A shared, thread-safe JSONL event writer. Cloning shares the same open file and the
/// same epoch; lines from all clones interleave whole (each line is written and flushed
/// under one lock acquisition).
///
/// Equality compares the destination path only — two handles on the same path are the
/// same sink for option-comparison purposes (mirroring the result store's handle), which
/// keeps the run-option types `Eq`.
#[derive(Clone)]
pub struct ProbeSink {
    path: PathBuf,
    epoch: Instant,
    inner: Arc<Mutex<SinkInner>>,
}

impl std::fmt::Debug for ProbeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeSink")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl PartialEq for ProbeSink {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path
    }
}

impl Eq for ProbeSink {}

impl ProbeSink {
    /// Creates (truncating) the event log at `path`. Parent directories are created as
    /// needed.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = File::create(&path)?;
        Ok(Self {
            path,
            epoch: Instant::now(),
            inner: Arc::new(Mutex::new(SinkInner {
                target: SinkTarget::File(BufWriter::new(file)),
            })),
        })
    }

    /// Creates an in-memory sink whose lines are drained with [`ProbeSink::take_lines`]
    /// — for callers that read their own event stream; nothing touches the filesystem.
    pub fn buffered() -> Self {
        Self {
            path: PathBuf::from("<memory>"),
            epoch: Instant::now(),
            inner: Arc::new(Mutex::new(SinkInner {
                target: SinkTarget::Memory(Vec::new()),
            })),
        }
    }

    /// Takes the complete lines buffered so far, leaving the sink empty.
    ///
    /// # Panics
    ///
    /// Panics on a file-backed sink — a file sink's lines are already on disk and
    /// cannot be recalled.
    pub fn take_lines(&self) -> Vec<String> {
        let mut inner = self.inner.lock().expect("probe sink mutex poisoned");
        match &mut inner.target {
            SinkTarget::File(_) => panic!("take_lines on a file-backed probe sink"),
            SinkTarget::Memory(buffer) => {
                let drained = std::mem::take(buffer);
                String::from_utf8(drained)
                    .expect("event lines are UTF-8")
                    .lines()
                    .map(str::to_owned)
                    .collect()
            }
        }
    }

    /// The log file this sink writes to (`<memory>` for a buffered sink).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event line and flushes it, so a killed run's log is complete up to the
    /// last event.
    ///
    /// # Panics
    ///
    /// Panics when the write fails (disk full, file gone) — an event log that silently
    /// drops records would lie about the run it documents.
    pub fn emit(&self, event: &Event) {
        let mut w = JsonWriter::new();
        event.write_fields(&mut w);
        w.key("t_ms");
        w.f64(self.epoch.elapsed().as_secs_f64() * 1e3);
        w.end_object();
        let mut line = w.into_bytes();
        line.push(b'\n');
        let mut inner = self.inner.lock().expect("probe sink mutex poisoned");
        match &mut inner.target {
            SinkTarget::File(writer) => writer
                .write_all(&line)
                .and_then(|()| writer.flush())
                .unwrap_or_else(|e| panic!("event log {}: write failed: {e}", self.path.display())),
            SinkTarget::Memory(buffer) => buffer.extend_from_slice(&line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("athena-events-{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn lines_carry_schema_kind_and_fields() {
        let path = temp_log("basic");
        let sink = ProbeSink::create(&path).unwrap();
        sink.emit(&Event::BatchOpened {
            experiment: "fig7".into(),
            cells: 3,
        });
        sink.emit(&Event::CellFinished {
            experiment: "fig7".into(),
            label: "w/athena/<cfg>".into(),
            wall_ms: 1.25,
            profile: None,
            origin: None,
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(&format!(
            "{{\"schema\":\"{EVENTS_SCHEMA_ID}\",\"kind\":\"batch_opened\",\"experiment\":\"fig7\",\"cells\":3,\"t_ms\":"
        )));
        assert!(lines[1].contains("\"kind\":\"cell_finished\""));
        assert!(lines[1].contains("\"wall_ms\":1.25"));
        assert!(
            !lines[1].contains("\"worker\""),
            "no origin, no attribution"
        );
        assert!(lines[1].ends_with('}'));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn origins_and_profiles_render_on_cell_events() {
        use athena_probe::Phase;

        let sink = ProbeSink::buffered();
        let mut profile = PhaseProfile::new();
        profile.record(Phase::Dispatch, 1_500);
        profile.record(Phase::CoreStep, 500);
        sink.emit(&Event::CellFinished {
            experiment: "fig7".into(),
            label: "w/athena/<cfg>".into(),
            wall_ms: 2.0,
            profile: Some(profile),
            origin: Some(CellOrigin { worker: 3, pid: 42 }),
        });
        let lines = sink.take_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains(
            "\"profile\":{\"phases\":{\"core_step\":{\"calls\":1,\"nanos\":500},\
             \"dispatch\":{\"calls\":1,\"nanos\":1500}},\"total_nanos\":2000}"
        ));
        assert!(lines[0].contains(",\"worker\":3,\"pid\":42,\"t_ms\":"));
        // Drained means drained: the next take sees nothing.
        assert!(sink.take_lines().is_empty());
    }

    #[test]
    fn buffered_sinks_hold_whole_lines_in_memory() {
        let sink = ProbeSink::buffered();
        sink.emit(&Event::StorePersist { cells: 7 });
        sink.emit(&Event::CellStarted {
            experiment: "fig7".into(),
            label: "w/athena/<cfg>".into(),
            origin: Some(CellOrigin { worker: 0, pid: 9 }),
        });
        let lines = sink.take_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"cells\":7"));
        assert!(lines[1].contains("\"kind\":\"cell_started\""));
        assert!(lines[1].contains("\"worker\":0,\"pid\":9,\"t_ms\":"));
        assert_eq!(sink.path(), Path::new("<memory>"));
    }

    #[test]
    fn clones_share_the_file_and_compare_by_path() {
        let path = temp_log("clone");
        let sink = ProbeSink::create(&path).unwrap();
        let clone = sink.clone();
        sink.emit(&Event::StorePersist { cells: 1 });
        clone.emit(&Event::StorePersist { cells: 2 });
        assert_eq!(sink, clone);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
