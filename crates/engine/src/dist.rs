//! Distributed experiment execution: coordinator-side sharding and the worker serve loop.
//!
//! The in-process pool ([`crate::pool`]) caps a sweep at one process. This module adds
//! the process boundary: a coordinator ([`DistPool`]) owns a set of long-lived worker
//! processes (any binary that calls [`serve`] — the `figures`/`tune` CLIs do so under
//! `--worker`), splits each batch of [`Job`]s into per-worker shards, streams per-cell
//! result records back over the workers' stdio, and merges them **in submission order**,
//! so every table and leaderboard is byte-identical at any worker count — exactly the
//! contract the in-process pool honours.
//!
//! # Worker lifetime
//!
//! Workers belong to the pool, not to a batch. The first batch spawns them; every later
//! batch deals its shards to the same processes and spawns only to make up a shortfall
//! (a worker lost to death, or a batch wider than any before it). Every clone of a pool
//! shares its workers, so the engines an options set builds per batch all reach the same
//! processes. When the last clone is dropped the pool closes every worker's stdin and
//! waits for it: no worker outlives its pool.
//!
//! # Wire protocol
//!
//! Both directions speak length-delimited, checksummed frames over pipes:
//!
//! ```text
//! [kind: u8] [len: u32 LE] [checksum(payload): u64 LE] [payload: len bytes]
//! ```
//!
//! Payloads are JSON documents declaring a [`crate::report::Schema`]
//! (`athena-dist-*-v1`); the checksum is the same word-at-a-time hash the result store
//! stamps on its records ([`athena_store::checksum`]). The conversation is: worker sends
//! `HELLO`; then, once per batch, the coordinator sends one `SHARD` (an indexed job list,
//! jobs written by [`crate::wire::write_job`], plus the coordinator's profiling switch) and
//! the worker answers one `RESULT` per cell, then `DONE`. When the pool is dropped the
//! coordinator closes the worker's stdin and the worker exits. A `RESULT` carries
//! everything the coordinator knows about the cell: its wall-clock, its phase profile when
//! profiling is on, and either the error of a cell that panicked or the output wrapped in
//! the self-describing `athena-result-record-v1` envelope the result store writes.
//!
//! Workers run every cell through the same runner as the in-process pool and emit no
//! events of their own. The engine builds each cell's `cell_started`/`cell_finished`
//! pair at merge from the `RESULT`, attributed to the worker's id and pid, so a
//! distributed event log has the same bytes as an in-process one apart from that
//! attribution — and a worker that dies mid-shard has nothing to leave in the log.
//!
//! # Failure discipline
//!
//! The two failure classes are deliberately treated differently:
//!
//! * **Death** — EOF or a truncated frame on a worker's stdout (crash, SIGKILL, broken
//!   pipe). The coordinator kills and reaps the worker, drops it from the pool, and
//!   reassigns its unfinished cells to a freshly spawned worker, at most
//!   [`MAX_ATTEMPTS`] attempts per cell, then fails loudly. Because a cell's result is a
//!   pure function of the job, a retried cell is the *same* cell. A worker found dead
//!   while idle, between batches, is replaced without charging any cell an attempt.
//!   Frames still in flight from a removed worker are ignored.
//! * **Corruption** — a complete frame whose checksum or schema does not match, or a
//!   result record whose `(identity, variant)` key disagrees with the job it claims to
//!   answer. The coordinator panics immediately: a lying record is never merged, and
//!   never silently recomputed over.
//!
//! A batch that panics — corruption, a dying assignment, a stall — kills and discards
//! every worker of the pool, so a later batch on the same pool starts from fresh
//! processes.
//!
//! Worker-side *cell* panics are neither: they are caught per cell (by the same cell
//! runner the in-process executor uses) and travel back as `error` results, merging as
//! that cell's `Err` outcome with no retry.
//!
//! Every lifecycle step emits a structured event ([`Event`]:
//! `worker_joined` once per process, `shard_dispatched` once per shard, `worker_died`,
//! `cell_reassigned`) so a distributed run is observable after the fact.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use athena_probe::{metrics, PhaseProfile};
use athena_store::checksum;

use crate::codec::{fill, read_envelope, take, u64_json, Codec};
use crate::events::{CellOrigin, Event, ProbeSink};
use crate::exec::{run_cell, CellOutcome};
use crate::job::{Job, JobOutput};
use crate::json::{Json, JsonReader, JsonWriter};
use crate::report::{
    DIST_DONE_SCHEMA, DIST_HELLO_SCHEMA, DIST_RESULT_SCHEMA, DIST_SHARD_SCHEMA,
    RESULT_RECORD_SCHEMA,
};
use crate::store::{record_key, RecordFields, StoreHandle};
use crate::wire::{read_job, write_job};

/// Maximum attempts per cell before a repeatedly dying assignment fails the batch.
pub const MAX_ATTEMPTS: u32 = 3;

/// How long the coordinator waits for *any* worker message before declaring the batch
/// stalled. Generous on purpose: it only exists to turn a hung worker into a loud
/// failure instead of an eternal one.
const RECV_TIMEOUT: Duration = Duration::from_secs(600);

/// Frames larger than this are rejected as corrupt (a length field this big is garbage,
/// not a real shard or record).
const MAX_FRAME_LEN: u32 = 1 << 30;

const KIND_HELLO: u8 = 1;
const KIND_SHARD: u8 = 2;
const KIND_RESULT: u8 = 3;
const KIND_DONE: u8 = 4;

/// Bytes of a frame's fixed header (`kind` + `len` + checksum), counted by the
/// frame-byte metrics alongside the payload.
const FRAME_HEADER_BYTES: u64 = 1 + 4 + 8;

// ---------------------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------------------

fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&[kind])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&checksum(payload).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    metrics().frames_sent.incr();
    metrics()
        .frame_bytes_sent
        .add(FRAME_HEADER_BYTES + payload.len() as u64);
    Ok(())
}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary; an EOF *inside* a
/// frame surfaces as `ErrorKind::UnexpectedEof` (truncation — the sender died
/// mid-write); a complete frame that fails its checksum, carries an unknown kind, or an
/// absurd length surfaces as `ErrorKind::InvalidData` (corruption).
fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut kind = [0u8; 1];
    loop {
        match r.read(&mut kind) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            // A signal landing mid-read is not a dead peer: retry, as `read_exact` does.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if !(KIND_HELLO..=KIND_DONE).contains(&kind[0]) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame kind {}", kind[0]),
        ));
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"),
        ));
    }
    let mut stated = [0u8; 8];
    r.read_exact(&mut stated)?;
    let stated = u64::from_le_bytes(stated);
    // Read into spare capacity: the read overwrites every byte, so zeroing the buffer
    // first is wasted work.
    let mut payload = Vec::with_capacity(len as usize);
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame cut short: {} of {len} payload bytes", payload.len()),
        ));
    }
    let actual = checksum(&payload);
    if actual != stated {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame checksum mismatch: header says {stated:#018x}, payload hashes to {actual:#018x}"),
        ));
    }
    metrics().frames_received.incr();
    metrics()
        .frame_bytes_received
        .add(FRAME_HEADER_BYTES + len as u64);
    Ok(Some((kind[0], payload)))
}

// ---------------------------------------------------------------------------------------
// Worker command and pool configuration.
// ---------------------------------------------------------------------------------------

/// How the coordinator launches one worker process: a program, its arguments, and extra
/// environment variables. The launched process must enter [`serve`] (the harness CLIs do
/// so under their `--worker` flag; the default command is the coordinator's own binary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCommand {
    /// Program to execute.
    pub program: PathBuf,
    /// Arguments passed to the program (e.g. `["--worker"]`).
    pub args: Vec<String>,
    /// Extra environment variables set on the worker (the rest of the environment is
    /// inherited). Tests use this to inject faults per pool without touching the
    /// process-global environment.
    pub envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// A command launching `program` with the given arguments and no extra environment.
    pub fn new(program: impl Into<PathBuf>, args: &[&str]) -> Self {
        Self {
            program: program.into(),
            args: args.iter().map(|a| a.to_string()).collect(),
            envs: Vec::new(),
        }
    }

    /// The coordinator's own binary run with `--worker` — the standard self-spawning
    /// setup of the `figures` and `tune` CLIs.
    pub fn self_worker() -> Result<Self, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot resolve the current executable: {e}"))?;
        Ok(Self::new(exe, &["--worker"]))
    }

    /// Returns a copy with one extra environment variable set on spawned workers.
    pub fn with_env(mut self, key: &str, value: &str) -> Self {
        self.envs.push((key.to_string(), value.to_string()));
        self
    }
}

/// A distributed executor: runs job batches on up to `workers` long-lived worker
/// processes instead of in-process threads, with in-order merge and bounded retry (see
/// the module docs). Plug one into an engine with [`crate::Engine::with_dist`].
///
/// Clones share the pool's worker processes; equality compares the configuration only.
/// Batches on one pool run one at a time: a second thread's batch waits for the first.
#[derive(Clone)]
pub struct DistPool {
    command: WorkerCommand,
    workers: usize,
    live: Arc<Mutex<Live>>,
}

impl fmt::Debug for DistPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistPool")
            .field("command", &self.command)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl PartialEq for DistPool {
    fn eq(&self, other: &Self) -> bool {
        self.command == other.command && self.workers == other.workers
    }
}

impl Eq for DistPool {}

impl DistPool {
    /// A pool of up to `workers` processes launched via `command`. No process starts
    /// here: the first batch spawns them, later batches reuse them, and dropping the
    /// last clone of the pool shuts them down.
    pub fn new(command: WorkerCommand, workers: usize) -> Self {
        let (tx, rx) = mpsc::channel();
        Self {
            command,
            workers: workers.max(1),
            live: Arc::new(Mutex::new(Live {
                workers: Vec::new(),
                tx,
                rx,
                next_id: 0,
            })),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured worker launch command.
    pub fn command(&self) -> &WorkerCommand {
        &self.command
    }

    /// Runs every job on the worker processes and returns one [`RemoteCell`] per job, in
    /// submission order: the cell's outcome (`Ok((output, worker-measured wall clock))`,
    /// or `Err(message)` for a cell that panicked on a worker), the worker it ran on, and
    /// its phase profile when profiling is on. With `progress`, a live per-worker status
    /// line is kept on stderr.
    ///
    /// # Panics
    ///
    /// Panics on corruption (a frame or record that lies — see the module docs), when a
    /// cell's assignment has died [`MAX_ATTEMPTS`] times, when a worker cannot be
    /// spawned, or when no worker produces any message for a very long time.
    pub fn run_jobs(
        &self,
        probe: Option<&ProbeSink>,
        progress: bool,
        jobs: &[Job],
    ) -> Vec<RemoteCell> {
        self.run_cells(probe, progress, jobs)
            .into_iter()
            .map(|(cell, origin)| RemoteCell {
                outcome: cell.output.map(|output| (output, cell.wall)),
                origin: Some(origin),
                profile: cell.profile,
            })
            .collect()
    }

    /// [`DistPool::run_jobs`] as the engine consumes it: each cell's [`CellOutcome`] and
    /// the worker that produced it, in submission order.
    pub(crate) fn run_cells(
        &self,
        probe: Option<&ProbeSink>,
        progress: bool,
        jobs: &[Job],
    ) -> Vec<(CellOutcome, CellOrigin)> {
        if jobs.is_empty() {
            return Vec::new();
        }
        // A batch that panicked discarded every worker before the lock was released, so
        // a poisoned pool is a clean one.
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        let mut batch = Batch {
            pool: self,
            live: &mut live,
            probe,
            progress,
            jobs,
            outcomes: (0..jobs.len()).map(|_| None).collect(),
            filled: 0,
            attempts: vec![0u32; jobs.len()],
            completed: BTreeMap::new(),
            reassigned: 0,
            started: Instant::now(),
        };
        batch.run();
        batch
            .outcomes
            .drain(..)
            .map(|slot| slot.expect("every cell resolved"))
            .collect()
    }
}

/// One cell's result as returned by [`DistPool::run_jobs`].
#[derive(Debug, Clone)]
pub struct RemoteCell {
    /// The cell's outcome: output plus worker-measured wall clock, or the panic message.
    pub outcome: Result<(JobOutput, Duration), String>,
    /// The worker that produced the merged answer (always `Some`: every cell is answered
    /// by a worker).
    pub origin: Option<CellOrigin>,
    /// The cell's phase profile, when profiling is on.
    pub profile: Option<PhaseProfile>,
}

// ---------------------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------------------

/// What a worker's reader thread forwards to the coordinator loop.
enum MsgBody {
    /// A complete, checksum-verified frame.
    Frame(u8, Vec<u8>),
    /// Clean EOF on the worker's stdout.
    Eof,
    /// The stream died mid-frame (truncation, crash).
    Died(String),
    /// A complete frame failed its checksum / carried garbage.
    Corrupt(String),
}

struct Msg {
    worker: usize,
    body: MsgBody,
}

/// The worker processes a pool owns, shared by every clone of it, and the channel their
/// reader threads forward frames on.
struct Live {
    workers: Vec<Worker>,
    tx: mpsc::Sender<Msg>,
    rx: mpsc::Receiver<Msg>,
    /// The id the next spawned worker gets: ids are unique for the pool's lifetime, so a
    /// frame from a removed worker can never be taken for a live one's.
    next_id: usize,
}

impl Drop for Live {
    fn drop(&mut self) {
        // Closing stdin ends a worker's serve loop; waiting reaps it, so no worker
        // outlives its pool and the workers' CPU time is accounted to this process's
        // children. Every stdin closes before the first wait, so workers exit together.
        let exiting: Vec<(Child, JoinHandle<()>)> = self
            .workers
            .drain(..)
            .map(|w| (w.child, w.reader))
            .collect();
        for (mut child, reader) in exiting {
            let _ = child.wait();
            let _ = reader.join();
        }
    }
}

struct Worker {
    id: usize,
    /// The worker's OS pid, as `worker_joined` reports it and its cells' events carry it.
    pid: u64,
    child: Child,
    /// Open for the worker's whole life; closing it tells the worker to exit.
    stdin: ChildStdin,
    /// The thread forwarding the worker's frames; it ends at the worker's EOF.
    reader: JoinHandle<()>,
    /// Cell indices of the current batch assigned to this worker and not yet answered.
    outstanding: BTreeSet<usize>,
    /// Whether a shard is out and its `DONE` has not arrived yet.
    busy: bool,
}

impl Worker {
    /// Kills and reaps the worker, and joins its reader thread.
    fn kill(self) {
        let Worker {
            mut child, reader, ..
        } = self;
        let _ = child.kill();
        let _ = child.wait();
        let _ = reader.join();
    }
}

struct Batch<'a> {
    pool: &'a DistPool,
    live: &'a mut Live,
    probe: Option<&'a ProbeSink>,
    progress: bool,
    jobs: &'a [Job],
    outcomes: Vec<Option<(CellOutcome, CellOrigin)>>,
    filled: usize,
    attempts: Vec<u32>,
    /// Cells completed per worker id, for the `--progress` breakdown.
    completed: BTreeMap<usize, usize>,
    /// Cells re-dispatched after worker deaths.
    reassigned: usize,
    started: Instant,
}

impl Drop for Batch<'_> {
    fn drop(&mut self) {
        // A batch that gives up — corruption, a dying assignment, a stall — leaves no
        // worker behind: whatever they were doing is suspect, and the next batch on
        // this pool starts from fresh processes.
        if std::thread::panicking() {
            for w in self.live.workers.drain(..) {
                w.kill();
            }
        }
    }
}

impl Batch<'_> {
    fn emit(&self, event: &Event) {
        if let Some(sink) = self.probe {
            sink.emit(event);
        }
    }

    fn run(&mut self) {
        self.remove_idle_deaths();
        let n = self.pool.workers.min(self.jobs.len());
        // Round-robin static shards: the w-th worker gets cells w, w+n, w+2n, …
        for w in 0..n {
            let cells: Vec<usize> = (w..self.jobs.len()).step_by(n).collect();
            if w < self.live.workers.len() {
                self.dispatch(w, &cells);
            } else {
                self.spawn_worker(&cells);
            }
        }
        // Every shard's `DONE` is awaited too, so no frame of this batch is left in
        // flight for the next one.
        while self.filled < self.jobs.len() || self.live.workers.iter().any(|w| w.busy) {
            let msg = match self.live.rx.recv_timeout(RECV_TIMEOUT) {
                Ok(msg) => msg,
                Err(_) => panic!(
                    "distributed batch stalled: no worker message for {}s with {} of {} \
                     cells unresolved",
                    RECV_TIMEOUT.as_secs(),
                    self.jobs.len() - self.filled,
                    self.jobs.len()
                ),
            };
            self.handle(msg);
        }
    }

    /// Removes the workers that died while idle, before any shard goes out: their deaths
    /// cost no cell an attempt. The EOF a dead worker's reader forwards arrives later
    /// and is ignored, like any frame of a removed worker.
    fn remove_idle_deaths(&mut self) {
        let mut slot = 0;
        while slot < self.live.workers.len() {
            match self.live.workers[slot].child.try_wait() {
                Ok(Some(status)) => self.lose(slot, format!("exited while idle ({status})")),
                _ => slot += 1,
            }
        }
    }

    /// Acts on one message from a worker's reader thread.
    fn handle(&mut self, msg: Msg) {
        let Some(slot) = self.live.workers.iter().position(|w| w.id == msg.worker) else {
            // A removed worker's last words: its cells were reassigned, or it died idle.
            return;
        };
        match msg.body {
            MsgBody::Frame(KIND_HELLO, payload) => check_hello(msg.worker, &payload),
            MsgBody::Frame(KIND_RESULT, payload) => self.merge_result(slot, &payload),
            MsgBody::Frame(KIND_DONE, _) => {
                let worker = &mut self.live.workers[slot];
                assert!(
                    worker.busy && worker.outstanding.is_empty(),
                    "distributed worker #{}: protocol violation: DONE with {} of its cells \
                     unanswered",
                    msg.worker,
                    worker.outstanding.len()
                );
                worker.busy = false;
            }
            MsgBody::Frame(kind, _) => panic!(
                "distributed worker #{}: protocol violation: unexpected frame kind {kind}",
                msg.worker
            ),
            MsgBody::Eof => self.lose(slot, "stream ended".to_string()),
            MsgBody::Died(detail) => self.lose(slot, detail),
            MsgBody::Corrupt(detail) => panic!(
                "distributed worker #{} sent a corrupt frame ({detail}); refusing to \
                 merge anything it said — rerun, and if this repeats check the host",
                msg.worker
            ),
        }
    }

    /// Removes a dead worker from the pool (killed and reaped) and hands its unfinished
    /// cells, if any, to a freshly spawned replacement.
    fn lose(&mut self, slot: usize, detail: String) {
        let worker = self.live.workers.remove(slot);
        let (id, unfinished): (usize, Vec<usize>) =
            (worker.id, worker.outstanding.iter().copied().collect());
        worker.kill();
        self.emit(&Event::WorkerDied {
            worker: id,
            outstanding: unfinished.len(),
            error: detail.clone(),
        });
        if unfinished.is_empty() {
            return;
        }
        self.reassigned += unfinished.len();
        metrics().cell_retries.add(unfinished.len() as u64);
        for &i in &unfinished {
            self.attempts[i] += 1;
            assert!(
                self.attempts[i] < MAX_ATTEMPTS,
                "cell '{}' lost its worker {MAX_ATTEMPTS} times (last: {detail}); giving up \
                 on the batch",
                self.jobs[i].label()
            );
        }
        let to_worker = self.live.next_id;
        for &i in &unfinished {
            self.emit(&Event::CellReassigned {
                experiment: self.jobs[i].experiment.clone(),
                label: self.jobs[i].label(),
                from_worker: id,
                to_worker,
            });
        }
        self.spawn_worker(&unfinished);
    }

    /// Spawns one worker into the pool, starts its reader thread, and ships it `cells`.
    fn spawn_worker(&mut self, cells: &[usize]) {
        let cmd = &self.pool.command;
        let mut child = Command::new(&cmd.program)
            .args(&cmd.args)
            .envs(cmd.envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| {
                panic!(
                    "cannot spawn distributed worker '{}': {e}",
                    cmd.program.display()
                )
            });
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let id = self.live.next_id;
        self.live.next_id += 1;
        let pid = child.id() as u64;
        self.emit(&Event::WorkerJoined { worker: id, pid });
        let reader_tx = self.live.tx.clone();
        let reader = std::thread::spawn(move || {
            let mut stdout = io::BufReader::new(stdout);
            loop {
                let body = match read_frame(&mut stdout) {
                    Ok(Some((kind, payload))) => MsgBody::Frame(kind, payload),
                    Ok(None) => MsgBody::Eof,
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                        MsgBody::Corrupt(e.to_string())
                    }
                    Err(e) => MsgBody::Died(e.to_string()),
                };
                let last = !matches!(body, MsgBody::Frame(..));
                if reader_tx.send(Msg { worker: id, body }).is_err() || last {
                    return;
                }
            }
        });
        self.live.workers.push(Worker {
            id,
            pid,
            child,
            stdin,
            reader,
            outstanding: BTreeSet::new(),
            busy: false,
        });
        self.dispatch(self.live.workers.len() - 1, cells);
    }

    /// Ships one shard to the worker in `slot`. A shard that cannot be written (the
    /// worker died before reading it) is reported back through the channel as a death,
    /// so the normal reassignment path retries it.
    fn dispatch(&mut self, slot: usize, cells: &[usize]) {
        let payload = shard_payload(self.jobs, cells);
        let id = self.live.workers[slot].id;
        self.emit(&Event::ShardDispatched {
            worker: id,
            cells: cells.len(),
            bytes: payload.len(),
        });
        let worker = &mut self.live.workers[slot];
        worker.outstanding = cells.iter().copied().collect();
        worker.busy = true;
        if let Err(e) = write_frame(&mut worker.stdin, KIND_SHARD, &payload) {
            // The reader thread will also see EOF, but the write error is the more
            // precise diagnosis.
            let _ = self.live.tx.send(Msg {
                worker: id,
                body: MsgBody::Died(format!("shard could not be written: {e}")),
            });
        }
    }

    /// Repaints the `--progress` status line with the distributed breakdown: overall
    /// completion, busy workers, cells completed per worker, and reassignment count.
    fn print_progress(&self) {
        if !self.progress || self.filled == 0 {
            return;
        }
        let total = self.jobs.len();
        let done = self.filled;
        let live = self.live.workers.iter().filter(|w| w.busy).count();
        let per: Vec<String> = self
            .completed
            .iter()
            .map(|(w, c)| format!("w{w}:{c}"))
            .collect();
        let eta = self.started.elapsed().as_secs_f64() / done as f64 * (total - done) as f64;
        eprint!(
            "\r[{done}/{total} cells on {live} workers ({per}), {reassigned} reassigned, \
             ~{eta:.0}s left]  ",
            per = per.join(" "),
            reassigned = self.reassigned,
        );
    }

    /// Verifies and merges one `RESULT` frame. Every mismatch in here is corruption — a
    /// checksum-valid frame whose *content* lies — and panics rather than merging.
    fn merge_result(&mut self, slot: usize, payload: &[u8]) {
        let worker = &mut self.live.workers[slot];
        let (id, pid) = (worker.id, worker.pid);
        let (index, cell) = decode_result(id, payload, self.jobs);
        assert!(
            worker.outstanding.remove(&index),
            "distributed worker #{id} answered cell {index}, which it does not own"
        );
        assert!(
            self.outcomes[index].is_none(),
            "cell {index} resolved twice — workers overlapped"
        );
        let wall_nanos = cell.wall.as_nanos() as u64;
        self.outcomes[index] = Some((cell, CellOrigin { worker: id, pid }));
        self.filled += 1;
        metrics().cell_wall_nanos.record(wall_nanos);
        metrics().record_worker_cell(id, wall_nanos);
        *self.completed.entry(id).or_insert(0) += 1;
        self.print_progress();
    }
}

fn check_hello(worker: usize, payload: &[u8]) {
    let doc = Json::parse(frame_text(worker, payload))
        .unwrap_or_else(|e| panic!("distributed worker #{worker}: frame payload is not JSON: {e}"));
    if !DIST_HELLO_SCHEMA.matches(&doc) {
        panic!(
            "distributed worker #{worker} did not speak the '{}' handshake — wrong \
             program or version behind the worker command?",
            DIST_HELLO_SCHEMA.id()
        );
    }
}

/// Decodes one `RESULT` frame from `worker` into the index of the cell it answers and
/// that cell's outcome. Every field that is missing, mistyped or lying — the schema, the
/// index, `wall_nanos`, the profile, the record and its key — is corruption and panics,
/// naming the worker and the cell, rather than merging a made-up value. The frame is read
/// in one pass; its fields are checked in that order whatever order they came in.
fn decode_result(worker: usize, payload: &[u8], jobs: &[Job]) -> (usize, CellOutcome) {
    let mut r = JsonReader::new(frame_text(worker, payload));
    let (mut schema, mut index, mut wall, mut profile, mut error, mut record) =
        (None, None, None, None, None, None);
    read_envelope(&mut r, |key, r| match key {
        "schema" => fill(&mut schema, r, |r| DIST_RESULT_SCHEMA.read_matches(r)),
        "index" => fill(&mut index, r, usize::read),
        "wall_nanos" => fill(&mut wall, r, u64::read),
        "profile" => fill(&mut profile, r, PhaseProfile::read),
        "error" => fill(&mut error, r, String::read),
        "record" if record.is_none() => RecordFields::read(r).map(|fields| record = Some(fields)),
        _ => r.skip_value(),
    })
    .and_then(|()| r.finish())
    .unwrap_or_else(|e| panic!("distributed worker #{worker}: frame payload is not JSON: {e}"));
    assert!(
        schema == Some(Ok(true)),
        "distributed worker #{worker}: result frame does not declare schema '{}'",
        DIST_RESULT_SCHEMA.id()
    );
    let index: usize = take(index, "index")
        .unwrap_or_else(|e| panic!("distributed worker #{worker}: result has no cell index: {e}"));
    let job = jobs.get(index).unwrap_or_else(|| {
        panic!("distributed worker #{worker} answered cell {index}, which does not exist")
    });
    let wall = take(wall, "wall_nanos")
        .map(Duration::from_nanos)
        .unwrap_or_else(|e| {
            panic!(
                "distributed worker #{worker}: result for cell {index} has no integer \
                 'wall_nanos': {e}"
            )
        });
    let profile = profile.map(|p| {
        p.unwrap_or_else(|e| {
            panic!("distributed worker #{worker}: cell {index} sent an undecodable profile: {e}")
        })
    });
    let output = if let Some(error) = error {
        let message = error.unwrap_or_else(|_| {
            panic!("distributed worker #{worker}: non-string error for cell {index}")
        });
        Err(message)
    } else {
        let record = record.unwrap_or_else(|| {
            panic!("distributed worker #{worker}: result for cell {index} has no record")
        });
        assert!(
            record.declares_schema(),
            "distributed worker #{worker}: cell {index} record does not declare schema '{}'",
            RESULT_RECORD_SCHEMA.id()
        );
        let key = record_key(job);
        let sent_identity = record.identity.and_then(Result::ok);
        let sent_variant = record.variant.and_then(Result::ok);
        if sent_identity != Some(key.identity) || sent_variant != Some(key.variant) {
            panic!(
                "distributed worker #{worker} sent a lying record for cell '{}': claims key \
                 {}.{}, the job's key is {:016x}.{:016x} — refusing to merge",
                job.label(),
                sent_identity.map_or("?".into(), |v| format!("{v:016x}")),
                sent_variant.map_or("?".into(), |v| format!("{v:016x}")),
                key.identity,
                key.variant
            );
        }
        let output = record
            .output
            .unwrap_or_else(|| Err("record has no 'output' field".to_string()))
            .unwrap_or_else(|e| {
                panic!(
                    "distributed worker #{worker}: record for cell '{}' does not decode: {e}",
                    job.label()
                )
            });
        Ok(output)
    };
    (
        index,
        CellOutcome {
            output,
            wall,
            profile,
        },
    )
}

fn frame_text(worker: usize, payload: &[u8]) -> &str {
    std::str::from_utf8(payload)
        .unwrap_or_else(|e| panic!("distributed worker #{worker}: frame payload is not UTF-8: {e}"))
}

fn shard_payload(jobs: &[Job], cells: &[usize]) -> Vec<u8> {
    let mut w = JsonWriter::new();
    DIST_SHARD_SCHEMA.begin_document(&mut w);
    w.key("cells");
    w.begin_array();
    for &i in cells {
        w.begin_object();
        w.key("index");
        w.u64(i as u64);
        w.key("job");
        write_job(&mut w, &jobs[i]);
        w.end_object();
    }
    w.end_array();
    // The coordinator's profiling switch rides along so workers accrue phase profiles
    // exactly when an in-process run would.
    w.key("profile");
    w.boolean(athena_probe::profiling_enabled());
    w.end_object();
    w.into_bytes()
}

/// Reads a `SHARD` frame: the profiling switch and every indexed job, each job through
/// its identity tripwire. The fields are checked in a fixed order whatever order they
/// came in: the payload's syntax, its schema, then the cells in order.
fn read_shard(text: &str) -> Result<(bool, Vec<(u64, Job)>), String> {
    let mut r = JsonReader::new(text);
    let (mut schema, mut profile, mut cells) = (None, None, None);
    read_envelope(&mut r, |key, r| match key {
        "schema" => fill(&mut schema, r, |r| DIST_SHARD_SCHEMA.read_matches(r)),
        "profile" => fill(&mut profile, r, bool::read),
        "cells" => fill(&mut cells, r, read_shard_cells),
        _ => r.skip_value(),
    })
    .and_then(|()| r.finish())
    .map_err(|e| format!("shard payload is not JSON: {e}"))?;
    if schema != Some(Ok(true)) {
        return Err(format!(
            "shard does not declare schema '{}'",
            DIST_SHARD_SCHEMA.id()
        ));
    }
    let profile = profile.and_then(Result::ok).unwrap_or(false);
    Ok((profile, cells.ok_or("shard has no 'cells' array")??))
}

/// The `cells` array of a `SHARD` frame.
fn read_shard_cells(r: &mut JsonReader<'_>) -> Result<Vec<(u64, Job)>, String> {
    if r.peek() != Some(b'[') {
        return Err("shard has no 'cells' array".to_string());
    }
    let mut cells = r.begin_array()?;
    let mut jobs = Vec::new();
    while r.next_item(&mut cells)? {
        let (mut index, mut job) = (None, None);
        read_envelope(r, |key, r| match key {
            "index" => fill(&mut index, r, u64::read),
            "job" => fill(&mut job, r, read_job),
            _ => r.skip_value(),
        })?;
        let index = index
            .and_then(Result::ok)
            .ok_or("shard cell has no index")?;
        let job = job
            .ok_or("shard cell has no job")?
            .map_err(|e| format!("cannot reconstruct cell {index}: {e}"))?;
        jobs.push((index, job));
    }
    Ok(jobs)
}

// ---------------------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------------------

/// Optional fault injection, for the cross-process test harness. Workers read these
/// environment variables once at startup; each marker-file fault fires exactly once
/// across a whole test run (respawned workers find the marker claimed and behave).
struct Faults {
    /// `ATHENA_DIST_FAULT_DIE`: SIGKILL this worker right after it sends its first
    /// result of a shard (mid-shard death).
    die: Option<PathBuf>,
    /// `ATHENA_DIST_FAULT_TRUNCATE`: write half of the first result frame, then exit.
    truncate: Option<PathBuf>,
    /// `ATHENA_DIST_FAULT_CORRUPT`: flip one payload bit of the first result frame
    /// *after* computing its checksum.
    corrupt: Option<PathBuf>,
    /// `ATHENA_DIST_FAULT_PANIC`: panic inside any cell whose label contains this
    /// substring (exercising per-cell panic isolation across the process boundary).
    panic_label: Option<String>,
}

impl Faults {
    fn from_env() -> Self {
        let path = |key: &str| std::env::var_os(key).map(PathBuf::from);
        Self {
            die: path("ATHENA_DIST_FAULT_DIE"),
            truncate: path("ATHENA_DIST_FAULT_TRUNCATE"),
            corrupt: path("ATHENA_DIST_FAULT_CORRUPT"),
            panic_label: std::env::var("ATHENA_DIST_FAULT_PANIC").ok(),
        }
    }

    /// Atomically claims a marker file; only one worker ever wins one, so a fault fires
    /// once even when several workers race for it or a replacement worker respawns.
    fn claim(marker: &Option<PathBuf>) -> bool {
        let Some(path) = marker else { return false };
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .is_ok()
    }
}

/// Kills the current process with SIGKILL (the hardest death a worker can die — no
/// destructors, no flushing), falling back to `abort` if no `kill` binary exists.
fn die_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = Command::new("kill").args(["-9", &pid]).status();
    // SIGKILL delivery can race the return from `status`; abort covers the gap (and
    // non-unix hosts).
    std::process::abort();
}

/// Runs the worker serve loop over this process's stdin/stdout until the coordinator
/// closes the pipe: handshake, then one shard at a time — run every cell through the
/// in-process pool's own cell runner (panics caught per cell), stream one `RESULT` frame
/// per cell and a `DONE` frame per shard.
///
/// The harness CLIs call this under their `--worker` flag; any binary that does the same
/// can serve a [`DistPool`].
///
/// # Panics
///
/// Panics if the coordinator side of the pipe breaks mid-protocol or sends garbage — a
/// worker with a broken coordinator has nothing useful left to do, and the coordinator
/// treats the resulting death as exactly that.
pub fn serve() {
    let faults = Faults::from_env();
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut input = stdin.lock();
    let mut output = io::BufWriter::new(stdout.lock());
    let hello = DIST_HELLO_SCHEMA.document(vec![("pid", u64_json(std::process::id() as u64))]);
    write_frame(&mut output, KIND_HELLO, hello.to_string().as_bytes())
        .expect("worker cannot write its handshake");
    let mut w = JsonWriter::new();
    loop {
        let frame = read_frame(&mut input).unwrap_or_else(|e| {
            panic!("worker: cannot read from the coordinator: {e}");
        });
        let Some((kind, payload)) = frame else {
            return; // Coordinator closed our stdin: shutdown.
        };
        assert_eq!(
            kind, KIND_SHARD,
            "worker: expected a SHARD frame, got {kind}"
        );
        let text = std::str::from_utf8(&payload).expect("worker: shard payload is not UTF-8");
        let (profile, cells) = read_shard(text).unwrap_or_else(|e| panic!("worker: {e}"));
        athena_probe::set_profiling(profile);
        for (nth, (index, job)) in cells.iter().enumerate() {
            let faulty = faults
                .panic_label
                .as_deref()
                .is_some_and(|needle| job.label().contains(needle));
            let outcome = run_cell(job, || {
                if faulty {
                    panic!("injected worker fault: cell panics");
                }
            });
            w.clear();
            write_result(&mut w, *index, job, &outcome);
            let result = w.as_str().as_bytes();
            if nth == 0 && Faults::claim(&faults.corrupt) {
                send_corrupted(&mut output, result);
            } else if nth == 0 && Faults::claim(&faults.truncate) {
                send_truncated(&mut output, result);
            } else {
                write_frame(&mut output, KIND_RESULT, result)
                    .expect("worker: cannot write a result frame");
            }
            if Faults::claim(&faults.die) {
                die_hard();
            }
        }
        let done = DIST_DONE_SCHEMA.document(vec![("cells", u64_json(cells.len() as u64))]);
        write_frame(&mut output, KIND_DONE, done.to_string().as_bytes())
            .expect("worker: cannot write the DONE frame");
    }
}

/// Writes the `RESULT` frame payload of cell `index`.
fn write_result(w: &mut JsonWriter, index: u64, job: &Job, outcome: &CellOutcome) {
    DIST_RESULT_SCHEMA.begin_document(w);
    w.key("index");
    w.u64(index);
    w.key("wall_nanos");
    w.u64(outcome.wall.as_nanos() as u64);
    if let Some(profile) = &outcome.profile {
        w.key("profile");
        profile.write(w);
    }
    match &outcome.output {
        Ok(output) => {
            w.key("record");
            StoreHandle::write_record(w, job, output);
        }
        Err(message) => {
            w.key("error");
            w.string(message);
        }
    }
    w.end_object();
}

/// Fault injection: a frame whose checksum was computed over the honest payload but
/// whose payload has one bit flipped — byte-level corruption the coordinator must catch.
fn send_corrupted(w: &mut impl Write, payload: &[u8]) {
    let mut lying = payload.to_vec();
    let mid = lying.len() / 2;
    lying[mid] ^= 0x01;
    let mut frame = vec![KIND_RESULT];
    frame.extend((payload.len() as u32).to_le_bytes());
    frame.extend(checksum(payload).to_le_bytes());
    frame.extend(&lying);
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .expect("worker: cannot write");
}

/// Fault injection: the first half of an honest frame, then a silent exit — truncation,
/// which the coordinator must treat as a death, not as corruption to merge around.
fn send_truncated(w: &mut impl Write, payload: &[u8]) -> ! {
    let mut frame = vec![KIND_RESULT];
    frame.extend((payload.len() as u32).to_le_bytes());
    frame.extend(checksum(payload).to_le_bytes());
    frame.extend(payload);
    frame.truncate(frame.len() / 2);
    let _ = w.write_all(&frame);
    let _ = w.flush();
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_SHARD, b"hello world").unwrap();
        write_frame(&mut buf, KIND_DONE, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((KIND_SHARD, b"hello world".to_vec()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some((KIND_DONE, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn a_flipped_bit_is_invalid_data_and_a_cut_frame_is_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_RESULT, b"payload bytes").unwrap();
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        let err = read_frame(&mut io::Cursor::new(flipped)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        let cut = &buf[..buf.len() / 2];
        let err = read_frame(&mut io::Cursor::new(cut.to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A reader whose first `read` is interrupted by a signal.
    struct InterruptedOnce {
        inner: io::Cursor<Vec<u8>>,
        interrupted: bool,
    }

    impl Read for InterruptedOnce {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.inner.read(buf)
        }
    }

    #[test]
    fn an_interrupted_first_read_is_retried_not_taken_for_death() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_DONE, b"done").unwrap();
        let mut r = InterruptedOnce {
            inner: io::Cursor::new(buf),
            interrupted: false,
        };
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((KIND_DONE, b"done".to_vec()))
        );
        assert!(r.interrupted);
    }

    #[test]
    fn garbage_kinds_and_absurd_lengths_are_invalid_data() {
        let err = read_frame(&mut io::Cursor::new(vec![99u8, 0, 0, 0, 0])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut huge = vec![KIND_SHARD];
        huge.extend(u32::MAX.to_le_bytes());
        huge.extend(0u64.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(huge)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn tiny_job() -> Job {
        use crate::kinds::{CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};
        Job::single(
            "dist-unit",
            athena_workloads::all_workloads().remove(0),
            SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet),
            CoordinatorKind::Athena,
            2_000,
        )
    }

    fn result_doc(fields: Vec<(&str, Json)>) -> Json {
        DIST_RESULT_SCHEMA.document(fields)
    }

    /// The panic message of `decode_result` on `doc`, which must panic.
    fn decode_panic(doc: &Json, jobs: &[Job]) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            decode_result(7, doc.to_string().as_bytes(), jobs)
        }))
        .expect_err("a corrupt result must not decode");
        crate::exec::panic_message(err.as_ref())
    }

    #[test]
    fn result_frames_decode_to_the_cell_the_worker_ran() {
        let jobs = vec![tiny_job()];
        let mut profile = PhaseProfile::new();
        profile.add(athena_probe::Phase::Dispatch, 1, 1_234);
        let output = jobs[0].run();
        let doc = result_doc(vec![
            ("index", u64_json(0)),
            ("wall_nanos", u64_json(5_000_001)),
            ("profile", profile.encode()),
            ("record", StoreHandle::record_doc(&jobs[0], &output)),
        ]);
        let (index, cell) = decode_result(7, doc.to_string().as_bytes(), &jobs);
        assert_eq!(index, 0);
        assert_eq!(cell.wall, Duration::from_nanos(5_000_001));
        assert_eq!(cell.profile, Some(profile));
        assert_eq!(cell.output, Ok(output));

        let failed = result_doc(vec![
            ("index", u64_json(0)),
            ("wall_nanos", u64_json(9)),
            ("error", Json::str("boom")),
        ]);
        let (_, cell) = decode_result(7, failed.to_string().as_bytes(), &jobs);
        assert_eq!(cell.output, Err("boom".to_string()));
        assert_eq!(cell.profile, None);
    }

    #[test]
    fn a_result_without_an_integer_wall_or_with_a_bad_profile_panics_loudly() {
        let jobs = vec![tiny_job()];
        let base = || vec![("index", u64_json(0)), ("error", Json::str("boom"))];
        let mut cases = vec![("no wall_nanos", result_doc(base()))];
        let mut fractional = base();
        fractional.push(("wall_nanos", Json::num(1.5)));
        cases.push(("fractional wall_nanos", result_doc(fractional)));
        let mut textual = base();
        textual.push(("wall_nanos", Json::str("soon")));
        cases.push(("textual wall_nanos", result_doc(textual)));
        let mut bad_profile = base();
        bad_profile.push(("wall_nanos", u64_json(1)));
        bad_profile.push(("profile", Json::obj(vec![("phases", Json::num(3.0))])));
        cases.push(("undecodable profile", result_doc(bad_profile)));
        for (what, doc) in cases {
            let message = decode_panic(&doc, &jobs);
            assert!(
                message.contains("worker #7") && message.contains("cell 0"),
                "{what}: the panic must name the worker and the cell: {message}"
            );
        }
        let mut stray = base();
        stray[0] = ("index", u64_json(5));
        stray.push(("wall_nanos", u64_json(1)));
        assert!(decode_panic(&result_doc(stray), &jobs).contains("cell 5"));
    }

    #[test]
    fn shard_and_result_payloads_are_the_documents_the_tree_builds() {
        let jobs = vec![tiny_job(), tiny_job().with_telemetry(1_000)];
        let tree = DIST_SHARD_SCHEMA.document(vec![
            (
                "cells",
                Json::arr(
                    [1, 0]
                        .iter()
                        .map(|&i| {
                            Json::obj(vec![
                                ("index", u64_json(i as u64)),
                                ("job", crate::wire::job_json(&jobs[i])),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("profile", Json::Bool(athena_probe::profiling_enabled())),
        ]);
        let payload = shard_payload(&jobs, &[1, 0]);
        assert_eq!(
            String::from_utf8(payload.clone()).unwrap(),
            tree.to_string()
        );
        let (_, cells) = read_shard(std::str::from_utf8(&payload).unwrap()).unwrap();
        assert_eq!(cells, vec![(1, jobs[1].clone()), (0, jobs[0].clone())]);

        let mut profile = PhaseProfile::new();
        profile.add(athena_probe::Phase::Dram, 3, 4_000);
        let ok = CellOutcome {
            output: Ok(jobs[0].run()),
            wall: Duration::from_nanos(123_456),
            profile: Some(profile),
        };
        let failed = CellOutcome {
            output: Err("boom \"quoted\"".to_string()),
            wall: Duration::from_nanos(7),
            profile: None,
        };
        for outcome in [ok, failed] {
            let mut fields = vec![
                ("index", u64_json(0)),
                ("wall_nanos", u64_json(outcome.wall.as_nanos() as u64)),
            ];
            if let Some(p) = &outcome.profile {
                fields.push(("profile", p.encode()));
            }
            match &outcome.output {
                Ok(output) => fields.push(("record", StoreHandle::record_doc(&jobs[0], output))),
                Err(message) => fields.push(("error", Json::str(message))),
            }
            let mut w = JsonWriter::new();
            write_result(&mut w, 0, &jobs[0], &outcome);
            assert_eq!(w.as_str(), result_doc(fields).to_string());
            let (index, cell) = decode_result(7, w.as_str().as_bytes(), &jobs);
            assert_eq!(
                (index, cell.output, cell.profile),
                (0, outcome.output, outcome.profile)
            );
        }
    }

    #[test]
    fn pools_compare_by_configuration() {
        let cmd = WorkerCommand::new("/bin/true", &["--worker"]);
        assert_eq!(DistPool::new(cmd.clone(), 4), DistPool::new(cmd.clone(), 4));
        assert_ne!(DistPool::new(cmd.clone(), 4), DistPool::new(cmd.clone(), 2));
        let other = cmd.clone().with_env("K", "V");
        assert_ne!(DistPool::new(cmd, 4), DistPool::new(other, 4));
    }
}
