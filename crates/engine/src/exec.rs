//! The [`Engine`]: runs a batch of [`Job`]s on the worker pool and collects per-cell
//! results in submission order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use athena_probe::{metrics, CellOrigin, Event, Phase, PhaseProfile, ProbeSink};
use athena_sim::MultiCoreResult;

use crate::dist::DistPool;
use crate::job::{Job, JobOutput, RunResult};
use crate::pool::{available_parallelism, panic_message, parallel_map};
use crate::record;
use crate::store::StoreHandle;

/// A parallel experiment executor with a fixed worker count, an optional persistent
/// result store, an optional distributed worker pool, and optional observability (a
/// structured event sink and a stderr progress line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Engine {
    jobs: usize,
    store: Option<StoreHandle>,
    dist: Option<DistPool>,
    probe: Option<ProbeSink>,
    progress: bool,
}

impl Engine {
    /// Creates an engine running up to `jobs` simulation cells concurrently. `jobs == 1` is
    /// the exact serial path: cells run on the caller's thread in submission order.
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            store: None,
            dist: None,
            probe: None,
            progress: false,
        }
    }

    /// An engine sized to the host (`std::thread::available_parallelism`).
    pub fn host_sized() -> Self {
        Self::new(available_parallelism())
    }

    /// Attaches a result store: batches consult it before simulating and persist what
    /// they simulate, as its policy allows. Because every cell is a pure function of its
    /// job, a stored result is indistinguishable from a fresh one — tables come out
    /// byte-identical either way.
    pub fn with_store(mut self, store: Option<StoreHandle>) -> Self {
        self.store = store;
        self
    }

    /// Attaches a structured event sink: batches emit their lifecycle events
    /// ([`athena_probe::Event`]) as JSONL through it. Observation is not identity — the
    /// sink sees results, results never see the sink, so attaching one cannot change a
    /// table byte. All events are emitted on the calling thread at deterministic points.
    pub fn with_probe(mut self, probe: Option<ProbeSink>) -> Self {
        self.probe = probe;
        self
    }

    /// Attaches a distributed worker pool ([`crate::dist`]): batches run their
    /// store-missing cells on the pool's worker processes instead of in-process threads.
    /// Store consultation, persistence, event emission and the in-order merge all stay
    /// on the coordinator, so tables come out byte-identical to an in-process run at any
    /// worker count.
    pub fn with_dist(mut self, dist: Option<DistPool>) -> Self {
        self.dist = dist;
        self
    }

    /// Enables a live `cells done / cached / ETA` progress line on stderr while batches
    /// simulate (builder style). Off by default.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The attached result store, if any.
    pub fn store(&self) -> Option<&StoreHandle> {
        self.store.as_ref()
    }

    /// The attached distributed worker pool, if any.
    pub fn dist(&self) -> Option<&DistPool> {
        self.dist.as_ref()
    }

    /// The attached event sink, if any.
    pub fn probe(&self) -> Option<&ProbeSink> {
        self.probe.as_ref()
    }

    /// Runs every job and returns one [`CellResult`] per job, in submission order.
    ///
    /// With a result store attached, cells whose results are already stored are served
    /// from it (with `cached: true` and zero wall-clock) and only the misses are
    /// simulated; newly simulated successes are persisted back. A job that panics yields
    /// a `CellResult` with `output: Err(message)` (never persisted); the rest of the
    /// batch completes normally. Cell metadata (label, seed, wall-clock, outcome) is also
    /// forwarded to any active [`record::with_recording`] scope on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics when the attached store is corrupt, fails to decode a record, or fails an
    /// append — a broken cache is surfaced, never silently recomputed over.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<CellResult> {
        if let Some(sink) = &self.probe {
            sink.emit(&Event::BatchOpened {
                experiment: jobs
                    .first()
                    .map(|j| j.experiment.clone())
                    .unwrap_or_default(),
                cells: jobs.len(),
            });
        }
        let cached: Vec<Option<JobOutput>> = match &self.store {
            Some(handle) => {
                let _span = athena_probe::span(Phase::StoreFetch);
                let fetch_start = Instant::now();
                let cached = jobs.iter().map(|job| handle.fetch(job)).collect();
                metrics()
                    .store_fetch_nanos
                    .record(fetch_start.elapsed().as_nanos() as u64);
                cached
            }
            None => jobs.iter().map(|_| None).collect(),
        };
        if let Some(sink) = &self.probe {
            for (job, hit) in jobs.iter().zip(&cached) {
                if hit.is_some() {
                    sink.emit(&Event::CellStoreHit {
                        experiment: job.experiment.clone(),
                        label: job.label(),
                        seed: job.seed,
                    });
                }
            }
            if self.store.is_some() {
                let hits = cached.iter().filter(|hit| hit.is_some()).count();
                sink.emit(&Event::StoreFetch {
                    hits,
                    misses: jobs.len() - hits,
                });
            }
            for (job, hit) in jobs.iter().zip(&cached) {
                if hit.is_none() {
                    sink.emit(&Event::CellScheduled {
                        experiment: job.experiment.clone(),
                        label: job.label(),
                        seed: job.seed,
                    });
                }
            }
        }
        let misses: Vec<Job> = jobs
            .iter()
            .zip(&cached)
            .filter(|(_, hit)| hit.is_none())
            .map(|(job, _)| job.clone())
            .collect();
        let total = misses.len();
        let hits = jobs.len() - total;
        metrics().cells_cached.add(hits as u64);
        metrics().cells_simulated.add(total as u64);
        if let Some(pool) = &self.dist {
            // Distributed execution: the misses run on worker processes; everything
            // around them (store, events, merge, recording) is the same code path below.
            let remote = pool.run_cells(self.probe.as_ref(), self.progress, &misses);
            if self.progress && !remote.is_empty() {
                eprintln!();
            }
            let fresh = remote
                .into_iter()
                .map(|(cell, origin)| (cell, Some(origin)))
                .collect();
            return self.merge(jobs, cached, misses, fresh);
        }
        let done = AtomicUsize::new(0);
        let batch_start = Instant::now();
        let fresh = parallel_map(self.jobs, &misses, |job| {
            let cell = run_cell(job, || {});
            metrics()
                .cell_wall_nanos
                .record(cell.wall.as_nanos() as u64);
            if self.progress {
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                let elapsed = batch_start.elapsed().as_secs_f64();
                let eta = elapsed / n as f64 * (total - n) as f64;
                eprint!("\r[{n}/{total} cells simulated, {hits} cached, ~{eta:.0}s left]  ");
            }
            cell
        })
        .into_iter()
        .map(|outcome| {
            let (cell, _) = outcome.expect("run_cell catches the cell's own panics");
            (cell, None)
        })
        .collect();
        if self.progress && total > 0 {
            eprintln!();
        }
        self.merge(jobs, cached, misses, fresh)
    }

    /// The shared tail of [`Engine::run`] for both executors: persist newly simulated
    /// successes, merge outcomes back into submission order, emit per-cell events and
    /// forward the batch to any active recording scope.
    ///
    /// `fresh` carries, per miss (in submission order), the cell's outcome and — for a
    /// cell that ran on a distributed worker — its origin. Every simulated cell's
    /// lifecycle events are built here from its [`CellResult`], whichever executor ran it.
    fn merge(
        &self,
        jobs: Vec<Job>,
        cached: Vec<Option<JobOutput>>,
        misses: Vec<Job>,
        fresh: Vec<(CellOutcome, Option<CellOrigin>)>,
    ) -> Vec<CellResult> {
        if let Some(handle) = &self.store {
            let mut persisted = 0usize;
            let persist_start = Instant::now();
            for (job, (cell, _)) in misses.iter().zip(&fresh) {
                if let Ok(output) = &cell.output {
                    handle.persist(job, output);
                    persisted += 1;
                }
            }
            if persisted > 0 {
                metrics()
                    .store_persist_nanos
                    .record(persist_start.elapsed().as_nanos() as u64);
            }
            if let Some(sink) = &self.probe {
                sink.emit(&Event::StorePersist { cells: persisted });
            }
        }
        let mut fresh = fresh.into_iter();
        let merge_span = athena_probe::span(Phase::Merge);
        let cells: Vec<CellResult> = jobs
            .into_iter()
            .zip(cached)
            .map(|(job, hit)| {
                let (output, wall, cached, profile, origin) = match hit {
                    Some(output) => (Ok(output), Duration::ZERO, true, None, None),
                    None => {
                        let (cell, origin) = fresh.next().expect("one simulated outcome per miss");
                        match cell.output {
                            Ok(output) => (Ok(output), cell.wall, false, cell.profile, origin),
                            Err(message) => (Err(message), Duration::ZERO, false, None, origin),
                        }
                    }
                };
                CellResult {
                    experiment: job.experiment.clone(),
                    label: job.label(),
                    seed: job.seed,
                    wall,
                    cached,
                    output,
                    profile,
                    origin,
                }
            })
            .collect();
        drop(merge_span);
        if let Some(sink) = &self.probe {
            for cell in cells.iter().filter(|c| !c.cached) {
                sink.emit(&Event::CellStarted {
                    experiment: cell.experiment.clone(),
                    label: cell.label.clone(),
                    origin: cell.origin,
                });
                match &cell.output {
                    Ok(_) => sink.emit(&Event::CellFinished {
                        experiment: cell.experiment.clone(),
                        label: cell.label.clone(),
                        wall_ms: cell.wall.as_secs_f64() * 1e3,
                        profile: cell.profile,
                        origin: cell.origin,
                    }),
                    Err(error) => sink.emit(&Event::CellPanicked {
                        experiment: cell.experiment.clone(),
                        label: cell.label.clone(),
                        error: error.clone(),
                        origin: cell.origin,
                    }),
                }
            }
        }
        record::record_cells(&cells);
        cells
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::host_sized()
    }
}

/// The outcome of one executed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The experiment the cell belongs to.
    pub experiment: String,
    /// Cell label (`workload/coordinator/config`).
    pub label: String,
    /// The job's derived seed.
    pub seed: u64,
    /// Wall-clock time spent simulating this cell (zero for cached cells).
    pub wall: Duration,
    /// Whether the result was served from the attached result store instead of simulated.
    pub cached: bool,
    /// The simulation result, or the panic message if the cell failed.
    pub output: Result<JobOutput, String>,
    /// Per-phase hot-path profile of the cell's execution, when profiling
    /// ([`athena_probe::set_profiling`]) was on while it simulated. Always `None` for
    /// cached cells — a stored result costs no simulation time. For distributed cells
    /// this is the worker's own accrual, returned in the cell's `RESULT` frame.
    pub profile: Option<PhaseProfile>,
    /// The distributed worker (id + pid) that simulated the cell; `None` for in-process
    /// and cached cells.
    pub origin: Option<CellOrigin>,
}

impl CellResult {
    /// Unwraps a single-core result.
    ///
    /// # Panics
    ///
    /// Panics (with the cell label) if the cell failed or was a multi-core cell. Experiment
    /// tables need every cell, so a failed cell fails the experiment *here*, at the edge —
    /// the engine itself has already run every other cell of the batch to completion.
    pub fn into_single(self) -> RunResult {
        match self.output {
            Ok(JobOutput::Single(r)) => *r,
            Ok(JobOutput::Multi(_)) => panic!("cell '{}' is multi-core", self.label),
            Err(e) => panic!("cell '{}' failed: {e}", self.label),
        }
    }

    /// Unwraps a multi-core result.
    ///
    /// # Panics
    ///
    /// Panics (with the cell label) if the cell failed or was a single-core cell.
    pub fn into_multi(self) -> MultiCoreResult {
        match self.output {
            Ok(JobOutput::Multi(r)) => r,
            Ok(JobOutput::Single(_)) => panic!("cell '{}' is single-core", self.label),
            Err(e) => panic!("cell '{}' failed: {e}", self.label),
        }
    }
}

/// What one simulated cell produced, as measured by [`run_cell`]: the output (or the
/// panic message), the cell's wall-clock, and its phase profile when profiling is on.
#[derive(Debug)]
pub(crate) struct CellOutcome {
    pub output: Result<JobOutput, String>,
    pub wall: Duration,
    pub profile: Option<PhaseProfile>,
}

/// Runs one cell the same way on every executor — the in-process pool and a distributed
/// worker's serve loop: a fresh profile accrual, the wall-clock measured co-extensively
/// with the `Dispatch` root span, and a panic caught as the cell's `Err` outcome.
/// `prelude` runs inside that catch just before the job; the worker's fault injection
/// uses it to fail a real cell, every other caller passes `|| {}`.
pub(crate) fn run_cell(job: &Job, prelude: impl FnOnce()) -> CellOutcome {
    // Stash the calling thread's accrual so the serial (`jobs == 1`) path does not fold
    // the engine's own store-fetch/merge time into a cell's profile.
    let stashed = athena_probe::swap_cell(PhaseProfile::new());
    // The wall-clock starts here, not when a pool worker claims the job: on an
    // oversubscribed host a worker can sit descheduled in between, and that queueing
    // delay belongs to the batch, not the cell.
    let start = Instant::now();
    let output = catch_unwind(AssertUnwindSafe(|| {
        prelude();
        let _span = athena_probe::span(Phase::Dispatch);
        job.run()
    }))
    .map_err(|panic| panic_message(panic.as_ref()));
    let wall = start.elapsed();
    let profile = athena_probe::swap_cell(stashed);
    CellOutcome {
        output,
        wall,
        profile: (!profile.is_empty()).then_some(profile),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::{CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};
    use athena_workloads::all_workloads;

    fn jobs_for(kinds: &[CoordinatorKind], n_workloads: usize) -> Vec<Job> {
        let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
        let specs = all_workloads();
        let mut jobs = Vec::new();
        for kind in kinds {
            for spec in specs.iter().take(n_workloads) {
                jobs.push(Job::single(
                    "test",
                    spec.clone(),
                    config.clone(),
                    kind.clone(),
                    8_000,
                ));
            }
        }
        jobs
    }

    #[test]
    fn serial_and_parallel_batches_are_identical() {
        let kinds = [CoordinatorKind::Baseline, CoordinatorKind::Athena];
        let serial = Engine::new(1).run(jobs_for(&kinds, 3));
        let parallel = Engine::new(4).run(jobs_for(&kinds, 3));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.seed, p.seed);
            assert_eq!(s.output, p.output, "cell {} diverged", s.label);
        }
    }

    #[test]
    fn results_follow_submission_order_even_when_shuffled() {
        // Reversing the submission order must reverse the results and nothing else.
        let kinds = [CoordinatorKind::Naive];
        let forward = Engine::new(4).run(jobs_for(&kinds, 4));
        let mut reversed_jobs = jobs_for(&kinds, 4);
        reversed_jobs.reverse();
        let reversed = Engine::new(4).run(reversed_jobs);
        for (f, r) in forward.iter().zip(reversed.iter().rev()) {
            assert_eq!(f.label, r.label);
            assert_eq!(f.output, r.output);
        }
    }

    #[test]
    fn wall_clock_is_accounted_per_cell() {
        let cells = Engine::new(2).run(jobs_for(&[CoordinatorKind::Baseline], 2));
        for c in &cells {
            assert!(c.output.is_ok());
            assert!(c.wall > Duration::ZERO);
        }
    }
}
