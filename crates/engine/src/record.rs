//! Per-cell telemetry recording.
//!
//! Experiments consume engine results internally and return only aggregate tables, so the
//! per-cell records (label, seed, wall-clock, outcome) that the JSON reports need would
//! otherwise be lost. [`with_recording`] opens a thread-local collection scope: every
//! [`crate::Engine::run`] batch executed on the same thread inside the scope appends its
//! cell records, and the scope returns them alongside the closure's value — no plumbing
//! through the experiment functions required.

use std::cell::RefCell;
use std::time::Duration;

use athena_sim::DramStats;
use athena_telemetry::Timeline;

use crate::codec::{u64_json, Codec};
use crate::exec::CellResult;
use crate::job::JobOutput;
use crate::json::Json;
use crate::report::timeline_json;

thread_local! {
    static RECORDER: RefCell<Option<Vec<CellRecord>>> = const { RefCell::new(None) };
}

/// Metadata of one executed cell (the result payload itself is not retained).
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The experiment the cell belongs to.
    pub experiment: String,
    /// Cell label (`workload/coordinator/config`).
    pub label: String,
    /// The job's derived seed.
    pub seed: u64,
    /// Wall-clock time spent simulating the cell (zero for cells served from a result
    /// store or reused from the run's cell memo).
    pub wall: Duration,
    /// Whether the cell's result was served from a result store instead of simulated.
    pub cached: bool,
    /// Whether the cell's result was reused from the run's cell memo instead of simulated.
    pub reused: bool,
    /// The panic message, if the cell failed.
    pub error: Option<String>,
    /// End-of-run DRAM-channel statistics (single-core cells only; `None` for failed or
    /// multi-core cells). Lets report consumers — tuning objectives, bandwidth figures —
    /// see the traffic a cell generated, not just its IPC.
    pub dram: Option<DramStats>,
    /// The cell's windowed time series, when its job requested telemetry (single-core
    /// cells only; `None` otherwise).
    pub timeline: Option<Timeline>,
    /// The cell's hot-path phase profile, when profiling was on while it simulated
    /// (`None` for cached and failed cells).
    pub profile: Option<athena_probe::PhaseProfile>,
    /// The distributed worker that simulated the cell (`None` for in-process and
    /// cached cells).
    pub origin: Option<crate::CellOrigin>,
}

impl CellRecord {
    /// Serialises the record for the per-figure JSON reports. A collected timeline is
    /// embedded in full, so `--timeline`-style runs carry their series through the same
    /// report pipeline as everything else.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("label", Json::str(&self.label)),
            ("seed", Json::hex(self.seed)),
            ("wall_ms", Json::num(self.wall.as_secs_f64() * 1e3)),
            ("ok", Json::Bool(self.error.is_none())),
            ("cached", Json::Bool(self.cached)),
        ];
        if self.reused {
            pairs.push(("reused", Json::Bool(true)));
        }
        if let Some(e) = &self.error {
            pairs.push(("error", Json::str(e)));
        }
        if let Some(d) = &self.dram {
            pairs.push(("dram", d.encode()));
        }
        if let Some(t) = &self.timeline {
            pairs.push(("timeline", timeline_json(t)));
        }
        if let Some(p) = &self.profile {
            pairs.push(("profile", p.encode()));
        }
        if let Some(origin) = self.origin {
            pairs.push(("worker", Json::int(origin.worker)));
            pairs.push(("pid", u64_json(origin.pid)));
        }
        Json::obj(pairs)
    }
}

/// Restores the previous recording scope on unwind, so a panicking closure (e.g. a failed
/// cell reaching table assembly) cannot leave the thread-local recorder stuck on. The
/// success path of [`with_recording`] disarms the guard and restores the scope itself.
struct ScopeGuard {
    previous: Option<Vec<CellRecord>>,
    armed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.armed {
            let previous = self.previous.take();
            RECORDER.with(|r| *r.borrow_mut() = previous);
        }
    }
}

/// Runs `f` with cell recording enabled on this thread and returns its value together with
/// every cell record produced by engine batches inside the scope. Scopes nest: an inner
/// scope captures its own cells and the outer scope does not see them. Panic-safe: if `f`
/// unwinds, the scope's records are discarded and the previous scope is restored before the
/// panic propagates.
pub fn with_recording<T>(f: impl FnOnce() -> T) -> (T, Vec<CellRecord>) {
    let mut guard = ScopeGuard {
        previous: RECORDER.with(|r| r.borrow_mut().replace(Vec::new())),
        armed: true,
    };
    let value = f();
    guard.armed = false;
    let cells = RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let cells = slot.take().unwrap_or_default();
        *slot = guard.previous.take();
        cells
    });
    (value, cells)
}

/// Appends the batch's cell metadata to the active recording scope, if any.
pub(crate) fn record_cells(cells: &[CellResult]) {
    RECORDER.with(|r| {
        if let Some(records) = r.borrow_mut().as_mut() {
            records.extend(cells.iter().map(|c| CellRecord {
                experiment: c.experiment.clone(),
                label: c.label.clone(),
                seed: c.seed,
                wall: c.wall,
                cached: c.cached,
                reused: c.reused,
                error: c.output.as_ref().err().cloned(),
                dram: match &c.output {
                    Ok(JobOutput::Single(r)) => Some(r.dram),
                    _ => None,
                },
                timeline: match &c.output {
                    Ok(JobOutput::Single(r)) => r.timeline.clone(),
                    _ => None,
                },
                profile: c.profile,
                origin: c.origin,
            }));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Engine;
    use crate::job::Job;
    use crate::kinds::{CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};
    use athena_workloads::all_workloads;

    fn one_job() -> Job {
        Job::single(
            "rec-test",
            all_workloads()[0].clone(),
            SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet),
            CoordinatorKind::Baseline,
            5_000,
        )
    }

    #[test]
    fn recording_scope_captures_engine_batches() {
        let ((), cells) = with_recording(|| {
            Engine::new(2).run(vec![one_job(), one_job()]);
        });
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].experiment, "rec-test");
        assert!(cells[0].error.is_none());
        let json = cells[0].to_json().to_string();
        assert!(json.contains("\"ok\":true"));
        // Single-core cells carry their DRAM-channel snapshot into the JSON record.
        let dram = cells[0].dram.expect("single-core cell has DRAM stats");
        assert!(dram.total_requests > 0);
        assert!(json.contains("\"dram\":{\"total_requests\":"));
    }

    #[test]
    fn recording_scope_captures_timelines_of_telemetry_jobs() {
        let ((), cells) = with_recording(|| {
            Engine::new(1).run(vec![one_job().with_telemetry(2048), one_job()]);
        });
        let timeline = cells[0].timeline.as_ref().expect("telemetry cell");
        assert!(!timeline.windows.is_empty());
        assert!(cells[1].timeline.is_none());
        let json = cells[0].to_json().to_string();
        assert!(json.contains("\"timeline\""));
        assert!(json.contains("\"window_instructions\":2048"));
    }

    #[test]
    fn no_scope_means_no_recording_overhead_or_leak() {
        Engine::new(1).run(vec![one_job()]);
        let ((), cells) = with_recording(|| {});
        assert!(cells.is_empty(), "cells outside the scope are not captured");
    }

    #[test]
    fn unwinding_scope_restores_the_previous_one() {
        let ((), outer) = with_recording(|| {
            Engine::new(1).run(vec![one_job()]);
            let panic = std::panic::catch_unwind(|| {
                with_recording(|| {
                    Engine::new(1).run(vec![one_job()]);
                    panic!("cell assembly failed");
                })
            });
            assert!(panic.is_err());
            // The outer scope must still be active and must not have absorbed the
            // panicked inner scope's records.
            Engine::new(1).run(vec![one_job()]);
        });
        assert_eq!(outer.len(), 2, "outer scope survives an inner panic intact");
    }

    #[test]
    fn scopes_nest() {
        let ((), outer) = with_recording(|| {
            Engine::new(1).run(vec![one_job()]);
            let ((), inner) = with_recording(|| {
                Engine::new(1).run(vec![one_job(), one_job()]);
            });
            assert_eq!(inner.len(), 2);
        });
        assert_eq!(outer.len(), 1, "outer scope sees only its own batch");
    }
}
