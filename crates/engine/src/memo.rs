//! The per-run cell memo: each distinct cell is simulated about once per run.
//!
//! Many experiments of the evaluation ask for the same cells — every coordination policy
//! is measured against the same no-prefetching baseline and the same static combinations
//! — and such a cell computes the same output whichever experiment asked for it. A
//! [`CellMemo`] lets one run (one `figures` or `tune` invocation, one benchmark pass)
//! hand an earlier experiment's output to a later request for the same cell instead of
//! simulating it again.
//!
//! * **Key.** The store's canonical facets with the experiment name left out: the
//!   identity facets after the experiment ([`Job::hash_cell_into`]), the workload
//!   reference's kind and a trace file's path, plus [`variant_hash`]. [`Job::run`] reads
//!   neither the experiment nor the seed, so equal keys mean equal outputs.
//! * **Admission.** The first request for a key records the key alone. A later request
//!   simulates again and its output is kept; every request after that reuses the kept
//!   output. So a cell asked for once costs a map entry, not its output.
//! * **Ceiling.** Kept outputs are charged their approximate heap size. Once an output
//!   would take the total past the memo's ceiling ([`MEMO_CEILING_BYTES`] by default),
//!   nothing new is admitted for the rest of the run; already kept outputs stay usable.
//! * **Determinism.** The engine looks every cell up and admits every output on the
//!   batch's calling thread in submission order, so which cells are reused is the same
//!   at any `--jobs` or `--workers` count, and a reused output is bit-identical to a
//!   fresh one.

use std::fmt;
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard};

use athena_sim::fastmap::FxHashMap;
use athena_sim::{CoordinatorTelemetry, EpochStats, SimResult};
use athena_telemetry::WindowSample;

use crate::exec::Source;
use crate::job::{Job, JobOutput, RunResult, WorkloadRef};
use crate::seed::SeedHasher;
use crate::store::variant_hash;

/// The default ceiling on the bytes of output a [`CellMemo`] keeps: 32 MiB. A kept
/// output is charged about 4 KB at the quick preset's 40 K instructions, where the
/// suite's 204 recurring cells stay far below the ceiling, and about 38 KB at the default
/// 400 K, where the ceiling stops admission after about 880 outputs.
const MEMO_CEILING_BYTES: usize = 32 << 20;

/// A memo key: the cell facets with the experiment left out, and the output variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    cell: u64,
    variant: u64,
}

impl MemoKey {
    /// The key of `job`.
    pub(crate) fn of(job: &Job) -> Self {
        let mut h = SeedHasher::new();
        job.hash_cell_into(&mut h);
        // The identity names a trace file's workload, not its path, so a replayed cell
        // and a generated one share an identity; the memo keeps them apart.
        match &job.cell {
            WorkloadRef::Single(_) => h.write_str("generated"),
            WorkloadRef::Multi(_) => h.write_str("mix"),
            WorkloadRef::File(file) => {
                h.write_str("file");
                h.write_bytes(file.path.as_os_str().as_encoded_bytes());
            }
        }
        Self {
            cell: h.finish(),
            variant: variant_hash(job),
        }
    }
}

enum Entry {
    /// Requested before; no output kept.
    Seen,
    /// An output kept for reuse, with the experiment that simulated it.
    Kept {
        experiment: String,
        output: JobOutput,
    },
}

struct State {
    entries: FxHashMap<MemoKey, Entry>,
    kept_bytes: usize,
    ceiling: usize,
    /// Set once an output did not fit under the ceiling: nothing is admitted after it.
    full: bool,
}

/// A per-run memo of cell outputs, shared by every clone (see the module docs).
///
/// Cloning shares the same memo; equality is identity of that shared memo, so two
/// separately created memos are never equal even when both are empty.
#[derive(Clone)]
pub struct CellMemo {
    state: Arc<Mutex<State>>,
}

impl CellMemo {
    /// An empty memo with the default ceiling of 32 MiB.
    pub fn new() -> Self {
        Self::with_ceiling(MEMO_CEILING_BYTES)
    }

    /// An empty memo that keeps at most `bytes` bytes of output.
    fn with_ceiling(bytes: usize) -> Self {
        Self {
            state: Arc::new(Mutex::new(State {
                entries: FxHashMap::default(),
                kept_bytes: 0,
                ceiling: bytes,
                full: false,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("cell memo mutex poisoned")
    }

    /// Answers one request for `job`'s cell, which missed the store, and notes it: a kept
    /// output is reused; otherwise the cell is simulated, and from its second request on
    /// its output is offered back through [`CellMemo::admit`].
    pub(crate) fn lookup(&self, job: &Job) -> Source {
        let key = MemoKey::of(job);
        let mut state = self.lock();
        match state.entries.get(&key) {
            Some(Entry::Kept { experiment, output }) => Source::Reused {
                output: output.clone(),
                from: experiment.clone(),
            },
            Some(Entry::Seen) => Source::Simulate { offer: Some(key) },
            None => {
                state.entries.insert(key, Entry::Seen);
                Source::Simulate { offer: None }
            }
        }
    }

    /// Keeps `output`, simulated by `experiment`, for later requests of `key` if it fits
    /// under the ceiling and nothing has been refused before it.
    pub(crate) fn admit(&self, key: MemoKey, experiment: &str, output: &JobOutput) {
        let mut state = self.lock();
        if state.full || matches!(state.entries.get(&key), Some(Entry::Kept { .. })) {
            return;
        }
        let bytes = output_bytes(output);
        if state.kept_bytes + bytes > state.ceiling {
            state.full = true;
            return;
        }
        state.kept_bytes += bytes;
        state.entries.insert(
            key,
            Entry::Kept {
                experiment: experiment.to_string(),
                output: output.clone(),
            },
        );
    }
}

impl Default for CellMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for CellMemo {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }
}

impl Eq for CellMemo {}

impl fmt::Debug for CellMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellMemo").finish_non_exhaustive()
    }
}

/// The approximate heap footprint of a kept output: its inline structs plus the
/// elements of its per-epoch series.
fn output_bytes(output: &JobOutput) -> usize {
    fn agent_bytes(agent: &Option<CoordinatorTelemetry>) -> usize {
        agent
            .as_ref()
            .map_or(0, |a| a.action_histogram.len() * size_of::<u64>())
    }
    fn sim_bytes(r: &SimResult) -> usize {
        size_of::<SimResult>()
            + r.epochs.len() * size_of::<EpochStats>()
            + r.agent_epochs.len() * size_of::<Option<CoordinatorTelemetry>>()
            + r.agent_epochs.iter().map(agent_bytes).sum::<usize>()
    }
    match output {
        JobOutput::Single(r) => {
            size_of::<RunResult>()
                + r.workload.len()
                + r.epochs.len() * size_of::<EpochStats>()
                + r.timeline.as_ref().map_or(0, |t| {
                    t.windows.len() * size_of::<WindowSample>()
                        + t.windows
                            .iter()
                            .map(|w| agent_bytes(&w.agent))
                            .sum::<usize>()
                })
        }
        JobOutput::Multi(m) => m.cores.iter().map(sim_bytes).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Engine;
    use crate::kinds::{CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};
    use athena_workloads::{all_workloads, mixes};

    fn job(experiment: &str) -> Job {
        Job::single(
            experiment,
            all_workloads()[0].clone(),
            SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet),
            CoordinatorKind::Athena,
            5_000,
        )
    }

    /// The number of kept outputs and their charged bytes.
    fn kept(memo: &CellMemo) -> (usize, usize) {
        let state = memo.lock();
        let cells = state
            .entries
            .values()
            .filter(|e| matches!(e, Entry::Kept { .. }))
            .count();
        (cells, state.kept_bytes)
    }

    /// Runs `jobs` as one batch per job through one engine sharing `memo`.
    fn run_each(memo: &CellMemo, jobs: &[Job]) -> Vec<crate::exec::CellResult> {
        let engine = Engine::new(1).with_memo(Some(memo.clone()));
        jobs.iter()
            .flat_map(|j| engine.run(vec![j.clone()]))
            .collect()
    }

    #[test]
    fn a_reused_output_equals_a_fresh_run_bit_for_bit() {
        let memo = CellMemo::new();
        let jobs = [job("fig7"), job("fig8a"), job("fig8b"), job("fig9")];
        let cells = run_each(&memo, &jobs);
        let reused: Vec<bool> = cells.iter().map(|c| c.reused).collect();
        assert_eq!(reused, [false, false, true, true]);
        let fresh = job("fig9").run();
        for cell in &cells {
            assert_eq!(cell.output.as_ref().unwrap(), &fresh);
        }
        // A reused cell keeps its own experiment and costs no simulation time.
        assert_eq!(cells[3].experiment, "fig9");
        assert_eq!(cells[3].wall, std::time::Duration::ZERO);
        assert!(cells[3].profile.is_none() && !cells[3].cached);
    }

    #[test]
    fn multicore_cells_are_shared_too() {
        let memo = CellMemo::new();
        let mc = |e: &str| {
            Job::multicore(
                e,
                mixes(2, 1, 7)[0].clone(),
                SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet),
                CoordinatorKind::Naive,
                3_000,
            )
        };
        let cells = run_each(&memo, &[mc("a"), mc("b"), mc("c")]);
        assert!(cells[2].reused);
        assert_eq!(cells[2].output.as_ref().unwrap(), &mc("c").run());
    }

    #[test]
    fn keys_ignore_the_experiment_and_nothing_else() {
        let base = MemoKey::of(&job("fig7"));
        assert_eq!(MemoKey::of(&job("fig13")), base);
        let differing = [
            job("fig7").with_telemetry(2048),
            job("fig7").with_athena_config(crate::kinds::default_athena_config()),
            Job {
                instructions: 6_000,
                ..job("fig7")
            },
            Job::from_file(
                "fig7",
                &all_workloads()[0].name,
                "a/410.trace",
                job("fig7").config,
                CoordinatorKind::Athena,
                5_000,
            ),
        ];
        for other in &differing {
            assert_ne!(MemoKey::of(other), base, "{}", other.label());
        }
        let file_b = Job {
            cell: WorkloadRef::File(crate::job::FileWorkload {
                name: all_workloads()[0].name.clone(),
                path: "b/410.trace".into(),
            }),
            ..differing[3].clone()
        };
        assert_ne!(MemoKey::of(&file_b), MemoKey::of(&differing[3]));
        assert_ne!(
            MemoKey::of(&job("fig7").with_telemetry(2048)),
            MemoKey::of(&job("fig7").with_telemetry(4096))
        );
    }

    #[test]
    fn an_output_is_kept_on_the_second_request() {
        let memo = CellMemo::new();
        run_each(&memo, &[job("a")]);
        assert_eq!(kept(&memo), (0, 0));
        run_each(&memo, &[job("b")]);
        let (cells, bytes) = kept(&memo);
        assert_eq!(cells, 1);
        assert!(bytes > size_of::<RunResult>());
        // Two requests inside one batch count the same way: the second is admitted.
        let other = CellMemo::new();
        Engine::new(2)
            .with_memo(Some(other.clone()))
            .run(vec![job("a"), job("b")]);
        assert_eq!(kept(&other).0, 1);
    }

    #[test]
    fn the_ceiling_stops_admission_and_changes_no_output() {
        let unbounded = run_each(&CellMemo::new(), &[job("a"), job("b"), job("c")]);
        let closed = CellMemo::with_ceiling(0);
        let bounded = run_each(&closed, &[job("a"), job("b"), job("c")]);
        assert!(bounded.iter().all(|c| !c.reused));
        assert_eq!(kept(&closed), (0, 0));
        for (u, b) in unbounded.iter().zip(&bounded) {
            assert_eq!(u.output, b.output);
        }
        // Past the ceiling nothing new is admitted, not even an output that would fit.
        let one = output_bytes(&job("a").run());
        let tight = CellMemo::with_ceiling(one);
        let big = Job {
            instructions: 20_000,
            ..job("a")
        };
        run_each(&tight, &[big.clone(), big.clone(), job("a"), job("b")]);
        assert_eq!(kept(&tight).0, 0, "the larger output closed the memo");
    }

    #[test]
    fn separate_memos_are_unequal_and_clones_share() {
        let memo = CellMemo::new();
        assert_eq!(memo, memo.clone());
        assert_ne!(CellMemo::new(), CellMemo::new());
        run_each(&memo.clone(), &[job("a"), job("b")]);
        assert_eq!(kept(&memo).0, 1);
    }
}
