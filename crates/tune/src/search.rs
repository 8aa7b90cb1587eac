//! The search strategies and the tuning driver.
//!
//! [`tune`] evaluates candidates drawn from a [`DesignSpace`] on the experiment engine:
//! every (candidate × workload) pair — plus one shared prefetchers-only baseline run per
//! workload and budget — becomes an [`athena_engine::Job`] run on [`TuneOptions::engine`],
//! so the search inherits the engine's worker pool, per-cell panic isolation, result
//! store and trace-directory replay wholesale. The search is successive halving over
//! seeded samples: draw N candidates from the space with a seeded RNG, screen them all on
//! a short budget, promote the best `1/η` to an η-times-longer budget, and repeat until
//! the survivors have run the full budget ([`halving_schedule`]). One rung is plain
//! random search: every candidate runs the full budget.
//!
//! Everything downstream of the engine is a pure fold over the in-order cell results, so
//! the returned [`Leaderboard`] is byte-identical at any worker count and under trace
//! replay.

use std::path::PathBuf;

use athena_engine::{
    CellResult, CoordinatorKind, Engine, Job, OcpKind, PrefetcherKind, RunResult, SystemConfig,
};
use athena_workloads::WorkloadSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::leaderboard::{CandidateResult, Leaderboard};
use crate::objective::Objective;
use crate::space::DesignSpace;

/// The experiment name tuning cells run under (their seed namespace).
pub const TUNE_EXPERIMENT: &str = "tune";

/// Default sampling seed for candidate draws ("DSE").
pub const DEFAULT_TUNE_SEED: u64 = 0xd5e;

/// The smallest budget a screening rung may use: a couple of coordination epochs, below
/// which every online policy is indistinguishable noise.
pub const MIN_RUNG_BUDGET: u64 = 4_096;

/// Options shared by every strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOptions {
    /// Final-rung instruction budget per workload — the budget the leaderboard's scores
    /// are measured at.
    pub instructions: u64,
    /// The engine every evaluation batch runs on, with its worker count and whatever it
    /// has attached: a result store, a cell memo, a distributed worker pool, an event sink
    /// or the progress line (see [`Engine`]). Leaderboards are byte-identical on any of
    /// them. Rung budgets are part of each cell's identity, so a search re-entered over a
    /// widened space (or after a kill) on a store re-simulates only the
    /// (candidate × workload × budget) cells the store has not seen.
    pub engine: Engine,
    /// Optional directory of recorded traces; single-core cells whose workload has a
    /// `<name>.trace` file there replay it, exactly like `figures --trace-dir`.
    pub trace_dir: Option<PathBuf>,
    /// The scoring rule.
    pub objective: Objective,
    /// Seed of the candidate-sampling RNG (never of the simulations themselves).
    pub seed: u64,
    /// The system configuration candidates are evaluated on (default: CD1 with Pythia and
    /// POPET, the paper's tuning setup).
    pub config: SystemConfig,
}

impl TuneOptions {
    /// Options with the given final budget, a serial engine with nothing attached, and
    /// every other field at its default.
    pub fn new(instructions: u64) -> Self {
        Self {
            instructions,
            engine: Engine::new(1),
            trace_dir: None,
            objective: Objective::Speedup,
            seed: DEFAULT_TUNE_SEED,
            config: SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet),
        }
    }

    /// Returns a copy running its evaluation batches on `engine`.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Returns a copy replaying recorded traces from `dir`.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Returns a copy scoring with a different objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }
}

/// How candidates are drawn and promoted: successive halving screens `samples`
/// candidates over `rungs` budgets growing by a factor of `eta`, keeping the best `1/eta`
/// at each promotion. With `rungs: 1` every candidate runs the full budget (random
/// search).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneStrategy {
    /// Number of candidates entering the first rung.
    pub samples: usize,
    /// Promotion/elimination factor (clamped to ≥ 2).
    pub eta: usize,
    /// Number of budget rungs (clamped to ≥ 1); the last rung always runs the full
    /// budget.
    pub rungs: usize,
}

/// One rung of a halving schedule: how many candidates run, and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Candidates evaluated in this rung.
    pub candidates: usize,
    /// Instruction budget per workload.
    pub budget: u64,
}

/// Builds a successive-halving schedule.
///
/// The last rung always runs exactly `final_budget` instructions with
/// `max(1, ceil(samples / eta^(rungs-1)))` candidates; earlier rungs run `eta`-times
/// shorter budgets (floored at [`MIN_RUNG_BUDGET`]) with `eta`-times more candidates.
/// Rungs whose floored budget would not be strictly below the next rung's are merged away
/// (keeping the largest candidate pool), so the returned schedule always satisfies the
/// invariants the tuner relies on: budgets strictly increase, candidate counts never
/// increase, every rung runs at least one candidate, and the first rung admits the whole
/// sample.
pub fn halving_schedule(samples: usize, eta: usize, rungs: usize, final_budget: u64) -> Vec<Rung> {
    let samples = samples.max(1);
    let eta = eta.max(2);
    let rungs = rungs.max(1);
    let final_budget = final_budget.max(1);

    // Raw schedule: survivors shrink by eta per rung, budgets grow by eta toward the
    // final budget.
    let mut raw = Vec::with_capacity(rungs);
    let mut candidates = samples;
    for i in 0..rungs {
        let shrink = eta.saturating_pow((rungs - 1 - i) as u32) as u64;
        let budget = if i == rungs - 1 {
            final_budget
        } else {
            (final_budget / shrink.max(1)).max(MIN_RUNG_BUDGET)
        };
        raw.push(Rung { candidates, budget });
        candidates = candidates.div_ceil(eta).max(1);
    }

    // Merge rungs flattened together by the budget floor (or by a tiny final budget):
    // scanning from the end, keep a rung only if it is strictly shorter than the next
    // kept one; the earliest (largest-pool) rung of each merged group survives.
    let mut schedule: Vec<Rung> = Vec::with_capacity(raw.len());
    for rung in raw.into_iter().rev() {
        match schedule.last_mut() {
            Some(next) if rung.budget >= next.budget => next.candidates = rung.candidates,
            _ => schedule.push(rung),
        }
    }
    schedule.reverse();
    schedule
}

/// The candidates entering the first rung: the space's full enumeration when it is
/// enumerable and no larger than `samples` (the grid *is* the search, no need to sample
/// it), otherwise `samples` seeded draws.
fn initial_candidates(
    space: &DesignSpace,
    samples: usize,
    seed: u64,
) -> Vec<athena_core::AthenaConfig> {
    let samples = samples.max(1);
    if let Some(all) = space.enumerate() {
        if all.len() <= samples && !all.is_empty() {
            return all;
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..samples).map(|_| space.sample(&mut rng)).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the search and returns the ranked leaderboard.
///
/// Ranking is total and deterministic: candidates that reached a later rung come first;
/// within a rung, higher objective wins; exact ties fall back to the (stable) candidate
/// id. Wall-clock never enters the leaderboard, so its bytes are identical on any
/// [`TuneOptions::engine`].
///
/// # Panics
///
/// Panics if `workloads` is empty, or if a simulation cell fails (e.g. a corrupt trace
/// under [`TuneOptions::trace_dir`]) — a leaderboard with holes would rank candidates on
/// different evidence.
pub fn tune(
    space: &DesignSpace,
    strategy: &TuneStrategy,
    workloads: &[WorkloadSpec],
    opts: &TuneOptions,
) -> Leaderboard {
    assert!(!workloads.is_empty(), "tuning needs at least one workload");
    let configs = initial_candidates(space, strategy.samples, opts.seed);
    let rungs = halving_schedule(
        configs.len(),
        strategy.eta,
        strategy.rungs,
        opts.instructions,
    );

    let mut entries: Vec<CandidateResult> = configs
        .into_iter()
        .enumerate()
        .map(|(id, config)| CandidateResult {
            id,
            config,
            rung: 0,
            budget: 0,
            objective: 0.0,
            speedup: 0.0,
            prefetch_accuracy: 0.0,
            prefetch_coverage: 0.0,
            dram_ratio: 0.0,
        })
        .collect();

    // The prefetchers-only baseline cell of one workload at one budget; a candidate's
    // cell is this cell with the coordinator overridden ([`Job::with_athena_config`]).
    let baseline = |spec: &WorkloadSpec, budget: u64| {
        Job::single_or_replay(
            TUNE_EXPERIMENT,
            spec,
            opts.trace_dir.as_deref(),
            opts.config.clone(),
            CoordinatorKind::PrefetchersOnly,
            budget,
        )
    };
    let mut survivors: Vec<usize> = (0..entries.len()).collect();
    let mut evaluations = 0usize;

    for (rung_index, rung) in rungs.iter().enumerate() {
        survivors.truncate(rung.candidates);

        // One engine batch per rung: the shared baselines first, then each surviving
        // candidate's cells, all in workload order.
        let mut jobs: Vec<Job> = workloads
            .iter()
            .map(|spec| baseline(spec, rung.budget))
            .collect();
        for &id in &survivors {
            jobs.extend(workloads.iter().map(|spec| {
                baseline(spec, rung.budget).with_athena_config(entries[id].config.clone())
            }));
        }
        let mut results = opts
            .engine
            .run(jobs)
            .into_iter()
            .map(CellResult::into_single);
        let baselines: Vec<RunResult> = results.by_ref().take(workloads.len()).collect();

        for &id in &survivors {
            let runs: Vec<RunResult> = results.by_ref().take(workloads.len()).collect();
            evaluations += runs.len();
            let sum = |f: fn(&RunResult) -> u64| -> u64 { runs.iter().map(f).sum() };
            let entry = &mut entries[id];
            entry.rung = rung_index;
            entry.budget = rung.budget;
            entry.objective = opts.objective.score_set(&runs, &baselines);
            entry.speedup = Objective::Speedup.score_set(&runs, &baselines);
            entry.prefetch_accuracy = ratio(
                sum(|r| r.stats.prefetches_useful),
                sum(|r| r.stats.prefetches_issued),
            );
            entry.prefetch_coverage = ratio(
                sum(|r| r.stats.prefetches_useful),
                sum(|r| r.stats.prefetches_useful) + sum(|r| r.stats.llc_misses),
            );
            entry.dram_ratio = ratio(
                sum(|r| r.dram.total_requests),
                baselines.iter().map(|r| r.dram.total_requests).sum(),
            );
        }

        // Rank this rung's survivors; the next iteration truncates to its pool size.
        survivors.sort_by(|&a, &b| {
            entries[b]
                .objective
                .partial_cmp(&entries[a].objective)
                .expect("objective scores are finite")
                .then(a.cmp(&b))
        });
    }

    // Final ranking over every candidate: later rung first, then objective, then id.
    entries.sort_by(|a, b| {
        b.rung
            .cmp(&a.rung)
            .then(
                b.objective
                    .partial_cmp(&a.objective)
                    .expect("objective scores are finite"),
            )
            .then(a.id.cmp(&b.id))
    });

    Leaderboard {
        objective: opts.objective,
        instructions: rungs.last().expect("at least one rung").budget,
        workloads: workloads.iter().map(|w| w.name.clone()).collect(),
        rungs,
        evaluations,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_workloads::tuning_workloads;

    fn tiny_opts() -> TuneOptions {
        TuneOptions::new(8_192).with_engine(Engine::new(2))
    }

    #[test]
    fn schedule_final_rung_is_exact_and_invariants_hold() {
        let s = halving_schedule(16, 2, 3, 400_000);
        assert_eq!(s.len(), 3);
        assert_eq!(
            s[0],
            Rung {
                candidates: 16,
                budget: 100_000
            }
        );
        assert_eq!(
            s[1],
            Rung {
                candidates: 8,
                budget: 200_000
            }
        );
        assert_eq!(
            s[2],
            Rung {
                candidates: 4,
                budget: 400_000
            }
        );
    }

    #[test]
    fn schedule_merges_rungs_flattened_by_the_floor() {
        // 8192/4 and 8192/2 both floor to MIN_RUNG_BUDGET; the merged schedule keeps one
        // screening rung with the full pool.
        let s = halving_schedule(9, 2, 3, 8_192);
        assert_eq!(s.len(), 2);
        assert_eq!(
            s[0],
            Rung {
                candidates: 9,
                budget: MIN_RUNG_BUDGET
            }
        );
        assert_eq!(s[1].budget, 8_192);
        // A final budget at the floor collapses to a single full-pool rung.
        let s = halving_schedule(9, 2, 3, MIN_RUNG_BUDGET);
        assert_eq!(
            s,
            vec![Rung {
                candidates: 9,
                budget: MIN_RUNG_BUDGET
            }]
        );
    }

    #[test]
    fn enumerable_spaces_skip_sampling() {
        let space = DesignSpace::quick();
        let six = initial_candidates(&space, 16, 1);
        assert_eq!(six.len(), 6, "full grid fits inside the sample budget");
        let sampled = initial_candidates(&space, 4, 1);
        assert_eq!(sampled.len(), 4, "grid larger than the budget is sampled");
    }

    #[test]
    fn random_and_halving_produce_full_leaderboards() {
        let space = DesignSpace::quick();
        let workloads: Vec<WorkloadSpec> = tuning_workloads().into_iter().take(2).collect();
        let random = tune(
            &space,
            &TuneStrategy {
                samples: 6,
                eta: 2,
                rungs: 1,
            },
            &workloads,
            &tiny_opts(),
        );
        assert_eq!(random.entries.len(), 6);
        assert_eq!(random.rungs.len(), 1);
        assert_eq!(random.evaluations, 6 * 2);
        assert_eq!(random.instructions, 8_192);

        let halving = tune(
            &space,
            &TuneStrategy {
                samples: 6,
                eta: 2,
                rungs: 2,
            },
            &workloads,
            &tiny_opts(),
        );
        assert_eq!(halving.entries.len(), 6);
        assert_eq!(halving.rungs.len(), 2);
        // 6 candidates screened, 3 promoted; every rung pays its baselines too.
        assert_eq!(halving.evaluations, (6 + 3) * 2);
        let best = halving.best();
        assert_eq!(best.budget, 8_192, "the winner ran the full budget");
        assert!(best.objective > 0.0);
        // Ranking is total: survivors of the final rung precede the screened-out.
        assert!(halving.entries.windows(2).all(|w| w[0].rung >= w[1].rung));
    }

    #[test]
    fn leaderboards_are_identical_at_any_worker_count() {
        let space = DesignSpace::quick();
        let workloads: Vec<WorkloadSpec> = tuning_workloads().into_iter().take(2).collect();
        let strategy = TuneStrategy {
            samples: 6,
            eta: 2,
            rungs: 2,
        };
        let serial = tune(
            &space,
            &strategy,
            &workloads,
            &tiny_opts().with_engine(Engine::new(1)),
        );
        let parallel = tune(
            &space,
            &strategy,
            &workloads,
            &tiny_opts().with_engine(Engine::new(4)),
        );
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }
}
