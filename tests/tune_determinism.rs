//! Tuner determinism and round-trip guarantees (workspace-level).
//!
//! The design-space explorer rides on the engine, so it must inherit the engine's
//! byte-identity guarantees end to end: the leaderboard's CSV and JSON bytes must be
//! identical at `--jobs 1` vs `--jobs 4` and under `--trace-dir` replay of recorded
//! workloads; the successive-halving schedule must satisfy its invariants for arbitrary
//! parameters (proptest); and the winning configuration, written to disk and re-measured
//! by the harness's `tuned` experiment, must reproduce the leaderboard's claimed speedup
//! exactly — not approximately.

use proptest::prelude::*;

use athena_repro::engine::json::Json;
use athena_repro::harness::experiments::{run_experiment, tuning_set};
use athena_repro::harness::RunOptions;
use athena_repro::trace_io::{record_trace, TraceFormat};
use athena_repro::tune::{
    halving_schedule, load_config, tune, DesignSpace, Leaderboard, Objective, TuneOptions,
    TuneStrategy, MIN_RUNG_BUDGET,
};

const INSTRUCTIONS: u64 = 12_000;

fn run_opts(jobs: usize) -> RunOptions {
    RunOptions {
        instructions: INSTRUCTIONS,
        workload_limit: Some(4),
        jobs,
        trace_dir: None,
        tuned_config: None,
        store: None,
        dist: None,
        probe: None,
        progress: false,
        memo: Default::default(),
    }
}

fn tune_opts(jobs: usize) -> TuneOptions {
    TuneOptions::new(INSTRUCTIONS).with_engine(run_opts(jobs).engine())
}

fn strategy() -> TuneStrategy {
    TuneStrategy::Halving {
        samples: 6,
        eta: 2,
        rungs: 2,
    }
}

fn board(run: &RunOptions, opts: &TuneOptions) -> Leaderboard {
    tune(&DesignSpace::quick(), &strategy(), &tuning_set(run), opts)
}

#[test]
fn leaderboards_are_byte_identical_at_any_worker_count() {
    let serial = board(&run_opts(1), &tune_opts(1));
    let parallel = board(&run_opts(4), &tune_opts(4));
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "leaderboard CSV diverged between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        serial.to_json().to_pretty(),
        parallel.to_json().to_pretty(),
        "leaderboard JSON diverged between --jobs 1 and --jobs 4"
    );
    assert_eq!(serial, parallel);
}

#[test]
fn leaderboards_are_byte_identical_under_trace_replay() {
    let dir = std::env::temp_dir().join(format!("athena-tune-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = run_opts(2);
    for spec in tuning_set(&run) {
        let path = dir.join(format!("{}.trace", spec.name));
        let mut generator = spec.trace();
        record_trace(&mut generator, INSTRUCTIONS, &path, TraceFormat::Binary).unwrap();
    }
    let generated = board(&run, &tune_opts(2));
    let replayed = board(&run, &tune_opts(2).with_trace_dir(&dir));
    assert_eq!(
        generated.to_csv(),
        replayed.to_csv(),
        "leaderboard diverged between generation and trace replay"
    );
    assert_eq!(
        generated.to_json().to_pretty(),
        replayed.to_json().to_pretty()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn best_config_replayed_through_figures_reproduces_the_claimed_speedup_exactly() {
    let run = run_opts(2);
    let b = board(&run, &tune_opts(2));
    let dir = std::env::temp_dir().join(format!("athena-tune-best-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("best.json");
    std::fs::write(&path, b.best_json().to_pretty()).unwrap();

    // The written file must load back into exactly the explored configuration…
    assert_eq!(load_config(&path).unwrap(), b.best().config);

    // …and the claimed speedup must survive serialisation losslessly…
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let claimed = doc.get("speedup").and_then(Json::as_f64).unwrap();
    assert_eq!(claimed, b.best().speedup, "speedup was rounded on disk");

    // …and the harness's `tuned` experiment, on the same options, must reproduce it
    // bit for bit (same workloads, same budget, same scoring path).
    let replay = run_opts(2).with_tuned_config(&path);
    let table = run_experiment("tuned", &replay).expect("tuned is a known experiment");
    let measured = table.get("overall", "speedup").unwrap();
    assert_eq!(
        measured, claimed,
        "figures-replayed speedup differs from the leaderboard's claim"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn objectives_rank_on_their_own_criteria_deterministically() {
    // The non-default objectives run the same cells, so their leaderboards must list the
    // same candidates (same ids) with identical evidence budgets — only the ranking key
    // may differ — and stay deterministic across repeats.
    let run = run_opts(2);
    for objective in [Objective::BandwidthAware, Objective::AccuracyWeighted] {
        let a = board(&run, &tune_opts(2).with_objective(objective));
        let b = board(&run, &tune_opts(2).with_objective(objective));
        assert_eq!(a, b, "{} is nondeterministic", objective.name());
        assert_eq!(a.entries.len(), 6);
        for e in &a.entries {
            assert!(e.objective > 0.0);
            assert!(e.dram_ratio > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Successive-halving schedules satisfy their invariants for arbitrary parameters:
    /// strictly increasing budgets ending exactly at the requested final budget, a
    /// non-increasing candidate ladder starting with the full sample, and at least one
    /// candidate everywhere.
    #[test]
    fn halving_schedules_hold_their_invariants(
        samples in 1usize..200,
        eta in 2usize..6,
        rungs in 1usize..7,
        final_budget in 1u64..600_000,
    ) {
        let schedule = halving_schedule(samples, eta, rungs, final_budget);
        prop_assert!(!schedule.is_empty());
        prop_assert!(schedule.len() <= rungs);
        prop_assert_eq!(schedule[0].candidates, samples, "the first rung admits everyone");
        prop_assert_eq!(
            schedule.last().unwrap().budget,
            final_budget.max(1),
            "the last rung runs the full budget"
        );
        for pair in schedule.windows(2) {
            prop_assert!(pair[0].budget < pair[1].budget, "budgets must strictly increase");
            prop_assert!(
                pair[0].candidates >= pair[1].candidates,
                "survivor counts must never grow"
            );
            // Screening rungs never dip below the minimum useful budget (the final rung
            // is whatever the caller asked for).
            prop_assert!(pair[0].budget >= MIN_RUNG_BUDGET.min(final_budget.max(1)));
        }
        for rung in &schedule {
            prop_assert!(rung.candidates >= 1);
        }
    }
}
