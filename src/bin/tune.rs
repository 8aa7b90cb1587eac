//! The `tune` CLI: design-space exploration over Athena agent configurations on the
//! parallel experiment engine.
//!
//! ```text
//! cargo run --release --bin tune -- --quick --jobs 4
//! cargo run --release --bin tune -- --samples 16 --rungs 3
//! cargo run --release --bin tune -- --quick --trace-dir traces/
//! ```
//!
//! Writes `leaderboard.csv`, `leaderboard.json` (schema `athena-tune-v1`) and `best.json`
//! (the winning configuration) into `--out` (default `results/tune`). The leaderboard is
//! byte-identical at any `--jobs` value and under `--trace-dir` replay; the winning
//! configuration, fed back through `figures --fig tuned --tuned-config .../best.json`
//! with matching options, reproduces its claimed speedup exactly. Run `tune --help` for
//! the full flag reference (also rendered into `docs/CLI.md`).

use std::path::PathBuf;
use std::time::Instant;

use athena_engine::with_recording;
use athena_harness::cli::{
    cache_split, count, fail, parsed, serve_if_worker, value, write_file, RunFlags,
    TUNE_HELP as HELP,
};
use athena_harness::experiments::tuning_set;
use athena_harness::RunOptions;
use athena_tune::{
    tune, DesignSpace, Leaderboard, Objective, TuneOptions, TuneStrategy, DEFAULT_TUNE_SEED,
};

struct Args {
    space: DesignSpace,
    strategy: TuneStrategy,
    run: RunOptions,
    tune_opts: TuneOptions,
    /// `--out`, when given; leaderboard files default to `results/tune/`.
    out_dir: Option<PathBuf>,
    top: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut run = RunFlags::default();
    let mut samples = 16usize;
    let mut eta = 2usize;
    let mut rungs = 3usize;
    let mut seed = None;
    let mut objective = Objective::Speedup;
    let mut out_dir: Option<PathBuf> = None;
    let mut top = 10usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if run.accept(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--samples" => samples = count(&arg, &mut args)?,
            "--eta" => eta = parsed(&arg, &mut args)?,
            "--rungs" => rungs = parsed(&arg, &mut args)?,
            "--seed" => {
                let text = value(&arg, &mut args)?;
                let n = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                };
                seed = Some(n.map_err(|e| format!("bad --seed: {e}"))?);
            }
            "--objective" => {
                let name = value(&arg, &mut args)?;
                objective = Objective::from_name(&name).ok_or(format!(
                    "unknown objective '{name}' (speedup, accuracy-weighted, \
                     coverage-weighted, bandwidth-aware)"
                ))?;
            }
            "--out" => out_dir = Some(PathBuf::from(value(&arg, &mut args)?)),
            "--top" => top = parsed(&arg, &mut args)?,
            "--version" => {
                println!("tune {}", env!("CARGO_PKG_VERSION"));
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }

    let space = if run.quick {
        DesignSpace::quick()
    } else {
        DesignSpace::paper_default()
    };
    let strategy = TuneStrategy {
        samples,
        eta,
        rungs,
    };
    let run = run.into_options()?;
    let tune_opts = TuneOptions {
        engine: run.engine(),
        trace_dir: run.trace_dir.clone(),
        objective,
        seed: seed.unwrap_or(DEFAULT_TUNE_SEED),
        ..TuneOptions::new(run.instructions)
    };
    Ok(Args {
        space,
        strategy,
        run,
        tune_opts,
        out_dir,
        top,
    })
}

fn print_summary(board: &Leaderboard, top: usize) {
    println!(
        "objective {} over {} workloads; schedule: {}",
        board.objective.name(),
        board.workloads.len(),
        board
            .rungs
            .iter()
            .map(|r| format!("{}x{}", r.candidates, r.budget))
            .collect::<Vec<String>>()
            .join(" -> "),
    );
    println!("rank  objective   speedup   budget configuration");
    for (rank, e) in board.entries.iter().take(top).enumerate() {
        let features: Vec<&str> = e.config.features.iter().map(|f| f.short_name()).collect();
        println!(
            "{:<5} {:>9.4} {:>9.4} {:>8} a{} g{} e{} t{} [{}]",
            rank + 1,
            e.objective,
            e.speedup,
            e.budget,
            e.config.alpha,
            e.config.gamma,
            e.config.epsilon,
            e.config.tau,
            features.join("+"),
        );
    }
    let best = board.best();
    println!(
        "best: candidate {} with {} {:.4} (speedup {:.4}) after {} evaluations",
        best.id,
        board.objective.name(),
        best.objective,
        best.speedup,
        board.evaluations,
    );
}

fn main() {
    // Worker mode (`tune --workers N` spawns this same binary with `--worker`).
    if serve_if_worker() {
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => fail(e),
    };
    let workloads = tuning_set(&args.run);
    let start = Instant::now();
    let (board, recorded) =
        with_recording(|| tune(&args.space, &args.strategy, &workloads, &args.tune_opts));
    let wall = start.elapsed();
    print_summary(&board, args.top);
    println!(
        "[tune completed in {wall:.1?} with {} jobs: {} candidates, {} evaluations]\n",
        args.run.jobs,
        board.entries.len(),
        board.evaluations
    );
    if let Some(store) = &args.run.store {
        let (simulated, cached, reused) = cache_split(&recorded);
        println!(
            "[store] {simulated} simulated, {cached} cached, {reused} reused ({})",
            store.dir().display()
        );
    }
    let dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/tune"));
    let probe = args.run.probe.as_ref();
    write_file(probe, &dir.join("leaderboard.csv"), &board.to_csv());
    write_file(
        probe,
        &dir.join("leaderboard.json"),
        &board.to_json().to_pretty(),
    );
    write_file(
        probe,
        &dir.join("best.json"),
        &board.best_json().to_pretty(),
    );
}
