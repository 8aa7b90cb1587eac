//! The `tune` CLI: design-space exploration over Athena agent configurations on the
//! parallel experiment engine.
//!
//! ```text
//! cargo run --release --bin tune -- --quick --jobs 4
//! cargo run --release --bin tune -- --strategy halving --samples 16 --rungs 3
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

use athena_engine::{available_parallelism, with_recording};
use athena_harness::cli::{fail, fail_env, write_file, TUNE_HELP as HELP};
use athena_harness::experiments::tuning_set;
use athena_harness::{DistPool, ProbeSink, RunOptions, StoreHandle, StorePolicy, WorkerCommand};
use athena_tune::{tune, DesignSpace, Leaderboard, Objective, TuneOptions, TuneStrategy};

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
    let mut quick = false;
    let mut instructions: Option<u64> = None;
    let mut workload_limit: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut strategy_name = "halving".to_string();
    let mut samples = 16usize;
    let mut eta = 2usize;
    let mut rungs = 3usize;
    let mut seed: Option<u64> = None;
    let mut objective = Objective::Speedup;
    let mut out_dir: Option<PathBuf> = None;
    let mut top = 10usize;
    let mut store_dir: Option<PathBuf> = None;
    let mut store_policy: Option<String> = None;
    let mut events: Option<PathBuf> = None;
    let mut progress = false;
    let mut workers: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            args.next().ok_or(format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--instructions" => {
                let n: u64 = value("--instructions")?
                    .parse()
                    .map_err(|e| format!("bad --instructions: {e}"))?;
                if n == 0 {
                    return Err("--instructions must be at least 1".to_string());
                }
                instructions = Some(n);
            }
            "--workloads" => {
                workload_limit = Some(
                    value("--workloads")?
                        .parse()
                        .map_err(|e| format!("bad --workloads: {e}"))?,
                )
            }
            "--jobs" => {
                let n: usize = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                jobs = Some(n);
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value("--trace-dir")?)),
            "--strategy" => strategy_name = value("--strategy")?,
            "--samples" => {
                samples = value("--samples")?
                    .parse()
                    .map_err(|e| format!("bad --samples: {e}"))?;
                if samples == 0 {
                    return Err("--samples must be at least 1".to_string());
                }
            }
            "--eta" => {
                eta = value("--eta")?
                    .parse()
                    .map_err(|e| format!("bad --eta: {e}"))?
            }
            "--rungs" => {
                rungs = value("--rungs")?
                    .parse()
                    .map_err(|e| format!("bad --rungs: {e}"))?
            }
            "--seed" => {
                let text = value("--seed")?;
                let parsed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("bad --seed: {e}"))?);
            }
            "--objective" => {
                let name = value("--objective")?;
                objective = Objective::from_name(&name).ok_or(format!(
                    "unknown objective '{name}' (speedup, accuracy-weighted, \
                     coverage-weighted, bandwidth-aware)"
                ))?;
            }
            "--events" => events = Some(PathBuf::from(value("--events")?)),
            "--progress" => progress = true,
            "--workers" => {
                let n: usize = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                workers = Some(n);
            }
            "--worker" => {
                return Err(
                    "--worker must be the sole argument (it is how a coordinator invokes \
                     its worker processes, not a run option)"
                        .to_string(),
                )
            }
            "--store" => store_dir = Some(PathBuf::from(value("--store")?)),
            "--store-policy" => store_policy = Some(value("--store-policy")?),
            "--out" => out_dir = Some(PathBuf::from(value("--out")?)),
            "--top" => {
                top = value("--top")?
                    .parse()
                    .map_err(|e| format!("bad --top: {e}"))?
            }
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

    if store_policy.is_some() && store_dir.is_none() {
        return Err("--store-policy only applies with --store <DIR>".to_string());
    }
    let mut run = if quick {
        RunOptions::quick()
    } else {
        RunOptions::full()
    };
    if let Some(i) = instructions {
        run.instructions = i;
    }
    if let Some(w) = workload_limit {
        run.workload_limit = Some(w);
    }
    run.trace_dir = trace_dir;
    run.jobs = jobs.unwrap_or_else(available_parallelism);

    let space = if quick {
        DesignSpace::quick()
    } else {
        DesignSpace::paper_default()
    };
    let strategy = match strategy_name.as_str() {
        "halving" => TuneStrategy::Halving {
            samples,
            eta,
            rungs,
        },
        "random" => TuneStrategy::Random { samples },
        other => return Err(format!("unknown strategy '{other}' (halving, random)")),
    };
    let mut tune_opts = TuneOptions::new(run.instructions)
        .with_jobs(run.jobs)
        .with_objective(objective);
    if let Some(s) = seed {
        tune_opts = tune_opts.with_seed(s);
    }
    if let Some(dir) = &run.trace_dir {
        tune_opts = tune_opts.with_trace_dir(dir.clone());
    }
    let policy = match &store_policy {
        Some(name) => StorePolicy::from_name(name)
            .ok_or_else(|| format!("unknown --store-policy '{name}' (rw, ro, refresh, off)"))?,
        None => StorePolicy::ReadWrite,
    };
    // `off` skips the store entirely; an unopenable or corrupt store exits 1 here
    // (environment failure), not through the usage-error path (exit 2).
    if let Some(dir) = store_dir.filter(|_| policy != StorePolicy::Off) {
        match StoreHandle::open(&dir, policy) {
            Ok(handle) => {
                run.store = Some(handle.clone());
                tune_opts = tune_opts.with_store(handle);
            }
            Err(e) => fail_env(format!("result store {}: {e}", dir.display())),
        }
    }
    if let Some(path) = events {
        let sink = ProbeSink::create(&path)
            .unwrap_or_else(|e| fail_env(format!("event log {}: {e}", path.display())));
        run.probe = Some(sink.clone());
        tune_opts = tune_opts.with_probe(sink);
    }
    run.progress = progress;
    tune_opts = tune_opts.with_progress(progress);
    if let Some(n) = workers {
        let command = WorkerCommand::self_worker().unwrap_or_else(|e| fail_env(e));
        let pool = DistPool::new(command, n);
        run.dist = Some(pool.clone());
        tune_opts = tune_opts.with_dist(pool);
    }
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
    // Worker mode: serve shards from a coordinator (`tune --workers N` spawns this same
    // binary with `--worker`) over stdin/stdout until the coordinator closes the pipe.
    if std::env::args().nth(1).as_deref() == Some("--worker") && std::env::args().count() == 2 {
        athena_engine::dist::serve();
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
        let cached = recorded.iter().filter(|c| c.cached).count();
        println!(
            "[store] {} simulated, {cached} cached ({})",
            recorded.len() - cached,
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
