//! The `tune` CLI: design-space exploration over Athena agent configurations on the
//! parallel experiment engine.
//!
//! ```text
//! cargo run --release --bin tune -- --quick --jobs 4
//! cargo run --release --bin tune -- --strategy halving --samples 16 --rungs 3
//! cargo run --release --bin tune -- --quick --trace-dir traces/
//! cargo run --release --bin tune -- --quick --bench-report
//! ```
//!
//! Writes `leaderboard.csv`, `leaderboard.json` (schema `athena-tune-v1`) and `best.json`
//! (the winning configuration) into `--out` (default `results/tune`); `--bench-report`
//! drops its `BENCH_tune.json` snapshot next to `BENCH_engine.json` in the working
//! directory unless `--out` relocates it. The leaderboard is
//! byte-identical at any `--jobs` value and under `--trace-dir` replay; the winning
//! configuration, fed back through `figures --fig tuned --tuned-config .../best.json`
//! with matching options, reproduces its claimed speedup exactly. Run `tune --help` for
//! the full flag reference (also rendered into `docs/CLI.md`).

use std::path::PathBuf;
use std::time::Instant;

use athena_engine::json::Json;
use athena_engine::report::{metrics_snapshot_json, TUNE_BENCH_SCHEMA};
use athena_engine::{available_parallelism, with_recording};
use athena_harness::cli::{fail, fail_env, TUNE_HELP as HELP};
use athena_harness::experiments::tuning_set;
use athena_harness::{DistPool, ProbeSink, RunOptions, StoreHandle, StorePolicy, WorkerCommand};
use athena_tune::{tune, DesignSpace, Leaderboard, Objective, TuneOptions, TuneStrategy};

struct Args {
    space: DesignSpace,
    strategy: TuneStrategy,
    run: RunOptions,
    tune_opts: TuneOptions,
    /// `--out`, when given. Leaderboard files default to `results/tune/`; the
    /// `--bench-report` snapshot defaults to the working directory (`BENCH_tune.json`,
    /// matching `figures --bench-report`); an explicit `--out` relocates both.
    out_dir: Option<PathBuf>,
    top: usize,
    bench_report: bool,
    /// The parallel worker count (`--jobs`, or every hardware thread).
    parallel_jobs: usize,
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
    let mut bench_report = false;
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
            "--bench-report" => bench_report = true,
            "--instructions" => {
                instructions = Some(
                    value("--instructions")?
                        .parse()
                        .map_err(|e| format!("bad --instructions: {e}"))?,
                )
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

    if bench_report && store_dir.is_some() {
        return Err(
            "--bench-report measures search wall-clock; a result store would serve \
             cached cells and corrupt the timings — drop --store"
                .to_string(),
        );
    }
    if workers.is_some() && bench_report {
        return Err(
            "--bench-report times the in-process pool against the serial path; a \
             distributed run is a different measurement — drop --workers"
                .to_string(),
        );
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
    let parallel_jobs = jobs.unwrap_or_else(available_parallelism);
    run.jobs = parallel_jobs;

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
        bench_report,
        parallel_jobs,
    })
}

fn write_file(probe: Option<&ProbeSink>, path: &std::path::Path, contents: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                fail_env(format!("cannot create {}: {e}", dir.display()));
            }
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        fail_env(format!("cannot write {}: {e}", path.display()));
    }
    if let Some(sink) = probe {
        sink.emit(&athena_engine::Event::ReportWritten {
            path: path.display().to_string(),
            bytes: contents.len(),
        });
    }
    println!("wrote {}", path.display());
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

/// `--bench-report`: the same search at `--jobs 1` and at the parallel worker count, a
/// byte-identity check between the two leaderboards, and a `BENCH_tune.json` snapshot.
fn run_bench_report(args: &Args, board: &Leaderboard, parallel_wall: std::time::Duration) {
    // The serial verification pass is not part of the observed run: it would interleave a
    // second batch of events into the same log and double the profile counts. The metrics
    // snapshot is taken here, before that pass, for the same reason.
    let metrics = metrics_snapshot_json(&athena_engine::metrics().snapshot());
    let mut serial_opts = args.tune_opts.clone().with_jobs(1);
    serial_opts.probe = None;
    serial_opts.progress = false;
    let start = Instant::now();
    let serial = tune(
        &args.space,
        &args.strategy,
        &tuning_set(&args.run),
        &serial_opts,
    );
    let serial_wall = start.elapsed();
    let identical = serial.to_csv() == board.to_csv()
        && serial.to_json().to_string() == board.to_json().to_string();
    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
    println!(
        "bench: serial {serial_wall:.1?}, parallel {parallel_wall:.1?} ({} jobs), \
         speedup {speedup:.2}x, identical: {identical}",
        args.parallel_jobs
    );
    if !identical {
        fail_env("parallel leaderboard diverged from the serial run");
    }
    let host = available_parallelism();
    let mut pairs = vec![
        ("jobs", Json::int(args.parallel_jobs)),
        ("host_parallelism", Json::int(host)),
    ];
    if host < 4 {
        pairs.push((
            "note",
            Json::str(format!(
                "measured on a {host}-thread host: parallel speedup needs hardware \
                 parallelism; determinism (identical leaderboards) is the asserted \
                 property here and in tests/tune_determinism.rs"
            )),
        ));
    }
    pairs.extend(vec![
        ("instructions", Json::num(board.instructions as f64)),
        ("workloads", Json::int(board.workloads.len())),
        ("candidates", Json::int(board.entries.len())),
        ("evaluations", Json::int(board.evaluations)),
        ("serial_ms", Json::num(serial_wall.as_secs_f64() * 1e3)),
        ("parallel_ms", Json::num(parallel_wall.as_secs_f64() * 1e3)),
        ("speedup", Json::num(speedup)),
        ("identical_to_serial", Json::Bool(identical)),
        ("metrics", metrics),
    ]);
    write_file(
        args.run.probe.as_ref(),
        // An explicit --out relocates the snapshot; by default it lands in the working
        // directory, next to BENCH_engine.json (so the committed root copy regenerates
        // from the README's `tune --quick --bench-report` as-is).
        &match &args.out_dir {
            Some(dir) => dir.join("BENCH_tune.json"),
            None => PathBuf::from("BENCH_tune.json"),
        },
        &TUNE_BENCH_SCHEMA.document(pairs).to_pretty(),
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
    if args.bench_report {
        run_bench_report(&args, &board, wall);
    }
}
