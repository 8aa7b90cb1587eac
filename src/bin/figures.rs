//! The `figures` CLI: regenerates the paper's tables and figures on the parallel
//! experiment engine.
//!
//! ```text
//! cargo run --release --bin figures -- --fig fig7
//! cargo run --release --bin figures -- --all --quick --jobs 4
//! cargo run --release --bin figures -- --all --quick --json --out results/
//! cargo run --release --bin figures -- --fig fig7 --trace-dir traces/
//! cargo run --release --bin figures -- --timeline --quick --out results/
//! ```
//!
//! Run `figures --help` for the full flag reference (also rendered into `docs/CLI.md`).
//! `--jobs N` sets the engine worker count (default: every hardware thread); `--jobs 1`
//! is the exact serial path and produces byte-identical tables. `--json` writes one
//! machine-readable result file per experiment (aggregate table + per-cell records).
//! `--trace-dir` replays recorded traces
//! (written by the `trace` CLI) in place of in-process generation. `--timeline` runs the
//! windowed-telemetry study (per-cell time series + learning-curve table). `--store DIR`
//! attaches the persistent result store: finished cells are cached and a warm re-run with
//! the same options simulates nothing while producing byte-identical tables.
//! `--workers N` distributes every batch across N worker processes (this same binary in
//! `--worker` mode, spawned once and reused by every batch) with tables still
//! byte-identical to the in-process run;
//! `--events` and `--profile` compose with it — workers return each cell's wall-clock
//! and phase profile with its result and the coordinator logs the cell's events at
//! merge, so the log and `BENCH_sim.json` cover the whole distributed run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use athena_engine::codec::Codec;
use athena_engine::json::Json;
use athena_engine::report::{
    figure_report, metrics_snapshot_json, timeline_report, SIM_BENCH_SCHEMA,
};
use athena_engine::{
    available_parallelism, set_profiling, take_cell, with_recording, CellRecord, PhaseProfile,
    ProbeSink,
};
use athena_harness::cli::{fail, fail_env, write_file, FIGURES_HELP as HELP};
use athena_harness::experiments::{experiment_names, run_experiment};
use athena_harness::timeline::timeline_study;
use athena_harness::{DistPool, RunOptions, StoreHandle, StorePolicy, WorkerCommand};
use athena_telemetry::DEFAULT_WINDOW_INSTRUCTIONS;

struct Args {
    figs: Vec<String>,
    opts: RunOptions,
    out_dir: Option<PathBuf>,
    json: bool,
    timeline: bool,
    /// Hot-path phase profiling (the `--profile` flag): print a per-phase breakdown and
    /// write `BENCH_sim.json` + `profile.folded`.
    profile: bool,
    /// Telemetry window length for `--timeline` (the `--window` flag).
    window: u64,
}

/// Counts one batch's cache hits: `(simulated, cached)`.
fn cache_split(cells: &[athena_engine::CellRecord]) -> (usize, usize) {
    let cached = cells.iter().filter(|c| c.cached).count();
    (cells.len() - cached, cached)
}

fn parse_args() -> Result<Args, String> {
    let mut figs = Vec::new();
    let mut all = false;
    let mut quick = false;
    let mut instructions: Option<u64> = None;
    let mut workload_limit: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut tuned_config: Option<PathBuf> = None;
    let mut out_dir = None;
    let mut json = false;
    let mut timeline = false;
    let mut window: Option<u64> = None;
    let mut store_dir: Option<PathBuf> = None;
    let mut store_policy: Option<String> = None;
    let mut events: Option<PathBuf> = None;
    let mut progress = false;
    let mut profile = false;
    let mut workers: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => figs.push(args.next().ok_or("--fig needs a value")?),
            "--all" => all = true,
            "--quick" => quick = true,
            "--json" => json = true,
            "--timeline" => timeline = true,
            "--window" => {
                let n: u64 = args
                    .next()
                    .ok_or("--window needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --window: {e}"))?;
                if n == 0 {
                    return Err("--window must be at least 1 instruction".to_string());
                }
                window = Some(n);
            }
            "--instructions" => {
                let n: u64 = args
                    .next()
                    .ok_or("--instructions needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --instructions: {e}"))?;
                if n == 0 {
                    return Err("--instructions must be at least 1".to_string());
                }
                instructions = Some(n);
            }
            "--workloads" => {
                let n: usize = args
                    .next()
                    .ok_or("--workloads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --workloads: {e}"))?;
                if n == 0 {
                    return Err("--workloads must be at least 1".to_string());
                }
                workload_limit = Some(n);
            }
            "--jobs" => {
                let n: usize = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                jobs = Some(n);
            }
            "--trace-dir" => {
                trace_dir = Some(PathBuf::from(
                    args.next().ok_or("--trace-dir needs a value")?,
                ))
            }
            "--tuned-config" => {
                tuned_config = Some(PathBuf::from(
                    args.next().ok_or("--tuned-config needs a value")?,
                ))
            }
            "--store" => {
                store_dir = Some(PathBuf::from(args.next().ok_or("--store needs a value")?))
            }
            "--store-policy" => {
                store_policy = Some(args.next().ok_or("--store-policy needs a value")?)
            }
            "--events" => {
                events = Some(PathBuf::from(args.next().ok_or("--events needs a value")?))
            }
            "--progress" => progress = true,
            "--profile" => profile = true,
            "--workers" => {
                let n: usize = args
                    .next()
                    .ok_or("--workers needs a value")?
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
            "--out" => out_dir = Some(PathBuf::from(args.next().ok_or("--out needs a value")?)),
            "--list" => {
                for n in experiment_names() {
                    println!("{n}");
                }
                std::process::exit(0);
            }
            "--version" => {
                println!("figures {}", env!("CARGO_PKG_VERSION"));
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
    if timeline && (all || !figs.is_empty() || json) {
        return Err(
            "--timeline is a standalone mode and always writes CSV+JSON; \
                    drop --fig/--all/--json"
                .to_string(),
        );
    }
    if window.is_some() && !timeline {
        return Err("--window only applies to --timeline".to_string());
    }
    if profile && timeline {
        return Err(
            "--profile aggregates over figure sweeps; the timeline study has its own \
             output mode — drop one of them"
                .to_string(),
        );
    }
    if all {
        figs = experiment_names().iter().map(|s| s.to_string()).collect();
    }
    if figs.is_empty() && !timeline {
        return Err(
            "no experiment selected; use --fig <id>, --all (see --list) or --timeline".to_string(),
        );
    }
    if figs.iter().any(|f| f == "tuned") && tuned_config.is_none() {
        return Err("--fig tuned needs --tuned-config <FILE> (written by `tune`)".to_string());
    }
    if let Some(path) = &tuned_config {
        // Fail fast on a bad file, before any simulation time is spent.
        athena_tune::load_config(path)?;
    }
    let mut opts = if quick {
        RunOptions::quick()
    } else {
        RunOptions::full()
    };
    if let Some(i) = instructions {
        opts.instructions = i;
    }
    if let Some(w) = workload_limit {
        opts.workload_limit = Some(w);
    }
    opts.trace_dir = trace_dir;
    opts.tuned_config = tuned_config;
    opts.jobs = jobs.unwrap_or_else(available_parallelism);
    let policy = match &store_policy {
        Some(name) => StorePolicy::from_name(name)
            .ok_or_else(|| format!("unknown --store-policy '{name}' (rw, ro, refresh, off)"))?,
        None => StorePolicy::ReadWrite,
    };
    // `off` skips the store entirely; an unopenable or corrupt store exits 1 inside
    // `open_store` (environment failure), not through the usage-error path (exit 2).
    if let Some(dir) = store_dir.filter(|_| policy != StorePolicy::Off) {
        opts.store = Some(open_store(&dir, policy));
    }
    // An unwritable event log is an environment failure, surfaced before simulation.
    if let Some(path) = events {
        opts.probe = Some(
            ProbeSink::create(&path)
                .unwrap_or_else(|e| fail_env(format!("event log {}: {e}", path.display()))),
        );
    }
    opts.progress = progress;
    if let Some(n) = workers {
        // A coordinator that cannot locate its own binary cannot spawn workers — an
        // environment failure, not a usage error.
        let command = WorkerCommand::self_worker().unwrap_or_else(|e| fail_env(e));
        opts.dist = Some(DistPool::new(command, n));
    }
    Ok(Args {
        figs,
        opts,
        out_dir,
        json,
        timeline,
        profile,
        window: window.unwrap_or(DEFAULT_WINDOW_INSTRUCTIONS),
    })
}

/// Opens the result store or dies loudly: a store that cannot be trusted (corrupt files,
/// a live second writer) must never be silently recomputed over.
fn open_store(dir: &std::path::Path, policy: StorePolicy) -> StoreHandle {
    match StoreHandle::open(dir, policy) {
        Ok(handle) => handle,
        Err(e) => fail_env(format!("result store {}: {e}", dir.display())),
    }
}

/// `--timeline`: the windowed-telemetry study. Prints the learning-curve table and writes
/// one time-series CSV + JSON per (workload × policy) cell, plus `learning_curve.csv`,
/// into `<out|results>/timeline/`.
fn run_timeline(args: &Args) {
    let start = Instant::now();
    let (study, recorded) = with_recording(|| timeline_study(&args.opts, args.window));
    let elapsed = start.elapsed();
    println!("{}", study.curves);
    println!(
        "[timeline completed in {elapsed:.1?} with {} jobs: {} cells, {}-instruction windows]\n",
        args.opts.jobs,
        study.cells.len(),
        study.window_instructions
    );
    if let Some(store) = &args.opts.store {
        let (simulated, cached) = cache_split(&recorded);
        println!(
            "[store] {simulated} simulated, {cached} cached ({})",
            store.dir().display()
        );
    }
    let dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"))
        .join("timeline");
    let probe = args.opts.probe.as_ref();
    write_file(
        probe,
        &dir.join("learning_curve.csv"),
        &study.curves.to_csv(),
    );
    for cell in &study.cells {
        let stem = format!("{}.{}.timeline", cell.workload, cell.coordinator);
        write_file(
            probe,
            &dir.join(format!("{stem}.csv")),
            &cell.timeline.to_csv(),
        );
        let doc = timeline_report(&cell.workload, &cell.coordinator, cell.seed, &cell.timeline);
        write_file(probe, &dir.join(format!("{stem}.json")), &doc.to_pretty());
    }
}

/// One profiled cell retained for the `--profile` report.
struct ProfiledCell {
    experiment: String,
    label: String,
    wall: Duration,
    profile: PhaseProfile,
}

impl ProfiledCell {
    /// Fraction of the cell's recorded wall-clock the phase totals account for. The
    /// `dispatch` root span wraps the whole cell, so this sits near 1.0 (the acceptance
    /// criterion asks for within 10%).
    fn coverage(&self) -> f64 {
        self.profile.total_nanos() as f64 / (self.wall.as_nanos() as f64).max(1.0)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("experiment", Json::str(&self.experiment)),
            ("label", Json::str(&self.label)),
            ("wall_ms", Json::num(self.wall.as_secs_f64() * 1e3)),
            ("coverage", Json::num(self.coverage())),
            ("profile", self.profile.encode()),
        ])
    }
}

/// `--profile` epilogue: prints the per-phase breakdown and the slowest cells, and writes
/// `BENCH_sim.json` (schema `athena-sim-bench-v1`) + `profile.folded` (flamegraph
/// collapsed-stack lines) into `--out DIR` or the working directory.
fn write_profile_report(args: &Args, mut cells: Vec<ProfiledCell>) {
    // Everything the engine accrued on this (calling) thread outside the cells
    // themselves: store fetches and batch merges.
    let engine_side = take_cell().unwrap_or_default();
    let mut cell_agg = PhaseProfile::new();
    for cell in &cells {
        cell_agg.merge(&cell.profile);
    }
    let mut total = cell_agg;
    total.merge(&engine_side);

    let grand_nanos = total.total_nanos().max(1);
    println!("hot-path profile ({} simulated cells):", cells.len());
    println!(
        "  {:<20} {:>12} {:>14} {:>7}",
        "phase", "calls", "total ms", "share"
    );
    for stat in total.stats() {
        println!(
            "  {:<20} {:>12} {:>14.3} {:>6.1}%",
            stat.phase.name(),
            stat.calls,
            stat.nanos as f64 / 1e6,
            stat.nanos as f64 * 100.0 / grand_nanos as f64,
        );
    }

    cells.sort_by(|a, b| b.wall.cmp(&a.wall).then_with(|| a.label.cmp(&b.label)));
    let top: Vec<&ProfiledCell> = cells.iter().take(5).collect();
    if !top.is_empty() {
        println!("slowest cells:");
        for cell in &top {
            println!(
                "  {:<44} {:>9.1} ms  (phases cover {:.1}% of wall)",
                format!("{}:{}", cell.experiment, cell.label),
                cell.wall.as_secs_f64() * 1e3,
                cell.coverage() * 100.0,
            );
        }
    }
    println!();

    let coverages: Vec<f64> = cells
        .iter()
        .filter(|c| c.wall > Duration::ZERO)
        .map(ProfiledCell::coverage)
        .collect();
    let doc = SIM_BENCH_SCHEMA.document(vec![
        ("jobs", Json::int(args.opts.jobs)),
        ("instructions", Json::num(args.opts.instructions as f64)),
        (
            "workload_limit",
            match args.opts.workload_limit {
                Some(w) => Json::int(w),
                None => Json::Null,
            },
        ),
        (
            "experiments",
            Json::arr(args.figs.iter().map(Json::str).collect()),
        ),
        ("profiled_cells", Json::int(cells.len())),
        (
            "coverage",
            Json::obj(vec![
                (
                    "min",
                    Json::num(coverages.iter().copied().fold(f64::INFINITY, f64::min)),
                ),
                (
                    "mean",
                    Json::num(coverages.iter().sum::<f64>() / coverages.len().max(1) as f64),
                ),
            ]),
        ),
        ("aggregate", total.encode()),
        ("cell_phases", cell_agg.encode()),
        ("engine_phases", engine_side.encode()),
        (
            "top_cells",
            Json::arr(top.iter().map(|c| c.to_json()).collect()),
        ),
        (
            "metrics",
            metrics_snapshot_json(&athena_engine::metrics().snapshot()),
        ),
    ]);
    let dir = args.out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    write_file(
        args.opts.probe.as_ref(),
        &dir.join("BENCH_sim.json"),
        &doc.to_pretty(),
    );
    // Collapsed-stack lines (`frame;frame value`), loadable by flamegraph tooling.
    let folded: String = total
        .stats()
        .map(|s| format!("{} {}\n", s.phase.stack_path(), s.nanos))
        .collect();
    write_file(
        args.opts.probe.as_ref(),
        &dir.join("profile.folded"),
        &folded,
    );
}

fn main() {
    // Worker mode: serve shards from a coordinator (`figures --workers N` spawns this
    // same binary with `--worker`) over stdin/stdout until the coordinator closes the
    // pipe. Nothing else — no flags, no tables.
    if std::env::args().nth(1).as_deref() == Some("--worker") && std::env::args().count() == 2 {
        athena_engine::dist::serve();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => fail(e),
    };
    if args.profile {
        set_profiling(true);
    }
    if args.timeline {
        run_timeline(&args);
        return;
    }
    // `--json` without an explicit directory lands next to the CSVs or in `results/`.
    let json_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("results"));
    let mut total_simulated = 0usize;
    let mut total_cached = 0usize;
    let mut profiled: Vec<ProfiledCell> = Vec::new();
    for fig in &args.figs {
        let start = Instant::now();
        let (table, cells) = with_recording(|| run_experiment(fig, &args.opts));
        let elapsed = start.elapsed();
        match table {
            Some(table) => {
                println!("{table}");
                let store_note = if args.opts.store.is_some() {
                    let (simulated, cached) = cache_split(&cells);
                    total_simulated += simulated;
                    total_cached += cached;
                    format!("; {simulated} simulated, {cached} cached")
                } else {
                    String::new()
                };
                println!(
                    "[{fig} completed in {elapsed:.1?} with {} jobs{store_note}]\n",
                    args.opts.jobs
                );
                if args.profile {
                    profiled.extend(cells.iter().filter_map(|c: &CellRecord| {
                        c.profile.map(|profile| ProfiledCell {
                            experiment: c.experiment.clone(),
                            label: c.label.clone(),
                            wall: c.wall,
                            profile,
                        })
                    }));
                }
                if let Some(dir) = &args.out_dir {
                    write_file(
                        args.opts.probe.as_ref(),
                        &dir.join(format!("{fig}.csv")),
                        &table.to_csv(),
                    );
                }
                if args.json {
                    let doc = figure_report(fig, args.opts.jobs, elapsed, &table, &cells);
                    write_file(
                        args.opts.probe.as_ref(),
                        &json_dir.join(format!("{fig}.json")),
                        &doc.to_pretty(),
                    );
                }
            }
            None => fail(format!("unknown experiment '{fig}' (see --list)")),
        }
    }
    if let Some(store) = &args.opts.store {
        println!(
            "[store] {total_simulated} simulated, {total_cached} cached ({})",
            store.dir().display()
        );
    }
    if args.profile {
        write_profile_report(&args, profiled);
    }
}
