//! The help text of the harness binaries, the generator for `docs/CLI.md`, the shared
//! failure helpers every binary exits through, the report-file writer, and the run
//! setup `figures` and `tune` share: one parser for their run flags ([`RunFlags`]) that
//! yields the [`RunOptions`] both build their engine from.
//!
//! All CLIs print these constants for `--help`; the `cli_reference` example renders them
//! into `docs/CLI.md`, and CI regenerates that file and fails on any drift — so the
//! committed CLI reference can never disagree with what the binaries actually say. To
//! change a flag's documentation, edit the constant here and re-run
//! `cargo run --release -p athena-harness --example cli_reference > docs/CLI.md`.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use athena_engine::{available_parallelism, CellRecord};

use crate::{DistPool, ProbeSink, RunOptions, StoreHandle, StorePolicy, WorkerCommand};

/// Prints `error: <message>` to stderr and exits with code 2 — the usage-error path
/// (unknown flag, missing value, contradictory options) shared by all four binaries.
pub fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Prints `error: <message>` to stderr and exits with code 1 — the environment-failure
/// path (unreadable input, unwritable output directory, corrupt store) shared by all
/// four binaries. Distinct from [`fail`] so scripts can tell a bad invocation from a bad
/// environment.
pub fn fail_env(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// Writes one report file (creating parent directories), announcing it on stdout and —
/// when an event sink is attached — as a `report_written` event. A directory or file that
/// cannot be written exits through [`fail_env`].
pub fn write_file(
    probe: Option<&athena_engine::ProbeSink>,
    path: &std::path::Path,
    contents: &str,
) {
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

/// Serves shards from a coordinator when this process was started as `<binary> --worker`
/// (how `--workers N` spawns its worker processes) until the coordinator closes the
/// pipe, and returns whether it did. A binary that gets `true` has nothing else to do.
pub fn serve_if_worker() -> bool {
    let worker =
        std::env::args().nth(1).as_deref() == Some("--worker") && std::env::args().count() == 2;
    if worker {
        athena_engine::dist::serve();
    }
    worker
}

/// The value following `flag`, or a usage error naming the flag.
pub fn value(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<String, String> {
    args.next().ok_or(format!("{flag} needs a value"))
}

/// The value following `flag`, parsed as a `T`.
pub fn parsed<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T::Err: Display,
{
    value(flag, args)?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))
}

/// The value following `flag`, parsed as a count that must be at least 1.
pub fn count<T>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T: FromStr + PartialEq + From<u8>,
    T::Err: Display,
{
    let n: T = parsed(flag, args)?;
    if n == T::from(0) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// The run flags `figures` and `tune` share, as given on the command line:
/// `--quick`, `--instructions`, `--workloads`, `--jobs`, `--trace-dir`, `--store`,
/// `--store-policy`, `--events`, `--progress` and `--workers`. Each binary offers every
/// argument to [`RunFlags::accept`] before its own flags, then turns the flags into
/// [`RunOptions`] with [`RunFlags::into_options`].
#[derive(Debug, Default)]
pub struct RunFlags {
    /// `--quick`: start from [`RunOptions::quick`] instead of [`RunOptions::full`]. The
    /// binaries read it for their own presets too (`tune` picks its quick design space).
    pub quick: bool,
    instructions: Option<u64>,
    workload_limit: Option<usize>,
    jobs: Option<usize>,
    trace_dir: Option<PathBuf>,
    store_dir: Option<PathBuf>,
    store_policy: Option<String>,
    events: Option<PathBuf>,
    progress: bool,
    workers: Option<usize>,
}

impl RunFlags {
    /// Takes `arg`, and its value from `args`, when it is a shared run flag: `Ok(true)`
    /// when it was one, `Ok(false)` for any other argument, and a usage error for a
    /// missing or malformed value, a zero count or a `--worker` among other arguments.
    pub fn accept(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--quick" => self.quick = true,
            "--instructions" => self.instructions = Some(count(arg, args)?),
            "--workloads" => self.workload_limit = Some(count(arg, args)?),
            "--jobs" => self.jobs = Some(count(arg, args)?),
            "--trace-dir" => self.trace_dir = Some(value(arg, args)?.into()),
            "--store" => self.store_dir = Some(value(arg, args)?.into()),
            "--store-policy" => self.store_policy = Some(value(arg, args)?),
            "--events" => self.events = Some(value(arg, args)?.into()),
            "--progress" => self.progress = true,
            "--workers" => self.workers = Some(count(arg, args)?),
            "--worker" => {
                return Err(
                    "--worker must be the sole argument (it is how a coordinator invokes \
                     its worker processes, not a run option)"
                        .to_string(),
                )
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The options these flags ask for. Usage errors (a `--store-policy` without a
    /// `--store`, an unknown policy name) come back as `Err`; the environment failures
    /// met while attaching what the flags name (an unopenable or corrupt store, an
    /// unwritable event log, a binary that cannot find itself to spawn workers) exit
    /// through [`fail_env`]. `--jobs` defaults to every hardware thread.
    pub fn into_options(self) -> Result<RunOptions, String> {
        if self.store_policy.is_some() && self.store_dir.is_none() {
            return Err("--store-policy only applies with --store <DIR>".to_string());
        }
        let policy = match &self.store_policy {
            Some(name) => StorePolicy::from_name(name)
                .ok_or_else(|| format!("unknown --store-policy '{name}' (rw, ro, refresh)"))?,
            None => StorePolicy::ReadWrite,
        };
        let mut opts = if self.quick {
            RunOptions::quick()
        } else {
            RunOptions::full()
        };
        if let Some(i) = self.instructions {
            opts.instructions = i;
        }
        if let Some(w) = self.workload_limit {
            opts.workload_limit = Some(w);
        }
        opts.jobs = self.jobs.unwrap_or_else(available_parallelism);
        opts.trace_dir = self.trace_dir;
        if let Some(dir) = self.store_dir {
            opts.store = Some(open_store(&dir, policy));
        }
        if let Some(path) = self.events {
            opts.probe = Some(
                ProbeSink::create(&path)
                    .unwrap_or_else(|e| fail_env(format!("event log {}: {e}", path.display()))),
            );
        }
        opts.progress = self.progress;
        if let Some(n) = self.workers {
            let command = WorkerCommand::self_worker().unwrap_or_else(|e| fail_env(e));
            opts.dist = Some(DistPool::new(command, n));
        }
        Ok(opts)
    }
}

/// Opens the result store in `dir` or exits through [`fail_env`]: a store that cannot
/// be trusted (corrupt files, a live second writer) must be looked at, never silently
/// recomputed over or worked around.
pub fn open_store(dir: &Path, policy: StorePolicy) -> StoreHandle {
    StoreHandle::open(dir, policy)
        .unwrap_or_else(|e| fail_env(format!("result store {}: {e}", dir.display())))
}

/// Splits cells by where their output came from: `(simulated, cached, reused)` —
/// simulated now, served by the store, or reused from an earlier experiment of the run.
/// The binaries print it as their `[store] N simulated, M cached, R reused` line.
pub fn cache_split(cells: &[CellRecord]) -> (usize, usize, usize) {
    let cached = cells.iter().filter(|c| c.cached).count();
    let reused = cells.iter().filter(|c| c.reused).count();
    (cells.len() - cached - reused, cached, reused)
}

/// `figures --help`.
pub const FIGURES_HELP: &str = "\
figures — reproduce the Athena paper's tables and figures

usage: figures [--fig <id>]... [--all] [options]
       figures --timeline [options]

experiment selection:
  --fig <id>          run one experiment (repeatable); ids are fig1..fig21, tab3, tab4,
                      plus 'tuned' (needs --tuned-config; never selected by --all)
  --all               run every experiment
  --list              print the experiment ids and exit

run options:
  --quick             reduced preset: 40 K instructions, 12 workloads (default preset is
                      400 K instructions over all 100 workloads)
  --instructions <N>  instructions simulated per workload (overrides the preset)
  --workloads <N>     cap the workload count, keeping a balanced friendly/adverse mix
  --jobs <N>          engine worker count (default: every hardware thread); --jobs 1 is
                      the exact serial path; tables are byte-identical at any value
  --workers <N>       distribute simulation across N worker processes (each one is this
                      binary re-invoked as `figures --worker`, spawned once and reused
                      by every batch): the coordinator shards every engine batch over
                      length-delimited checksummed frames, replaces a worker that
                      dies, retries the cells it owed, and merges results in
                      submission order, so tables are byte-identical at any worker
                      count and under worker failure. The store, event log and merge
                      stay on the coordinator; workers return each cell's wall-clock
                      and phase profile with its result, which the coordinator logs
                      as the cell's events at merge, so --events and --profile
                      compose with --workers
  --worker            internal: run as a worker process serving shards on stdin/stdout;
                      spawned by a `--workers` coordinator, never useful by hand
  --trace-dir <DIR>   replay recorded traces from DIR (written by `trace record`):
                      single-core cells with a <workload>.trace file there replay it,
                      reproducing the generated results byte-for-byte; others generate
  --tuned-config <F>  load a tuned Athena configuration from file F (best.json as
                      written by `tune`, or a bare config object). Enables the 'tuned'
                      experiment (which re-measures the configuration against
                      prefetchers-only on the tuning workloads — with matching
                      --instructions/--workloads its overall speedup equals the
                      leaderboard's claim exactly) and adds a 'tuned' policy to
                      --timeline

result store:
  --store <DIR>       attach the persistent result store in DIR (created if missing):
                      every finished cell is cached under its identity hash, and a warm
                      re-run with the same options simulates nothing while producing
                      byte-identical tables; a killed sweep resumes paying only for the
                      missing cells. Inspect the store with `results`
  --store-policy <P>  how the batch uses the store (default rw): 'rw' reads and writes,
                      'ro' reads but never writes (no writer lock taken), 'refresh'
                      re-simulates everything and overwrites the cached records

output:
  --out <DIR>         write one <fig>.csv per experiment into DIR (and relocate the other
                      output files below)
  --json              also write one <fig>.json per experiment (aggregate table plus
                      per-cell records: label, derived seed, wall-clock, outcome) into
                      --out DIR or results/

observability (neither flag changes a table byte — observation is not identity):
  --events <FILE>     write a structured JSONL event log (schema athena-events-v1) of
                      every engine batch: batch opened, cells scheduled / store-hit /
                      reused / started / finished / panicked, store fetch/persist, reports
                      written; distributed runs add worker_joined / shard_dispatched /
                      worker_died / cell_reassigned lines and attribute every cell
                      event to the worker that ran it. Wall-clock lives only in the
                      dedicated t_ms/wall_ms/pid/profile fields; the remaining fields
                      are byte-stable across --jobs values. Summarize a log with
                      `results events`, export it to Perfetto with `results trace`
  --progress          live `cells simulated / cached / ETA` line on stderr while
                      batches run; under --workers it breaks the count down per live
                      worker and reports reassignments
  --profile           profile the simulator hot path: per-phase call counts and
                      self-time (cache lookup, prefetch issue, OCP predict,
                      coordinator update, DRAM, trace generation, engine overhead),
                      print the per-phase breakdown and slowest cells, and write the
                      BENCH_sim.json aggregate (schema athena-sim-bench-v1) plus
                      profile.folded (flamegraph collapsed-stack lines) into
                      --out DIR or the working directory. Composes with --workers:
                      each worker profiles its own cells and the profiles merge on
                      the coordinator. JSON reports embed an engine metrics snapshot
                      (schema athena-metrics-v1); inspect it with `results metrics`

timeline mode:
  --timeline          standalone mode (no --fig/--all): run every selected workload under
                      each online coordination policy with windowed telemetry enabled,
                      print the early-vs-late learning-curve table, and write per-cell
                      time-series files (<workload>.<policy>.timeline.csv/.json) plus
                      learning_curve.csv into <--out DIR or results>/timeline/. Series
                      are byte-identical at any --jobs value and under --trace-dir replay
  --window <N>        telemetry window length in instructions (default 8192; windows
                      round up to whole 2 K-instruction coordination epochs)

misc:
  --version           print the workspace version and exit
  --help, -h          print this help and exit";

/// `trace --help`.
pub const TRACE_HELP: &str = "\
trace — record and inspect binary workload traces (replayed by `figures --trace-dir`)

usage: trace <command> [options]

commands:
  record     dump workload traces to files (one <workload-name>.trace per workload)
  info       print the header of trace files

record options:
  --out <DIR>          output directory (created if missing; default: traces/)
  --workload <NAME>    record one workload by name (repeatable; resolves against the
                       evaluation, tuning and Google-like suites)
  --quick              record the quick experiment preset's workload sample, at the quick
                       preset's instruction count — the set `figures --quick --trace-dir`
                       replays
  --all                record all 100 evaluation workloads
  --tuning             record the 20 held-out tuning workloads
  --google             record the Google-like unseen workloads
  --instructions <N>   records per trace, at least 1 (default: 400000, the full
                       experiment preset; --quick lowers it to the quick preset unless
                       overridden)

info:
  trace info <FILE>...

misc:
  --version            print the workspace version and exit
  --help, -h           print this help and exit";

/// `tune --help`.
pub const TUNE_HELP: &str = "\
tune — explore the Athena agent's design space (hyperparameters, reward weights,
       feature sets) on the parallel experiment engine

usage: tune [options]

search space & strategy:
  Successive halving screens the candidates on a short instruction budget and promotes
  the best 1/eta to an eta-times-longer budget, repeating until the survivors have run
  the full budget. --rungs 1 runs every candidate at the full budget (random search).
  --samples <N>        candidates entering the search (default 16; when the space's full
                       grid is no larger than N, the grid is enumerated instead of
                       sampled)
  --eta <N>            halving promotion factor (default 2; min 2)
  --rungs <N>          halving budget rungs (default 3; the last rung always runs the
                       full --instructions budget)
  --seed <N>           candidate-sampling seed (default 0xd5e); never seeds the
                       simulations themselves
  --objective <O>      scoring rule: speedup (default; geomean IPC speedup over
                       prefetchers-only), accuracy-weighted, coverage-weighted, or
                       bandwidth-aware (penalises DRAM traffic beyond the baseline's)

run options:
  --quick              reduced preset: 40 K instructions, 12 tuning workloads, and the
                       small fully-enumerable quick space (6 candidates) instead of the
                       paper-style space (default preset: 400 K instructions, all 20
                       held-out tuning workloads)
  --instructions <N>   final-rung instructions per workload (overrides the preset)
  --workloads <N>      cap the tuning-workload count (min 4)
  --jobs <N>           engine worker count (default: every hardware thread); the
                       leaderboard is byte-identical at any value
  --workers <N>        distribute evaluation across N long-lived worker processes (see
                       `figures --help` for the protocol); the leaderboard is
                       byte-identical at any worker count
  --worker             internal: run as a worker process serving shards on
                       stdin/stdout; spawned by a `--workers` coordinator
  --trace-dir <DIR>    replay recorded traces from DIR (record them with
                       `trace record --tuning`); identical leaderboard bytes to the
                       generated run

result store:
  --store <DIR>        attach the persistent result store in DIR (see `figures --help`):
                       rung budgets are part of each cell's identity, so re-entering a
                       killed or widened search re-simulates only the unseen
                       (candidate × workload × budget) cells
  --store-policy <P>   'rw' (default), 'ro' or 'refresh'

output:
  --out <DIR>          output directory (default results/tune): leaderboard.csv +
                       leaderboard.json (schema athena-tune-v1) and best.json (the
                       winning configuration; feed it back via `figures --fig tuned
                       --tuned-config <DIR>/best.json`, which reproduces the claimed
                       speedup exactly under matching options)
  --top <N>            rows of the leaderboard to print (default 10)

observability:
  --events <FILE>      write a structured JSONL event log (schema athena-events-v1) of
                       every evaluation batch; wall-clock lives only in dedicated
                       fields, so the deterministic portion is byte-stable across
                       --jobs values (see `figures --help`). Summarize with
                       `results events`
  --progress           live `cells simulated / cached / ETA` line on stderr while
                       evaluation batches run

misc:
  --version            print the workspace version and exit
  --help, -h           print this help and exit";

/// `results --help`.
pub const RESULTS_HELP: &str = "\
results — inspect and maintain a persistent result store (written by
          `figures --store` / `tune --store`)

usage: results <command> --store <DIR> [options]
       results events <FILE> [--json]
       results trace <FILE> [--out <FILE>]
       results metrics <FILE> [--json]

commands:
  stats      print record counts and on-disk size (live, superseded, log bytes)
  query      list the live records in deterministic key order, one line per record:
             identity.variant, experiment, workload, coordinator, label
  diff       compare two stores: records only in one, and shared keys whose payloads
             differ (--against <DIR> names the second store)
  gc         rewrite the log keeping only live records, dropping superseded ones
             (takes the writer lock; the only command that modifies the store)
  verify     scan every record — headers, payload checksums, index agreement —
             decode every live record as a warm fetch would, and exit non-zero on
             any corruption, naming the first record that does not decode
  events     summarize a JSONL event log written by `figures --events` or
             `tune --events`: event counts by kind, store hit ratio, cells reused
             from an earlier experiment of the run, the slowest simulated cells,
             and — for distributed logs — per-worker cell counts, worker
             deaths/reassignments and shard frame bytes. Takes the log FILE as its
             argument instead of --store
  trace      convert a JSONL event log into Chrome trace_event JSON (open it in
             Perfetto / chrome://tracing): one process row per distributed worker
             (plus the coordinator), cell spans with phase-profile child slices,
             instants for store hits and worker deaths. Writes trace.json next to
             the log unless --out says otherwise
  metrics    print the engine metrics snapshot (schema athena-metrics-v1) embedded
             in a JSON report (a <fig>.json from `figures --json` or
             BENCH_sim.json): counters, latency histograms and per-worker
             utilization

options:
  --store <DIR>        the store directory (required by every command except
                       events/trace/metrics; all commands except gc open it
                       read-only, no writer lock)
  --against <DIR>      (diff only) the second store to compare against
  --experiment <NAME>  (query only) keep records of this experiment
  --workload <NAME>    (query only) keep records of this workload or mix
  --coordinator <NAME> (query only) keep records of this coordination policy
  --out <FILE>         (trace only) output path for the trace_event JSON
  --json               machine-readable output instead of the human summary

misc:
  --version            print the workspace version and exit
  --help, -h           print this help and exit";

/// `--help` text for the `bench_gate` binary.
pub const BENCH_GATE_HELP: &str = "\
bench_gate — simulator hot-path regression gate

usage: bench_gate <BASELINE> <CANDIDATE> [--out <FILE>]

Compares two BENCH_sim.json profiles (written by `figures --profile`) taken on the
same host and exits non-zero when the hot path regressed. It checks each phase's
*share* of the per-cell time (a candidate share must stay within baseline*1.10 + 0.02)
and, when both profiles cover the same cell grid, each phase's call count per cell
(within 1%). Absolute nanoseconds are reported but never gated. A profile with no
cells, no cell time, or a phase without numeric calls/nanos is an error.
scripts/profile_gate.sh <BASE_REV> <OUT_DIR> profiles a base revision and the
working tree on one host and runs this gate on the pair.

arguments:
  BASELINE             the parent commit's BENCH_sim.json, profiled on this host
  CANDIDATE            the change's BENCH_sim.json, profiled the same way

options:
  --out <FILE>         also write the comparison table to FILE (for CI artifacts)

misc:
  --version            print the workspace version and exit
  --help, -h           print this help and exit";

/// Renders `docs/CLI.md` from the help constants above.
pub fn cli_reference() -> String {
    format!(
        "# CLI reference\n\n\
         This file is generated from the binaries' `--help` text by\n\
         `cargo run --release -p athena-harness --example cli_reference`; CI regenerates\n\
         it and fails if the committed copy drifts. Edit\n\
         `crates/harness/src/cli.rs`, not this file.\n\n\
         ## `figures`\n\n```text\n{FIGURES_HELP}\n```\n\n\
         ## `trace`\n\n```text\n{TRACE_HELP}\n```\n\n\
         ## `tune`\n\n```text\n{TUNE_HELP}\n```\n\n\
         ## `results`\n\n```text\n{RESULTS_HELP}\n```\n\n\
         ## `bench_gate`\n\n```text\n{BENCH_GATE_HELP}\n```\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_embeds_every_help_text() {
        let doc = cli_reference();
        assert!(doc.contains(FIGURES_HELP));
        assert!(doc.contains(TRACE_HELP));
        assert!(doc.contains(TUNE_HELP));
        assert!(doc.contains(RESULTS_HELP));
        assert!(doc.contains(BENCH_GATE_HELP));
        assert!(doc.starts_with("# CLI reference"));
        assert!(doc.ends_with("```\n"));
    }

    #[test]
    fn help_texts_document_the_result_store() {
        for help in [FIGURES_HELP, TUNE_HELP] {
            assert!(help.contains("--store <DIR>"));
            assert!(help.contains("--store-policy"));
        }
        for command in ["stats", "query", "diff", "gc", "verify"] {
            assert!(RESULTS_HELP.contains(command), "missing {command}");
        }
    }

    #[test]
    fn help_texts_document_the_timeline_mode() {
        assert!(FIGURES_HELP.contains("--timeline"));
        assert!(FIGURES_HELP.contains("--window"));
        assert!(TRACE_HELP.contains("record"));
    }

    #[test]
    fn help_texts_document_the_observability_flags() {
        for help in [FIGURES_HELP, TUNE_HELP] {
            assert!(help.contains("--events <FILE>"));
            assert!(help.contains("--progress"));
            assert!(help.contains("athena-events-v1"));
        }
        assert!(FIGURES_HELP.contains("--profile"));
        assert!(FIGURES_HELP.contains("BENCH_sim.json"));
        assert!(FIGURES_HELP.contains("profile.folded"));
        assert!(RESULTS_HELP.contains("events"));
        assert!(RESULTS_HELP.contains("results events <FILE> [--json]"));
        // The trace exporter and the metrics registry are part of the vocabulary too.
        assert!(RESULTS_HELP.contains("results trace <FILE> [--out <FILE>]"));
        assert!(RESULTS_HELP.contains("results metrics <FILE> [--json]"));
        assert!(RESULTS_HELP.contains("Perfetto"));
        assert!(RESULTS_HELP.contains("athena-metrics-v1"));
        assert!(FIGURES_HELP.contains("athena-metrics-v1"));
    }

    #[test]
    fn help_texts_document_the_distributed_mode() {
        for help in [FIGURES_HELP, TUNE_HELP] {
            assert!(help.contains("--workers <N>"));
            assert!(help.contains("--worker"));
            assert!(
                help.contains("byte-identical at any worker"),
                "missing claim"
            );
        }
        // Observability composes with distribution: events and profiles cross the wire.
        assert!(FIGURES_HELP
            .contains("--events and --profile\n                      compose with --workers"));
        assert!(!FIGURES_HELP.contains("Incompatible with --profile"));
    }

    #[test]
    fn help_texts_document_the_tuning_subsystem() {
        assert!(FIGURES_HELP.contains("--tuned-config"));
        for flag in ["--samples", "--eta", "--rungs", "--objective"] {
            assert!(TUNE_HELP.contains(flag), "missing {flag}");
        }
        // One search strategy: `--rungs 1` is random search.
        assert!(!TUNE_HELP.contains("--strategy"));
        // Neither CLI times itself: `e2ebench/` is the one bench surface.
        for help in [FIGURES_HELP, TUNE_HELP] {
            assert!(!help.contains("--bench-report"));
        }
    }
}
