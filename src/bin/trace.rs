//! The `trace` CLI: record workload traces to disk and inspect their headers.
//!
//! ```text
//! # Record the quick experiment preset's 12 workloads (40 K instructions each):
//! cargo run --release --bin trace -- record --quick --out traces/
//!
//! # Record one workload at full length:
//! cargo run --release --bin trace -- record --workload 429.mcf-184B --out traces/
//!
//! # Inspect:
//! cargo run --release --bin trace -- info traces/429.mcf-184B.trace
//! ```
//!
//! Recorded directories plug into the `figures` CLI via `--trace-dir`; see the format
//! specification in the `athena-trace-io` crate docs and DESIGN.md.

use std::path::{Path, PathBuf};

use athena_harness::cli::{count, fail, fail_env, value, TRACE_HELP as HELP};
use athena_harness::experiments::workload_set;
use athena_harness::RunOptions;
use athena_trace_io::{open_trace, record_trace};
use athena_workloads::{
    all_workloads, find_workload, google_like_workloads, tuning_workloads, WorkloadSpec,
};

/// Selection accumulated by the `record` flag parser.
struct RecordArgs {
    out: PathBuf,
    specs: Vec<WorkloadSpec>,
    instructions: u64,
}

fn parse_record_args(mut args: std::env::Args) -> Result<RecordArgs, String> {
    let mut out = PathBuf::from("traces");
    let mut named: Vec<String> = Vec::new();
    let mut specs: Vec<WorkloadSpec> = Vec::new();
    let mut instructions: Option<u64> = None;
    let mut quick = false;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(value("--out", &mut args)?),
            "--workload" => named.push(value("--workload", &mut args)?),
            "--quick" => quick = true,
            "--all" => specs.extend(all_workloads()),
            "--tuning" => specs.extend(tuning_workloads()),
            "--google" => specs.extend(google_like_workloads()),
            "--instructions" => instructions = Some(count("--instructions", &mut args)?),
            other => return Err(format!("unknown record argument: {other}")),
        }
    }
    if quick {
        specs.extend(workload_set(&RunOptions::quick()));
    }
    for name in named {
        specs.push(find_workload(&name).ok_or(format!("unknown workload '{name}'"))?);
    }
    if specs.is_empty() {
        return Err("nothing selected; use --workload/--quick/--all/--tuning/--google".into());
    }
    // Deduplicate while keeping selection order (the selections may overlap).
    let mut seen = std::collections::HashSet::new();
    specs.retain(|s| seen.insert(s.name.clone()));
    let instructions = instructions.unwrap_or(if quick {
        RunOptions::quick().instructions
    } else {
        RunOptions::full().instructions
    });
    Ok(RecordArgs {
        out,
        specs,
        instructions,
    })
}

fn cmd_record(args: std::env::Args) {
    let r = parse_record_args(args).unwrap_or_else(|e| fail(e));
    if let Err(e) = std::fs::create_dir_all(&r.out) {
        fail_env(format!("cannot create {}: {e}", r.out.display()));
    }
    for spec in &r.specs {
        let path = r.out.join(format!("{}.trace", spec.name));
        let mut generator = spec.trace();
        match record_trace(&mut generator, r.instructions, &path) {
            Ok(written) => println!(
                "recorded {written} records of {} ({}, seed {}) -> {}",
                spec.name,
                spec.suite,
                spec.seed,
                path.display()
            ),
            Err(e) => fail_env(format!("recording {}: {e}", spec.name)),
        }
    }
}

fn cmd_info(files: &[String]) {
    if files.is_empty() {
        fail("info needs at least one trace file");
    }
    for file in files {
        let trace =
            open_trace(Path::new(file)).unwrap_or_else(|e| fail_env(format!("{file}: {e}")));
        let h = trace.header();
        println!("{file}:");
        println!("  version:  {}", h.version);
        println!("  records:  {}", h.records);
        println!("  loads:    {}", h.loads);
    }
}

fn main() {
    let mut args = std::env::args();
    args.next(); // program name
    match args.next().as_deref() {
        Some("record") => cmd_record(args),
        Some("info") => cmd_info(&args.collect::<Vec<_>>()),
        Some("--version") => println!("trace {}", env!("CARGO_PKG_VERSION")),
        Some("--help") | Some("-h") | None => println!("{HELP}"),
        Some(other) => fail(format!("unknown command '{other}' (see --help)")),
    }
}
