//! The `trace` CLI: record, inspect and convert on-disk workload traces.
//!
//! ```text
//! # Record the quick experiment preset's 12 workloads (40 K instructions each):
//! cargo run --release --bin trace -- record --quick --out traces/
//!
//! # Record one workload at full length, and the text form of another:
//! cargo run --release --bin trace -- record --workload 429.mcf-184B --out traces/
//! cargo run --release --bin trace -- record --workload 429.mcf-184B --text --out traces/
//!
//! # Inspect:
//! cargo run --release --bin trace -- info traces/429.mcf-184B.trace
//! cargo run --release --bin trace -- stats traces/429.mcf-184B.trace
//!
//! # Convert between the binary and text formats (lossless both ways):
//! cargo run --release --bin trace -- convert traces/a.trace a.trace.txt
//! ```
//!
//! Recorded directories plug into the `figures` CLI via `--trace-dir`; see the format
//! specification in the `athena-trace-io` crate docs and DESIGN.md.

use std::path::{Path, PathBuf};

use athena_harness::cli::{fail, TRACE_HELP as HELP};
use athena_harness::experiments::{standard_mixes, workload_set};
use athena_harness::RunOptions;
use athena_trace_io::{convert, open_trace, record_trace, sniff_format, TraceFormat, TraceSummary};
use athena_workloads::{
    all_workloads, find_workload, google_like_workloads, tuning_workloads, WorkloadSpec,
};

/// Selection accumulated by the `record` flag parser.
struct RecordArgs {
    out: PathBuf,
    specs: Vec<WorkloadSpec>,
    instructions: u64,
    format: TraceFormat,
}

fn parse_record_args(mut args: std::env::Args) -> RecordArgs {
    let mut out = PathBuf::from("traces");
    let mut named: Vec<String> = Vec::new();
    let mut specs: Vec<WorkloadSpec> = Vec::new();
    let mut instructions: Option<u64> = None;
    let mut quick = false;
    let mut format = TraceFormat::Binary;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| fail("--out needs a value")))
            }
            "--workload" => named.push(
                args.next()
                    .unwrap_or_else(|| fail("--workload needs a value")),
            ),
            "--quick" => quick = true,
            "--all" => specs.extend(all_workloads()),
            "--tuning" => specs.extend(tuning_workloads()),
            "--google" => specs.extend(google_like_workloads()),
            "--mixes" => {
                let cores: usize = args
                    .next()
                    .unwrap_or_else(|| fail("--mixes needs a core count"))
                    .parse()
                    .unwrap_or_else(|e| fail(format!("bad --mixes core count: {e}")));
                // Recording the distinct members of the standard mix list covers every
                // core of every mix fig15/fig16 run.
                for mix in standard_mixes(cores) {
                    specs.extend(mix.workloads);
                }
            }
            "--instructions" => {
                instructions = Some(
                    args.next()
                        .unwrap_or_else(|| fail("--instructions needs a value"))
                        .parse()
                        .unwrap_or_else(|e| fail(format!("bad --instructions: {e}"))),
                )
            }
            "--text" => format = TraceFormat::Text,
            other => fail(format!("unknown record argument: {other}")),
        }
    }
    if quick {
        specs.extend(workload_set(&RunOptions::quick()));
    }
    for name in named {
        match find_workload(&name) {
            Some(spec) => specs.push(spec),
            None => fail(format!("unknown workload '{name}'")),
        }
    }
    if specs.is_empty() {
        fail("nothing selected; use --workload/--quick/--all/--tuning/--google/--mixes");
    }
    // Deduplicate while keeping selection order (mix members repeat across mixes).
    let mut seen = std::collections::HashSet::new();
    specs.retain(|s| seen.insert(s.name.clone()));
    let instructions = instructions.unwrap_or(if quick {
        RunOptions::quick().instructions
    } else {
        RunOptions::full().instructions
    });
    RecordArgs {
        out,
        specs,
        instructions,
        format,
    }
}

fn cmd_record(args: std::env::Args) {
    let r = parse_record_args(args);
    if let Err(e) = std::fs::create_dir_all(&r.out) {
        fail(format!("cannot create {}: {e}", r.out.display()));
    }
    for spec in &r.specs {
        let file_name = match r.format {
            TraceFormat::Binary => format!("{}.trace", spec.name),
            TraceFormat::Text => format!("{}.trace.txt", spec.name),
        };
        let path = r.out.join(file_name);
        let mut generator = spec.trace();
        match record_trace(&mut generator, r.instructions, &path, r.format) {
            Ok(written) => println!(
                "recorded {written} records of {} ({}, seed {}) -> {}",
                spec.name,
                spec.suite,
                spec.seed,
                path.display()
            ),
            Err(e) => fail(format!("recording {}: {e}", spec.name)),
        }
    }
}

fn cmd_info(files: &[String]) {
    if files.is_empty() {
        fail("info needs at least one trace file");
    }
    for file in files {
        let path = Path::new(file);
        let format = sniff_format(path).unwrap_or_else(|e| fail(format!("{file}: {e}")));
        let trace = open_trace(path).unwrap_or_else(|e| fail(format!("{file}: {e}")));
        println!("{file}:");
        println!("  format:   {format}");
        match trace.header() {
            Some(h) => {
                println!("  version:  {}", h.version);
                println!("  records:  {}", h.records);
                println!("  loads:    {}", h.loads);
            }
            None => println!("  (text format: no header; use `trace stats` for counts)"),
        }
    }
}

fn cmd_stats(args: std::env::Args) {
    let mut files: Vec<String> = Vec::new();
    let mut limit = u64::MAX;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--limit" => {
                limit = args
                    .next()
                    .unwrap_or_else(|| fail("--limit needs a value"))
                    .parse()
                    .unwrap_or_else(|e| fail(format!("bad --limit: {e}")))
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        fail("stats needs at least one trace file");
    }
    for file in &files {
        let mut trace =
            open_trace(Path::new(file)).unwrap_or_else(|e| fail(format!("{file}: {e}")));
        let summary = TraceSummary::scan(&mut trace, limit);
        println!("{file}:");
        for line in summary.to_string().lines() {
            println!("  {line}");
        }
    }
}

fn cmd_convert(args: std::env::Args) {
    let mut positional: Vec<String> = Vec::new();
    let mut to: Option<TraceFormat> = None;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--to" => {
                to = Some(
                    match args
                        .next()
                        .unwrap_or_else(|| fail("--to needs a value"))
                        .as_str()
                    {
                        "binary" => TraceFormat::Binary,
                        "text" => TraceFormat::Text,
                        other => fail(format!("bad --to '{other}' (expected binary or text)")),
                    },
                )
            }
            other => positional.push(other.to_string()),
        }
    }
    let [input, output] = positional.as_slice() else {
        fail("convert needs exactly <IN> and <OUT> paths");
    };
    let output = Path::new(output);
    let to = to.unwrap_or_else(|| TraceFormat::for_path(output));
    match convert(Path::new(input), output, to) {
        Ok(n) => println!(
            "converted {n} records: {input} -> {} ({to})",
            output.display()
        ),
        Err(e) => fail(format!("converting {input}: {e}")),
    }
}

fn main() {
    let mut args = std::env::args();
    args.next(); // program name
    match args.next().as_deref() {
        Some("record") => cmd_record(args),
        Some("info") => cmd_info(&args.collect::<Vec<_>>()),
        Some("stats") => cmd_stats(args),
        Some("convert") => cmd_convert(args),
        Some("--version") => println!("trace {}", env!("CARGO_PKG_VERSION")),
        Some("--help") | Some("-h") | None => println!("{HELP}"),
        Some(other) => fail(format!("unknown command '{other}' (see --help)")),
    }
}
