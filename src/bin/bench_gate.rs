//! `bench_gate` — the simulator hot-path regression gate.
//!
//! Compares two `BENCH_sim.json` profiles (written by `figures --profile`): a baseline from
//! the parent commit and a candidate from the change, both taken on the same host by
//! `scripts/profile_gate.sh`. It fails when any phase's **share** of the per-cell time
//! grows past the tolerance. Shares, not absolute nanoseconds: even on one host the clock
//! and contention drift between runs, but the *distribution* of time across the
//! instrumented phases is a property of the code. A phase whose share balloons means the
//! hot path regressed there.
//!
//! A candidate share must satisfy `share <= baseline_share * 1.10 + 0.02` — the
//! multiplicative term catches regressions in the big phases, the additive floor keeps
//! tiny phases (well under a percent) from tripping the gate on noise.
//!
//! The gate also checks per-phase **call counts per profiled cell**, which are
//! deterministic for a fixed experiment grid: a drop means instrumentation was lost, a
//! rise means a hot-path loop got longer. Counts may differ when the grids differ, so this
//! check only applies when both files profiled the same cell count.
//!
//! A profile that covers no cells or no time, or whose phase entries lack a numeric
//! `calls` or `nanos`, is rejected outright: it would make every share zero and pass.

use athena_engine::json::Json;
use athena_harness::cli;
use std::fmt::Write as _;

/// Multiplicative share tolerance (10%).
const SHARE_FACTOR: f64 = 1.10;
/// Additive share floor, absorbing noise in sub-percent phases.
const SHARE_MARGIN: f64 = 0.02;
/// Tolerated relative drift of calls-per-cell when the grids match (1%).
const CALLS_TOLERANCE: f64 = 0.01;

struct Report {
    schema: String,
    profiled_cells: f64,
    total_nanos: f64,
    /// Phase name → (calls, nanos), in file order.
    phases: Vec<(String, f64, f64)>,
}

fn load(path: &str) -> Report {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli::fail(format!("cannot read '{path}': {e}")));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| cli::fail(format!("'{path}' is not valid JSON: {e:?}")));
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or_else(|| cli::fail(format!("'{path}' has no schema field")))
        .to_string();
    let profiled_cells = doc
        .get("profiled_cells")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| cli::fail(format!("'{path}' has no profiled_cells field")));
    let cell_phases = doc
        .get("cell_phases")
        .unwrap_or_else(|| cli::fail(format!("'{path}' has no cell_phases object")));
    let total_nanos = cell_phases
        .get("total_nanos")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| cli::fail(format!("'{path}' has no cell_phases.total_nanos")));
    if profiled_cells <= 0.0 {
        cli::fail(format!("'{path}' profiled no cells (profiled_cells is 0)"));
    }
    if total_nanos <= 0.0 {
        cli::fail(format!(
            "'{path}' recorded no cell time (cell_phases.total_nanos is 0)"
        ));
    }
    let phases = match cell_phases.get("phases") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, v)| {
                let field = |key: &str| {
                    v.get(key).and_then(Json::as_f64).unwrap_or_else(|| {
                        cli::fail(format!(
                            "'{path}': phase '{name}' has no numeric '{key}' field"
                        ))
                    })
                };
                (name.clone(), field("calls"), field("nanos"))
            })
            .collect(),
        _ => cli::fail(format!("'{path}' has no cell_phases.phases object")),
    };
    Report {
        schema,
        profiled_cells,
        total_nanos,
        phases,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cli::BENCH_GATE_HELP);
        return;
    }
    if args.iter().any(|a| a == "--version") {
        println!("bench_gate {}", env!("CARGO_PKG_VERSION"));
        return;
    }
    let mut positional = Vec::new();
    let mut out = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .unwrap_or_else(|| cli::fail("--out needs a file path")),
                )
            }
            _ if arg.starts_with("--") => cli::fail(format!("unknown option '{arg}'")),
            _ => positional.push(arg),
        }
    }
    let [baseline_path, candidate_path] = positional.as_slice() else {
        cli::fail(
            "usage: bench_gate <baseline BENCH_sim.json> <candidate BENCH_sim.json> [--out <FILE>]",
        );
    };

    let baseline = load(baseline_path);
    let candidate = load(candidate_path);
    if baseline.schema != candidate.schema {
        cli::fail(format!(
            "schema mismatch: baseline '{}' vs candidate '{}'",
            baseline.schema, candidate.schema
        ));
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "hot-path phase comparison ({} baseline cells @ {:.2} ms/cell, {} candidate cells @ {:.2} ms/cell)",
        baseline.profiled_cells,
        baseline.total_nanos / baseline.profiled_cells / 1e6,
        candidate.profiled_cells,
        candidate.total_nanos / candidate.profiled_cells / 1e6,
    );
    let _ = writeln!(
        report,
        "  {:<20} {:>10} {:>10} {:>12} {:>12}  verdict",
        "phase", "base %", "cand %", "base c/cell", "cand c/cell"
    );

    let same_grid = baseline.profiled_cells == candidate.profiled_cells;
    let mut failures = Vec::new();
    for (name, base_calls, base_nanos) in &baseline.phases {
        let Some((_, cand_calls, cand_nanos)) = candidate.phases.iter().find(|(n, _, _)| n == name)
        else {
            failures.push(format!("phase '{name}' disappeared from the candidate"));
            continue;
        };
        let base_share = base_nanos / baseline.total_nanos;
        let cand_share = cand_nanos / candidate.total_nanos;
        let share_ok = cand_share <= base_share * SHARE_FACTOR + SHARE_MARGIN;
        let base_cpc = base_calls / baseline.profiled_cells;
        let cand_cpc = cand_calls / candidate.profiled_cells;
        let calls_ok =
            !same_grid || (cand_cpc - base_cpc).abs() <= base_cpc.max(1.0) * CALLS_TOLERANCE;
        let verdict = match (share_ok, calls_ok) {
            (true, true) => "ok",
            (false, _) => "SHARE REGRESSED",
            (_, false) => "CALLS DRIFTED",
        };
        let _ = writeln!(
            report,
            "  {name:<20} {:>9.1}% {:>9.1}% {:>12.1} {:>12.1}  {verdict}",
            base_share * 100.0,
            cand_share * 100.0,
            base_cpc,
            cand_cpc,
        );
        if !share_ok {
            failures.push(format!(
                "phase '{name}' share grew from {:.2}% to {:.2}% (limit {:.2}%)",
                base_share * 100.0,
                cand_share * 100.0,
                (base_share * SHARE_FACTOR + SHARE_MARGIN) * 100.0
            ));
        }
        if !calls_ok {
            failures.push(format!(
                "phase '{name}' calls/cell drifted from {base_cpc:.1} to {cand_cpc:.1} on the same grid",
            ));
        }
    }
    for (name, _, _) in &candidate.phases {
        if !baseline.phases.iter().any(|(n, _, _)| n == name) {
            let _ = writeln!(report, "  {name:<20} (new phase, not in baseline)");
        }
    }

    print!("{report}");
    if let Some(path) = out {
        if let Some(parent) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, &report)
            .unwrap_or_else(|e| cli::fail(format!("cannot write '{path}': {e}")));
        println!("wrote {path}");
    }
    if failures.is_empty() {
        println!("gate: ok — no phase regressed past share*{SHARE_FACTOR}+{SHARE_MARGIN}");
    } else {
        eprintln!("gate: FAILED");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
