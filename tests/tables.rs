//! Golden tables: every experiment of `figures --all`, plus `tuned`, at one small preset,
//! pinned value by value.
//!
//! The fixture (`tests/fixtures/tables_golden.txt`) holds each table's title, headers,
//! row labels and every value at full precision (`{:?}`), not at the CSV's four decimals,
//! so a reordered float sum or a reordered row fails here even where the CSV would not
//! change. A refactor of the experiment code must leave it unchanged. Re-pin it only for
//! a deliberate table change, and record that change in CHANGES.md:
//!
//! ```text
//! ATHENA_TABLES_REGEN=1 cargo test --test tables
//! ```

use std::fmt::Write as _;

use athena_repro::engine::default_athena_config;
use athena_repro::harness::experiments::{experiment_names, run_experiment};
use athena_repro::prelude::*;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/tables_golden.txt"
);
const HEADER: &str = "# athena-tables-golden-v1";

/// Every table of the golden preset, rendered at full precision.
fn render_all() -> String {
    let dir = std::env::temp_dir().join(format!("athena-tables-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let tuned = dir.join("tuned.json");
    let cfg = default_athena_config().with_hyperparameters(0.3, 0.6, 0.05, 0.12);
    std::fs::write(&tuned, athena_repro::tune::config_to_json(&cfg).to_pretty())
        .expect("write tuned config");

    // One options value for the whole suite, as `figures --all` uses: later experiments
    // reuse cells earlier ones simulated, which must not change a value.
    let opts = RunOptions {
        instructions: 16_000,
        workload_limit: Some(8),
        ..RunOptions::quick()
    }
    .with_tuned_config(&tuned);

    let mut out = format!("{HEADER}\n# instructions=16000 workloads=8\n");
    for name in experiment_names().into_iter().chain(["tuned"]) {
        let table = run_experiment(name, &opts)
            .unwrap_or_else(|| panic!("experiment '{name}' is not registered"));
        let _ = writeln!(out, "\n[{name}]");
        let _ = writeln!(out, "title = {:?}", table.title);
        let _ = writeln!(out, "row_label = {:?}", table.row_label);
        let _ = writeln!(out, "columns = {:?}", table.columns);
        for (label, values) in &table.rows {
            let _ = writeln!(out, "{label:?} = {values:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn every_table_matches_its_golden_values() {
    let rendered = render_all();
    if std::env::var_os("ATHENA_TABLES_REGEN").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("fixture written");
        eprintln!("tables: regenerated {FIXTURE}");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!(
            "cannot read the golden tables {FIXTURE}: {e}\n\
             (generate it once with ATHENA_TABLES_REGEN=1 cargo test --test tables)"
        )
    });
    assert!(
        golden.starts_with(HEADER),
        "fixture does not start with '{HEADER}'"
    );
    if rendered != golden {
        let diff: Vec<String> = golden
            .lines()
            .zip(rendered.lines())
            .filter(|(want, got)| want != got)
            .take(10)
            .map(|(want, got)| format!("  fixture: {want}\n  current: {got}"))
            .collect();
        panic!(
            "tables drifted from {FIXTURE} ({} vs {} lines); first differences:\n{}\n\
             A refactor must leave every value unchanged; re-pin with ATHENA_TABLES_REGEN=1 \
             only for a deliberate table change recorded in CHANGES.md.",
            golden.lines().count(),
            rendered.lines().count(),
            diff.join("\n")
        );
    }
}
