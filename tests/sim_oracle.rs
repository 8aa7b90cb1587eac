//! Differential-oracle harness for the simulator core (ISSUE 8).
//!
//! Pins golden end-of-run statistics — every [`SimStats`] and [`DramStats`] counter, the
//! run's cycle count, the derived job seed and a digest of the per-epoch telemetry — for
//! every [`CoordinatorKind`] across a slice of the quick workload set, at fixed
//! instruction budgets, on several cache designs, plus a set of multi-core mixes. The
//! fixture (`tests/fixtures/sim_oracle.txt`) was generated from the **pre-refactor**
//! simulator core, so any behavioural drift introduced by a hot-path rewrite fails here
//! with a field-level diff — independently of the table-level engine determinism tests.
//!
//! To intentionally re-pin the oracle after a semantic change (never for a refactor):
//!
//! ```text
//! ATHENA_ORACLE_REGEN=1 cargo test --test sim_oracle
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use athena_repro::engine::default_athena_config;
use athena_repro::harness::experiments::workload_set;
use athena_repro::prelude::*;
use athena_repro::sim::DramStats;
use athena_repro::sim::InstrKind;
use athena_repro::sim::SimStats;
use athena_repro::workloads::{tuning_workloads, WorkloadMix};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/sim_oracle.txt");
const HEADER: &str = "# athena-sim-oracle-v1";

const TRACE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trace_digests.txt"
);
/// Records folded into each workload's trace digest.
const TRACE_DIGEST_RECORDS: usize = 50_000;

/// Every coordination policy the harness can instantiate, including one explicit
/// `AthenaWith` configuration and one `Fixed` combination.
fn all_kinds() -> Vec<CoordinatorKind> {
    vec![
        CoordinatorKind::Baseline,
        CoordinatorKind::OcpOnly,
        CoordinatorKind::PrefetchersOnly,
        CoordinatorKind::Naive,
        CoordinatorKind::Fixed {
            ocp: true,
            prefetchers: false,
        },
        CoordinatorKind::Hpac,
        CoordinatorKind::Mab,
        CoordinatorKind::Tlp,
        CoordinatorKind::Athena,
        CoordinatorKind::AthenaWith(default_athena_config()),
    ]
}

fn quick_workloads(n: usize) -> Vec<WorkloadSpec> {
    let opts = RunOptions {
        workload_limit: Some(n),
        ..RunOptions::quick()
    };
    workload_set(&opts)
}

fn fnv_u64(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Order-sensitive digest of the whole per-epoch telemetry stream. The destructuring is
/// exhaustive on purpose: a counter added to `EpochStats` without being folded in here
/// becomes a compile error, not a silent hole in the oracle.
fn epochs_digest(epochs: &[EpochStats]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in epochs {
        let EpochStats {
            epoch_index,
            instructions,
            cycles,
            loads,
            stores,
            branches,
            branch_mispredicts,
            l1d_misses,
            l2c_misses,
            llc_misses,
            llc_miss_latency_sum,
            prefetches_issued,
            prefetches_useful,
            prefetches_late,
            prefetch_fills_from_dram,
            pollution_misses,
            ocp_predictions,
            ocp_correct,
            loads_off_chip,
            dram_demand_requests,
            dram_prefetch_requests,
            dram_ocp_requests,
            dram_writeback_requests,
            dram_busy_cycles,
        } = *e;
        for v in [
            epoch_index,
            instructions,
            cycles,
            loads,
            stores,
            branches,
            branch_mispredicts,
            l1d_misses,
            l2c_misses,
            llc_misses,
            llc_miss_latency_sum,
            prefetches_issued,
            prefetches_useful,
            prefetches_late,
            prefetch_fills_from_dram,
            pollution_misses,
            ocp_predictions,
            ocp_correct,
            loads_off_chip,
            dram_demand_requests,
            dram_prefetch_requests,
            dram_ocp_requests,
            dram_writeback_requests,
            dram_busy_cycles,
        ] {
            fnv_u64(&mut h, v);
        }
    }
    h
}

/// Flattens one core's end-of-run state into `(field, value)` pairs. Exhaustive on both
/// stats structs, for the same reason as [`epochs_digest`].
fn core_fields(
    instructions: u64,
    cycles: u64,
    stats: &SimStats,
    dram: &DramStats,
    epochs: &[EpochStats],
) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = vec![
        ("instructions".into(), instructions.to_string()),
        ("cycles".into(), cycles.to_string()),
        ("epochs.len".into(), epochs.len().to_string()),
        (
            "epochs.digest".into(),
            format!("{:016x}", epochs_digest(epochs)),
        ),
    ];
    let SimStats {
        instructions: s_instructions,
        cycles: s_cycles,
        loads,
        stores,
        branches,
        branch_mispredicts,
        l1d_misses,
        l2c_misses,
        llc_misses,
        llc_miss_latency_sum,
        prefetches_issued,
        prefetches_useful,
        prefetches_late,
        prefetch_fills_from_dram,
        prefetch_fills_from_dram_unused,
        pollution_misses,
        ocp_predictions,
        ocp_correct,
        loads_off_chip,
        dram_total_requests,
        dram_demand_requests,
        dram_prefetch_requests,
        dram_ocp_requests,
        epochs: s_epochs,
    } = stats;
    for (name, v) in [
        ("stat.instructions", s_instructions),
        ("stat.cycles", s_cycles),
        ("stat.loads", loads),
        ("stat.stores", stores),
        ("stat.branches", branches),
        ("stat.branch_mispredicts", branch_mispredicts),
        ("stat.l1d_misses", l1d_misses),
        ("stat.l2c_misses", l2c_misses),
        ("stat.llc_misses", llc_misses),
        ("stat.llc_miss_latency_sum", llc_miss_latency_sum),
        ("stat.prefetches_issued", prefetches_issued),
        ("stat.prefetches_useful", prefetches_useful),
        ("stat.prefetches_late", prefetches_late),
        ("stat.prefetch_fills_from_dram", prefetch_fills_from_dram),
        (
            "stat.prefetch_fills_from_dram_unused",
            prefetch_fills_from_dram_unused,
        ),
        ("stat.pollution_misses", pollution_misses),
        ("stat.ocp_predictions", ocp_predictions),
        ("stat.ocp_correct", ocp_correct),
        ("stat.loads_off_chip", loads_off_chip),
        ("stat.dram_total_requests", dram_total_requests),
        ("stat.dram_demand_requests", dram_demand_requests),
        ("stat.dram_prefetch_requests", dram_prefetch_requests),
        ("stat.dram_ocp_requests", dram_ocp_requests),
        ("stat.epochs", s_epochs),
    ] {
        out.push((name.into(), v.to_string()));
    }
    let DramStats {
        total_requests,
        demand_requests,
        prefetch_requests,
        ocp_requests,
        writeback_requests,
        row_hits,
        row_misses,
        bus_busy_cycles,
        demand_latency_sum,
    } = dram;
    for (name, v) in [
        ("dram.total_requests", total_requests),
        ("dram.demand_requests", demand_requests),
        ("dram.prefetch_requests", prefetch_requests),
        ("dram.ocp_requests", ocp_requests),
        ("dram.writeback_requests", writeback_requests),
        ("dram.row_hits", row_hits),
        ("dram.row_misses", row_misses),
        ("dram.bus_busy_cycles", bus_busy_cycles),
        ("dram.demand_latency_sum", demand_latency_sum),
    ] {
        out.push((name.into(), v.to_string()));
    }
    out
}

/// One oracle cell: a unique key plus its flattened fields.
struct OracleCell {
    key: String,
    fields: Vec<(String, String)>,
}

fn single_cell(experiment: &str, job: Job) -> OracleCell {
    let key = format!("{experiment}:{}", job.label());
    let seed = job.seed;
    match job.run() {
        JobOutput::Single(r) => {
            let mut fields = vec![("seed".to_string(), format!("{seed:016x}"))];
            fields.extend(core_fields(
                r.instructions,
                r.cycles,
                &r.stats,
                &r.dram,
                &r.epochs,
            ));
            OracleCell { key, fields }
        }
        JobOutput::Multi(_) => unreachable!("single job yields a single result"),
    }
}

fn multi_cells(experiment: &str, job: Job) -> Vec<OracleCell> {
    let label = job.label();
    let seed = job.seed;
    match job.run() {
        JobOutput::Multi(r) => r
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let mut fields = vec![("seed".to_string(), format!("{seed:016x}"))];
                fields.extend(core_fields(
                    core.instructions,
                    core.cycles,
                    &core.stats,
                    &core.dram,
                    &core.epochs,
                ));
                OracleCell {
                    key: format!("{experiment}:{label}#core{i}"),
                    fields,
                }
            })
            .collect(),
        JobOutput::Single(_) => unreachable!("multicore job yields a multicore result"),
    }
}

/// Runs the whole oracle grid from scratch. Budgets are small enough that the grid stays
/// in integration-test territory, large enough that every policy crosses several epoch
/// boundaries and the caches see real eviction pressure.
fn snapshot() -> Vec<OracleCell> {
    let mut cells = Vec::new();

    // Every coordinator kind on the paper's default design (CD1), four quick workloads.
    let cd1 = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    for kind in all_kinds() {
        for spec in quick_workloads(4) {
            cells.push(single_cell(
                "cd1",
                Job::single("cd1", spec, cd1.clone(), kind.clone(), 8_000),
            ));
        }
    }

    // Designs that exercise the other hot-path branches: an L1D prefetcher (CD4, which
    // also exercises TLP's per-request filter), a two-prefetcher L2C design (CD3) and a
    // no-OCP design; plus a bandwidth-sensitivity variant of CD1 (the config describe()
    // string elides bandwidth, so it gets its own experiment key).
    let cd4 = SystemConfig::cd4(PrefetcherKind::Ipcp, PrefetcherKind::Pythia, OcpKind::Popet);
    for kind in [
        CoordinatorKind::Naive,
        CoordinatorKind::Tlp,
        CoordinatorKind::Athena,
    ] {
        for spec in quick_workloads(2) {
            cells.push(single_cell(
                "cd4",
                Job::single("cd4", spec, cd4.clone(), kind.clone(), 8_000),
            ));
        }
    }
    let cd3 = SystemConfig::cd3(PrefetcherKind::SppPpf, PrefetcherKind::Sms, OcpKind::Popet);
    for kind in [CoordinatorKind::Hpac, CoordinatorKind::Athena] {
        for spec in quick_workloads(2) {
            cells.push(single_cell(
                "cd3",
                Job::single("cd3", spec, cd3.clone(), kind.clone(), 8_000),
            ));
        }
    }
    let no_ocp = SystemConfig::prefetchers_only(PrefetcherKind::Mlop, PrefetcherKind::Pythia);
    for spec in quick_workloads(2) {
        cells.push(single_cell(
            "no-ocp",
            Job::single(
                "no-ocp",
                spec,
                no_ocp.clone(),
                CoordinatorKind::PrefetchersOnly,
                8_000,
            ),
        ));
    }
    let narrow = cd1.clone().with_bandwidth(1.6);
    for spec in quick_workloads(2) {
        cells.push(single_cell(
            "bw1.6",
            Job::single(
                "bw1.6",
                spec,
                narrow.clone(),
                CoordinatorKind::Athena,
                8_000,
            ),
        ));
    }

    // Multi-core: shared-DRAM interference with per-core private hierarchies.
    let mix_pool: Vec<WorkloadMix> = mixes(4, 1, 7);
    for mix in mix_pool.into_iter().take(2) {
        for kind in [CoordinatorKind::Baseline, CoordinatorKind::Athena] {
            cells.extend(multi_cells(
                "mix4",
                Job::multicore("mix4", mix.clone(), cd1.clone(), kind, 6_000),
            ));
        }
    }
    cells
}

fn render(cells: &[OracleCell]) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(
        "# Golden end-of-run statistics generated from the pre-refactor simulator core.\n",
    );
    out.push_str(
        "# Any drift fails tests/sim_oracle.rs with a field-level diff. Regenerate only\n",
    );
    out.push_str("# for an intentional semantic change: ATHENA_ORACLE_REGEN=1 cargo test --test sim_oracle\n");
    for cell in cells {
        let _ = writeln!(out, "\ncell {}", cell.key);
        for (k, v) in &cell.fields {
            let _ = writeln!(out, "{k} {v}");
        }
    }
    out
}

type FieldMap = BTreeMap<String, Vec<(String, String)>>;

fn parse(fixture: &str) -> FieldMap {
    let mut cells: FieldMap = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in fixture.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(key) = line.strip_prefix("cell ") {
            current = Some(key.to_string());
            cells.entry(key.to_string()).or_default();
        } else if let Some((field, value)) = line.split_once(' ') {
            let key = current
                .clone()
                .unwrap_or_else(|| panic!("fixture field '{field}' appears before any cell"));
            cells
                .get_mut(&key)
                .expect("cell entry exists")
                .push((field.to_string(), value.to_string()));
        }
    }
    cells
}

#[test]
fn end_of_run_stats_match_the_golden_oracle() {
    let cells = snapshot();
    if std::env::var_os("ATHENA_ORACLE_REGEN").is_some() {
        std::fs::write(FIXTURE, render(&cells)).expect("fixture written");
        eprintln!(
            "sim_oracle: regenerated {} cells into {FIXTURE}",
            cells.len()
        );
        return;
    }

    let fixture = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!(
            "cannot read the oracle fixture {FIXTURE}: {e}\n\
             (generate it once with ATHENA_ORACLE_REGEN=1 cargo test --test sim_oracle)"
        )
    });
    assert!(
        fixture.starts_with(HEADER),
        "fixture does not start with '{HEADER}'"
    );
    let golden = parse(&fixture);

    let mut diff = String::new();
    let mut seen = std::collections::BTreeSet::new();
    for cell in &cells {
        seen.insert(cell.key.clone());
        let Some(expected) = golden.get(&cell.key) else {
            let _ = writeln!(diff, "cell `{}` missing from the fixture", cell.key);
            continue;
        };
        let expected_map: BTreeMap<&str, &str> = expected
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        for (field, value) in &cell.fields {
            match expected_map.get(field.as_str()) {
                None => {
                    let _ = writeln!(diff, "cell `{}`: field `{field}` not pinned", cell.key);
                }
                Some(want) if *want != value => {
                    let _ = writeln!(
                        diff,
                        "cell `{}`: {field} drifted: fixture={want} current={value}",
                        cell.key
                    );
                }
                Some(_) => {}
            }
        }
    }
    for key in golden.keys() {
        if !seen.contains(key) {
            let _ = writeln!(diff, "fixture cell `{key}` was not produced by this run");
        }
    }
    assert!(
        diff.is_empty(),
        "simulator statistics drifted from the golden oracle:\n{diff}\n\
         A hot-path refactor must reproduce every counter exactly. If the change is an\n\
         intentional semantic change, re-pin with ATHENA_ORACLE_REGEN=1."
    );
}

#[test]
fn the_committed_fixture_is_present_and_well_formed() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("committed fixture readable");
    let cells = parse(&fixture);
    assert!(
        cells.len() >= 50,
        "expected a broad oracle grid, found {} cells",
        cells.len()
    );
    for (key, fields) in &cells {
        assert!(
            fields.iter().any(|(k, _)| k == "stat.cycles"),
            "cell `{key}` carries no stats"
        );
        assert!(
            fields.iter().any(|(k, _)| k == "epochs.digest"),
            "cell `{key}` carries no epoch digest"
        );
    }
}

/// Order-sensitive FNV digest of the first [`TRACE_DIGEST_RECORDS`] records of `spec`'s
/// trace: every field of every record, with a tag per instruction kind.
fn trace_digest(spec: &WorkloadSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for rec in spec.trace().take(TRACE_DIGEST_RECORDS) {
        let (tag, addr, flag) = match rec.kind {
            InstrKind::Alu => (0, 0, false),
            InstrKind::Load {
                addr,
                dep_on_recent_load,
            } => (1, addr, dep_on_recent_load),
            InstrKind::Store { addr } => (2, addr, false),
            InstrKind::Branch { taken } => (3, 0, taken),
        };
        for x in [rec.pc, tag, addr, u64::from(flag)] {
            fnv_u64(&mut h, x);
        }
    }
    h
}

/// One `<suite>/<name> seed=<seed> <digest>` line per evaluation and tuning workload.
fn trace_digest_lines() -> Vec<String> {
    all_workloads()
        .iter()
        .chain(tuning_workloads().iter())
        .map(|w| {
            format!(
                "{}/{} seed={} {:016x}",
                w.suite,
                w.name,
                w.seed,
                trace_digest(w)
            )
        })
        .collect()
}

/// The workload generators feed every simulation cell; a generator refactor must emit the
/// same record stream. The fixture was generated before the generator's read cursor
/// replaced its reverse-then-pop buffer and is never regenerated.
#[test]
fn workload_trace_streams_match_their_golden_digests() {
    let fixture = std::fs::read_to_string(TRACE_FIXTURE)
        .unwrap_or_else(|e| panic!("cannot read the trace-digest fixture {TRACE_FIXTURE}: {e}"));
    let golden: Vec<&str> = fixture
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let current = trace_digest_lines();
    assert_eq!(
        golden.len(),
        120,
        "the fixture must pin all 100 evaluation and 20 tuning workloads"
    );
    let diff: Vec<String> = golden
        .iter()
        .zip(&current)
        .filter(|(want, got)| **want != got.as_str())
        .map(|(want, got)| format!("fixture: {want}\ncurrent: {got}"))
        .collect();
    assert_eq!(current.len(), golden.len(), "workload count changed");
    assert!(
        diff.is_empty(),
        "trace streams drifted from the golden digests:\n{}",
        diff.join("\n")
    );
}
