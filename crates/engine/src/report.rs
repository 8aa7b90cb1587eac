//! Machine-readable report writers: per-figure JSON results, windowed-timeline documents,
//! the `BENCH_sim.json` phase-profile pieces, and the lossless result serialisation the
//! result store records are written in.
//!
//! Every JSON document this workspace emits is identified by a [`Schema`] — a shared
//! (name, version) constant rendered as the document's leading `"schema"` field. All
//! writers (here, in the tune crate and in the result store) go through
//! [`Schema::document`], so schema ids live in exactly one place and a version bump is a
//! one-line change next to the serialiser it describes.

use std::time::Duration;

use athena_sim::{
    CoordinatorTelemetry, DramStats, EpochStats, MultiCoreResult, SimResult, SimStats,
};
use athena_telemetry::{Timeline, WindowMetrics, WindowSample};

use crate::job::{JobOutput, RunResult};
use crate::json::Json;
use crate::record::CellRecord;
use crate::table::ExperimentTable;

/// A named, versioned JSON document schema.
///
/// The id rendered into documents is `athena-<name>-v<version>`. Constants for every
/// document the workspace writes live alongside this type; consumers match documents with
/// [`Schema::matches`] instead of comparing hand-typed strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schema {
    /// Schema family name (e.g. `"figure-result"`).
    pub name: &'static str,
    /// Format version; bumped when the document layout changes incompatibly.
    pub version: u32,
}

/// Schema of the per-figure JSON result documents ([`figure_report`]).
pub const FIGURE_SCHEMA: Schema = Schema::new("figure-result", 1);
/// Schema of the standalone per-cell timeline documents ([`timeline_report`]).
pub const TIMELINE_SCHEMA: Schema = Schema::new("timeline", 1);
/// Schema of the tune leaderboard document (`Leaderboard::to_json`).
pub const TUNE_SCHEMA: Schema = Schema::new("tune", 1);
/// Schema of a saved tuned-configuration document (`Leaderboard::best_json`, `--config`).
pub const TUNE_CONFIG_SCHEMA: Schema = Schema::new("tune-config", 1);
/// Schema of one result-store record payload ([`job_output_json`] wrapped by the engine's
/// store module).
pub const RESULT_RECORD_SCHEMA: Schema = Schema::new("result-record", 1);
/// Schema of the engine's structured event-stream lines (`--events`). The sink itself
/// lives below this crate in `athena-probe`, which carries the rendered id as a literal
/// ([`athena_probe::EVENTS_SCHEMA_ID`]); a test here asserts the two agree.
pub const EVENTS_SCHEMA: Schema = Schema::new("events", 1);
/// Schema of the `BENCH_sim.json` snapshot (the `figures --profile` per-phase aggregate).
pub const SIM_BENCH_SCHEMA: Schema = Schema::new("sim-bench", 1);
/// Schema of a distributed worker's handshake frame (`crate::dist`).
pub const DIST_HELLO_SCHEMA: Schema = Schema::new("dist-hello", 1);
/// Schema of a coordinator→worker shard frame: the indexed job list one worker runs.
pub const DIST_SHARD_SCHEMA: Schema = Schema::new("dist-shard", 1);
/// Schema of a worker→coordinator per-cell result frame: wall-clock, phase profile when
/// profiling, and the error or the [`RESULT_RECORD_SCHEMA`] envelope of the cell.
pub const DIST_RESULT_SCHEMA: Schema = Schema::new("dist-result", 1);
/// Schema of a worker's end-of-shard frame.
pub const DIST_DONE_SCHEMA: Schema = Schema::new("dist-done", 1);
/// Schema of a metrics-registry snapshot ([`metrics_snapshot_json`]), embedded as the
/// `metrics` object of run reports and readable standalone by `results metrics`.
pub const METRICS_SCHEMA: Schema = Schema::new("metrics", 1);

impl Schema {
    /// A schema constant.
    pub const fn new(name: &'static str, version: u32) -> Self {
        Self { name, version }
    }

    /// The id written into documents: `athena-<name>-v<version>`.
    pub fn id(&self) -> String {
        format!("athena-{}-v{}", self.name, self.version)
    }

    /// Builds a document carrying this schema's id as its leading `"schema"` field.
    pub fn document(&self, fields: Vec<(&str, Json)>) -> Json {
        let mut pairs = vec![("schema", Json::str(self.id()))];
        pairs.extend(fields);
        Json::obj(pairs)
    }

    /// Whether `doc` declares exactly this schema (name and version).
    pub fn matches(&self, doc: &Json) -> bool {
        doc.get("schema").and_then(Json::as_str) == Some(self.id().as_str())
    }
}

/// Builds the JSON document for one experiment run: the aggregate table plus the per-cell
/// records (label, seed, wall-clock, outcome) collected by [`crate::with_recording`].
pub fn figure_report(
    experiment: &str,
    jobs: usize,
    wall: Duration,
    table: &ExperimentTable,
    cells: &[CellRecord],
) -> Json {
    FIGURE_SCHEMA.document(vec![
        ("experiment", Json::str(experiment)),
        ("jobs", Json::int(jobs)),
        ("wall_ms", Json::num(wall.as_secs_f64() * 1e3)),
        ("cell_count", Json::int(cells.len())),
        (
            "failed_cells",
            Json::int(cells.iter().filter(|c| c.error.is_some()).count()),
        ),
        (
            "cached_cells",
            Json::int(cells.iter().filter(|c| c.cached).count()),
        ),
        ("table", table.to_json()),
        (
            "cells",
            Json::arr(cells.iter().map(CellRecord::to_json).collect()),
        ),
        (
            "metrics",
            metrics_snapshot_json(&athena_probe::metrics().snapshot()),
        ),
    ])
}

/// Serialises a hot-path phase profile: one object per non-empty phase (in hierarchy
/// order) with call count and self-time nanoseconds, plus the phase-disjoint total. Used
/// by the per-cell report records and the `BENCH_sim.json` aggregate.
pub fn phase_profile_json(p: &athena_probe::PhaseProfile) -> Json {
    Json::obj(vec![
        (
            "phases",
            Json::obj(
                p.stats()
                    .map(|s| {
                        (
                            s.phase.name(),
                            Json::obj(vec![
                                ("calls", u64_json(s.calls)),
                                ("nanos", u64_json(s.nanos)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("total_nanos", u64_json(p.total_nanos())),
    ])
}

/// Parses a [`phase_profile_json`] document back into a profile — the deserialisation
/// half the distributed coordinator uses when a worker's per-cell profile arrives inside
/// its `RESULT` frame. Lossless: re-serialising the parsed profile gives the same bytes.
pub fn phase_profile_from_json(doc: &Json) -> Result<athena_probe::PhaseProfile, String> {
    let Some(Json::Obj(phases)) = doc.get("phases") else {
        return Err("profile has no 'phases' object".to_string());
    };
    let mut profile = athena_probe::PhaseProfile::new();
    for (name, stat) in phases {
        let phase = athena_probe::Phase::from_name(name)
            .ok_or_else(|| format!("unknown phase '{name}'"))?;
        let calls = stat
            .get("calls")
            .and_then(u64_value)
            .ok_or_else(|| format!("phase '{name}' has no 'calls'"))?;
        let nanos = stat
            .get("nanos")
            .and_then(u64_value)
            .ok_or_else(|| format!("phase '{name}' has no 'nanos'"))?;
        profile.add(phase, calls, nanos);
    }
    Ok(profile)
}

/// Serialises a metrics-registry snapshot under [`METRICS_SCHEMA`]: counters and
/// histograms in declaration order, workers ascending by id — deterministic in shape
/// (the values are wall-clock-ish by nature, like `t_ms`).
pub fn metrics_snapshot_json(snapshot: &athena_probe::MetricsSnapshot) -> Json {
    METRICS_SCHEMA.document(vec![
        (
            "counters",
            Json::obj(
                snapshot
                    .counters
                    .iter()
                    .map(|&(name, value)| (name, u64_json(value)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::obj(
                snapshot
                    .histograms
                    .iter()
                    .map(|(name, h)| {
                        (
                            *name,
                            Json::obj(vec![
                                ("count", u64_json(h.count)),
                                ("sum", u64_json(h.sum)),
                                ("min", u64_json(h.min)),
                                ("max", u64_json(h.max)),
                                ("mean", Json::num(h.mean())),
                                (
                                    "buckets",
                                    Json::arr(
                                        h.buckets
                                            .iter()
                                            .map(|&(log2, n)| {
                                                Json::obj(vec![
                                                    ("log2", u64_json(log2 as u64)),
                                                    ("count", u64_json(n)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "workers",
            Json::arr(
                snapshot
                    .workers
                    .iter()
                    .map(|&(id, util)| {
                        Json::obj(vec![
                            ("worker", u64_json(id as u64)),
                            ("cells", u64_json(util.cells)),
                            ("busy_nanos", u64_json(util.busy_nanos)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn metrics_json(m: &WindowMetrics) -> Json {
    Json::obj(vec![
        ("ipc", Json::num(m.ipc)),
        ("l1d_mpki", Json::num(m.l1d_mpki)),
        ("llc_mpki", Json::num(m.llc_mpki)),
        ("prefetch_accuracy", Json::num(m.prefetch_accuracy)),
        ("prefetch_coverage", Json::num(m.prefetch_coverage)),
        ("prefetch_timeliness", Json::num(m.prefetch_timeliness)),
        ("ocp_precision", Json::num(m.ocp_precision)),
        ("ocp_recall", Json::num(m.ocp_recall)),
    ])
}

/// Serialises a windowed timeline: one object per window with the raw counters, the
/// derived per-window metrics and — when sampled — the agent internals (Q-value summary,
/// exploration rate, per-window action counts), plus the early-vs-late learning curve.
pub fn timeline_json(t: &Timeline) -> Json {
    let deltas = t.action_deltas();
    let windows = t
        .windows
        .iter()
        .zip(deltas)
        .map(|(w, delta)| {
            let s = &w.stats;
            let mut pairs = vec![
                ("index", Json::num(w.index as f64)),
                ("start_instruction", Json::num(w.start_instruction as f64)),
                ("epochs", Json::num(w.epochs as f64)),
                ("instructions", Json::num(s.instructions as f64)),
                ("cycles", Json::num(s.cycles as f64)),
                ("prefetches_issued", Json::num(s.prefetches_issued as f64)),
                ("prefetches_useful", Json::num(s.prefetches_useful as f64)),
                ("prefetches_late", Json::num(s.prefetches_late as f64)),
                ("ocp_predictions", Json::num(s.ocp_predictions as f64)),
                ("ocp_correct", Json::num(s.ocp_correct as f64)),
                ("loads_off_chip", Json::num(s.loads_off_chip as f64)),
                ("metrics", metrics_json(&WindowMetrics::from_stats(s))),
                ("bandwidth_usage", Json::num(s.bandwidth_usage())),
            ];
            if let (Some(a), Some(d)) = (&w.agent, delta) {
                pairs.push((
                    "agent",
                    Json::obj(vec![
                        ("q_mean", Json::num(a.q_mean)),
                        ("q_min", Json::num(a.q_min)),
                        ("q_max", Json::num(a.q_max)),
                        ("epsilon", Json::num(a.epsilon)),
                        ("updates", Json::num(a.updates as f64)),
                        (
                            "actions",
                            Json::arr(d.iter().map(|&c| Json::num(c as f64)).collect()),
                        ),
                    ]),
                ));
            }
            Json::obj(pairs)
        })
        .collect();
    let mut pairs = vec![
        (
            "window_instructions",
            Json::num(t.window_instructions as f64),
        ),
        ("windows", Json::arr(windows)),
    ];
    if let Some(curve) = t.learning_curve() {
        pairs.push((
            "learning_curve",
            Json::obj(vec![
                ("windows_per_side", Json::num(curve.windows_per_side as f64)),
                ("early", metrics_json(&curve.early)),
                ("late", metrics_json(&curve.late)),
            ]),
        ));
    }
    Json::obj(pairs)
}

/// Builds the standalone JSON document for one cell's timeline (the `figures --timeline`
/// per-cell files).
pub fn timeline_report(workload: &str, coordinator: &str, seed: u64, t: &Timeline) -> Json {
    TIMELINE_SCHEMA.document(vec![
        ("workload", Json::str(workload)),
        ("coordinator", Json::str(coordinator)),
        ("seed", Json::hex(seed)),
        ("timeline", timeline_json(t)),
    ])
}

// ---------------------------------------------------------------------------------------
// Lossless result serialisation (the result store's record payloads).
//
// The report serialisers above are presentation formats: they round counters through f64
// and derive per-window metrics. A store record must instead reconstruct the *exact*
// `JobOutput` a fresh simulation would have produced, so these functions serialise every
// field of `RunResult` / `MultiCoreResult` bit-exactly: u64 counters beyond f64's exact
// integer range fall back to hex strings ([`Json::hex`]), raw f64s rely on Rust's
// shortest-round-trip formatting (which parses back to the same bits), and structs are
// destructured exhaustively so adding a field is a compile error here rather than a
// silently lossy record.
// ---------------------------------------------------------------------------------------

/// Serialises a `u64` losslessly: a plain number inside f64's exact integer range, a hex
/// string beyond it.
pub(crate) fn u64_json(v: u64) -> Json {
    if v < (1u64 << 53) {
        Json::num(v as f64)
    } else {
        Json::hex(v)
    }
}

/// Reads a `u64` written by [`u64_json`] (plain integral number or hex string).
pub(crate) fn u64_value(j: &Json) -> Option<u64> {
    if let Some(v) = j.as_hex_u64() {
        return Some(v);
    }
    let f = j.as_f64()?;
    if f.fract() == 0.0 && (0.0..9_007_199_254_740_992.0).contains(&f) {
        Some(f as u64)
    } else {
        None
    }
}

fn u64_field(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(u64_value)
        .ok_or_else(|| format!("missing or non-u64 field '{key}'"))
}

fn f64_field(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

/// One epoch's counters as a fixed-order 24-element array (compact: a timeline-bearing
/// record holds thousands of these). The destructuring is exhaustive on purpose.
fn epoch_stats_json(s: &EpochStats) -> Json {
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
    } = *s;
    Json::arr(
        [
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
        ]
        .iter()
        .map(|&v| u64_json(v))
        .collect(),
    )
}

fn epoch_stats_from_json(j: &Json) -> Result<EpochStats, String> {
    let items = j
        .as_array()
        .ok_or_else(|| "epoch stats must be an array".to_string())?;
    let values: Vec<u64> = items
        .iter()
        .map(u64_value)
        .collect::<Option<_>>()
        .ok_or_else(|| "epoch stats hold a non-u64 entry".to_string())?;
    let [epoch_index, instructions, cycles, loads, stores, branches, branch_mispredicts, l1d_misses, l2c_misses, llc_misses, llc_miss_latency_sum, prefetches_issued, prefetches_useful, prefetches_late, prefetch_fills_from_dram, pollution_misses, ocp_predictions, ocp_correct, loads_off_chip, dram_demand_requests, dram_prefetch_requests, dram_ocp_requests, dram_writeback_requests, dram_busy_cycles] =
        values[..]
    else {
        return Err(format!(
            "epoch stats hold {} entries, expected 24",
            values.len()
        ));
    };
    Ok(EpochStats {
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
    })
}

fn sim_stats_json(s: &SimStats) -> Json {
    let SimStats {
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
        prefetch_fills_from_dram_unused,
        pollution_misses,
        ocp_predictions,
        ocp_correct,
        loads_off_chip,
        dram_total_requests,
        dram_demand_requests,
        dram_prefetch_requests,
        dram_ocp_requests,
        epochs,
    } = *s;
    Json::obj(vec![
        ("instructions", u64_json(instructions)),
        ("cycles", u64_json(cycles)),
        ("loads", u64_json(loads)),
        ("stores", u64_json(stores)),
        ("branches", u64_json(branches)),
        ("branch_mispredicts", u64_json(branch_mispredicts)),
        ("l1d_misses", u64_json(l1d_misses)),
        ("l2c_misses", u64_json(l2c_misses)),
        ("llc_misses", u64_json(llc_misses)),
        ("llc_miss_latency_sum", u64_json(llc_miss_latency_sum)),
        ("prefetches_issued", u64_json(prefetches_issued)),
        ("prefetches_useful", u64_json(prefetches_useful)),
        ("prefetches_late", u64_json(prefetches_late)),
        (
            "prefetch_fills_from_dram",
            u64_json(prefetch_fills_from_dram),
        ),
        (
            "prefetch_fills_from_dram_unused",
            u64_json(prefetch_fills_from_dram_unused),
        ),
        ("pollution_misses", u64_json(pollution_misses)),
        ("ocp_predictions", u64_json(ocp_predictions)),
        ("ocp_correct", u64_json(ocp_correct)),
        ("loads_off_chip", u64_json(loads_off_chip)),
        ("dram_total_requests", u64_json(dram_total_requests)),
        ("dram_demand_requests", u64_json(dram_demand_requests)),
        ("dram_prefetch_requests", u64_json(dram_prefetch_requests)),
        ("dram_ocp_requests", u64_json(dram_ocp_requests)),
        ("epochs", u64_json(epochs)),
    ])
}

fn sim_stats_from_json(j: &Json) -> Result<SimStats, String> {
    Ok(SimStats {
        instructions: u64_field(j, "instructions")?,
        cycles: u64_field(j, "cycles")?,
        loads: u64_field(j, "loads")?,
        stores: u64_field(j, "stores")?,
        branches: u64_field(j, "branches")?,
        branch_mispredicts: u64_field(j, "branch_mispredicts")?,
        l1d_misses: u64_field(j, "l1d_misses")?,
        l2c_misses: u64_field(j, "l2c_misses")?,
        llc_misses: u64_field(j, "llc_misses")?,
        llc_miss_latency_sum: u64_field(j, "llc_miss_latency_sum")?,
        prefetches_issued: u64_field(j, "prefetches_issued")?,
        prefetches_useful: u64_field(j, "prefetches_useful")?,
        prefetches_late: u64_field(j, "prefetches_late")?,
        prefetch_fills_from_dram: u64_field(j, "prefetch_fills_from_dram")?,
        prefetch_fills_from_dram_unused: u64_field(j, "prefetch_fills_from_dram_unused")?,
        pollution_misses: u64_field(j, "pollution_misses")?,
        ocp_predictions: u64_field(j, "ocp_predictions")?,
        ocp_correct: u64_field(j, "ocp_correct")?,
        loads_off_chip: u64_field(j, "loads_off_chip")?,
        dram_total_requests: u64_field(j, "dram_total_requests")?,
        dram_demand_requests: u64_field(j, "dram_demand_requests")?,
        dram_prefetch_requests: u64_field(j, "dram_prefetch_requests")?,
        dram_ocp_requests: u64_field(j, "dram_ocp_requests")?,
        epochs: u64_field(j, "epochs")?,
    })
}

/// Serialises a DRAM-channel snapshot losslessly. Also used by the per-cell report
/// records ([`CellRecord::to_json`]) — one serialiser, two documents.
pub(crate) fn dram_stats_json(d: &DramStats) -> Json {
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
    } = *d;
    Json::obj(vec![
        ("total_requests", u64_json(total_requests)),
        ("demand_requests", u64_json(demand_requests)),
        ("prefetch_requests", u64_json(prefetch_requests)),
        ("ocp_requests", u64_json(ocp_requests)),
        ("writeback_requests", u64_json(writeback_requests)),
        ("row_hits", u64_json(row_hits)),
        ("row_misses", u64_json(row_misses)),
        ("bus_busy_cycles", u64_json(bus_busy_cycles)),
        ("demand_latency_sum", u64_json(demand_latency_sum)),
    ])
}

fn dram_stats_from_json(j: &Json) -> Result<DramStats, String> {
    Ok(DramStats {
        total_requests: u64_field(j, "total_requests")?,
        demand_requests: u64_field(j, "demand_requests")?,
        prefetch_requests: u64_field(j, "prefetch_requests")?,
        ocp_requests: u64_field(j, "ocp_requests")?,
        writeback_requests: u64_field(j, "writeback_requests")?,
        row_hits: u64_field(j, "row_hits")?,
        row_misses: u64_field(j, "row_misses")?,
        bus_busy_cycles: u64_field(j, "bus_busy_cycles")?,
        demand_latency_sum: u64_field(j, "demand_latency_sum")?,
    })
}

fn agent_telemetry_json(a: &CoordinatorTelemetry) -> Json {
    let CoordinatorTelemetry {
        epsilon,
        updates,
        q_mean,
        q_min,
        q_max,
        action_histogram,
    } = a;
    Json::obj(vec![
        ("epsilon", Json::num(*epsilon)),
        ("updates", u64_json(*updates)),
        ("q_mean", Json::num(*q_mean)),
        ("q_min", Json::num(*q_min)),
        ("q_max", Json::num(*q_max)),
        (
            "action_histogram",
            Json::arr(action_histogram.iter().map(|&c| u64_json(c)).collect()),
        ),
    ])
}

fn agent_telemetry_from_json(j: &Json) -> Result<CoordinatorTelemetry, String> {
    let histogram = j
        .get("action_histogram")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing 'action_histogram' array".to_string())?
        .iter()
        .map(u64_value)
        .collect::<Option<_>>()
        .ok_or_else(|| "non-u64 action_histogram entry".to_string())?;
    Ok(CoordinatorTelemetry {
        epsilon: f64_field(j, "epsilon")?,
        updates: u64_field(j, "updates")?,
        q_mean: f64_field(j, "q_mean")?,
        q_min: f64_field(j, "q_min")?,
        q_max: f64_field(j, "q_max")?,
        action_histogram: histogram,
    })
}

/// Serialises a timeline losslessly (raw window counters and cumulative agent snapshots —
/// unlike the report-oriented [`timeline_json`], which derives presentation metrics and
/// per-window action deltas).
fn timeline_data_json(t: &Timeline) -> Json {
    let windows = t
        .windows
        .iter()
        .map(|w| {
            let WindowSample {
                index,
                start_instruction,
                epochs,
                stats,
                agent,
            } = w;
            Json::obj(vec![
                ("index", u64_json(*index)),
                ("start_instruction", u64_json(*start_instruction)),
                ("epochs", u64_json(*epochs)),
                ("stats", epoch_stats_json(stats)),
                (
                    "agent",
                    match agent {
                        Some(a) => agent_telemetry_json(a),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("window_instructions", u64_json(t.window_instructions)),
        ("windows", Json::arr(windows)),
    ])
}

fn timeline_data_from_json(j: &Json) -> Result<Timeline, String> {
    let windows = j
        .get("windows")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing 'windows' array".to_string())?
        .iter()
        .map(|w| {
            Ok(WindowSample {
                index: u64_field(w, "index")?,
                start_instruction: u64_field(w, "start_instruction")?,
                epochs: u64_field(w, "epochs")?,
                stats: epoch_stats_from_json(
                    w.get("stats")
                        .ok_or_else(|| "missing 'stats'".to_string())?,
                )?,
                agent: match w.get("agent") {
                    None | Some(Json::Null) => None,
                    Some(a) => Some(agent_telemetry_from_json(a)?),
                },
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Timeline {
        window_instructions: u64_field(j, "window_instructions")?,
        windows,
    })
}

fn epochs_json(epochs: &[EpochStats]) -> Json {
    Json::arr(epochs.iter().map(epoch_stats_json).collect())
}

fn epochs_from_json(j: &Json, key: &str) -> Result<Vec<EpochStats>, String> {
    j.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing '{key}' array"))?
        .iter()
        .map(epoch_stats_from_json)
        .collect()
}

/// Serialises one single-core result bit-exactly; [`run_result_from_json`] inverts it.
pub fn run_result_json(r: &RunResult) -> Json {
    let RunResult {
        workload,
        instructions,
        cycles,
        ipc,
        stats,
        dram,
        epochs,
        timeline,
    } = r;
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("instructions", u64_json(*instructions)),
        ("cycles", u64_json(*cycles)),
        ("ipc", Json::num(*ipc)),
        ("stats", sim_stats_json(stats)),
        ("dram", dram_stats_json(dram)),
        ("epochs", epochs_json(epochs)),
        (
            "timeline",
            match timeline {
                Some(t) => timeline_data_json(t),
                None => Json::Null,
            },
        ),
    ])
}

/// Reconstructs the exact [`RunResult`] serialised by [`run_result_json`].
pub fn run_result_from_json(j: &Json) -> Result<RunResult, String> {
    Ok(RunResult {
        workload: str_field(j, "workload")?.to_string(),
        instructions: u64_field(j, "instructions")?,
        cycles: u64_field(j, "cycles")?,
        ipc: f64_field(j, "ipc")?,
        stats: sim_stats_from_json(
            j.get("stats")
                .ok_or_else(|| "missing 'stats'".to_string())?,
        )?,
        dram: dram_stats_from_json(j.get("dram").ok_or_else(|| "missing 'dram'".to_string())?)?,
        epochs: epochs_from_json(j, "epochs")?,
        timeline: match j.get("timeline") {
            None | Some(Json::Null) => None,
            Some(t) => Some(timeline_data_from_json(t)?),
        },
    })
}

fn sim_result_json(r: &SimResult) -> Json {
    let SimResult {
        instructions,
        cycles,
        stats,
        dram,
        epochs,
        agent_epochs,
    } = r;
    Json::obj(vec![
        ("instructions", u64_json(*instructions)),
        ("cycles", u64_json(*cycles)),
        ("stats", sim_stats_json(stats)),
        ("dram", dram_stats_json(dram)),
        ("epochs", epochs_json(epochs)),
        (
            "agent_epochs",
            Json::arr(
                agent_epochs
                    .iter()
                    .map(|a| match a {
                        Some(a) => agent_telemetry_json(a),
                        None => Json::Null,
                    })
                    .collect(),
            ),
        ),
    ])
}

fn sim_result_from_json(j: &Json) -> Result<SimResult, String> {
    let agent_epochs = j
        .get("agent_epochs")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing 'agent_epochs' array".to_string())?
        .iter()
        .map(|a| match a {
            Json::Null => Ok(None),
            other => agent_telemetry_from_json(other).map(Some),
        })
        .collect::<Result<_, String>>()?;
    Ok(SimResult {
        instructions: u64_field(j, "instructions")?,
        cycles: u64_field(j, "cycles")?,
        stats: sim_stats_from_json(
            j.get("stats")
                .ok_or_else(|| "missing 'stats'".to_string())?,
        )?,
        dram: dram_stats_from_json(j.get("dram").ok_or_else(|| "missing 'dram'".to_string())?)?,
        epochs: epochs_from_json(j, "epochs")?,
        agent_epochs,
    })
}

/// Serialises a job's full output — single- or multi-core — bit-exactly;
/// [`job_output_from_json`] inverts it. This is the payload format of result-store
/// records ([`RESULT_RECORD_SCHEMA`]).
pub fn job_output_json(output: &JobOutput) -> Json {
    match output {
        JobOutput::Single(r) => Json::obj(vec![
            ("kind", Json::str("single")),
            ("result", run_result_json(r)),
        ]),
        JobOutput::Multi(m) => {
            let MultiCoreResult { cores } = m;
            Json::obj(vec![
                ("kind", Json::str("multi")),
                (
                    "cores",
                    Json::arr(cores.iter().map(sim_result_json).collect()),
                ),
            ])
        }
    }
}

/// Reconstructs the exact [`JobOutput`] serialised by [`job_output_json`].
pub fn job_output_from_json(j: &Json) -> Result<JobOutput, String> {
    match str_field(j, "kind")? {
        "single" => Ok(JobOutput::Single(Box::new(run_result_from_json(
            j.get("result")
                .ok_or_else(|| "missing 'result'".to_string())?,
        )?))),
        "multi" => {
            let cores = j
                .get("cores")
                .and_then(Json::as_array)
                .ok_or_else(|| "missing 'cores' array".to_string())?
                .iter()
                .map(sim_result_from_json)
                .collect::<Result<_, String>>()?;
            Ok(JobOutput::Multi(MultiCoreResult { cores }))
        }
        other => Err(format!("unknown output kind '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_schema_agrees_with_the_probe_crate() {
        // athena-probe sits below this crate and carries the rendered id as a literal;
        // the Schema constant here is the single registry of document schemas.
        assert_eq!(EVENTS_SCHEMA.id(), athena_probe::EVENTS_SCHEMA_ID);
        assert_eq!(SIM_BENCH_SCHEMA.id(), "athena-sim-bench-v1");
    }

    #[test]
    fn phase_profiles_serialise_nonempty_phases_in_order() {
        use athena_probe::{Phase, PhaseProfile};
        let mut p = PhaseProfile::new();
        p.record(Phase::Dram, 250);
        p.record(Phase::CoreStep, 1_000);
        p.record(Phase::Dispatch, 50);
        let text = phase_profile_json(&p).to_string();
        assert_eq!(
            text,
            "{\"phases\":{\"core_step\":{\"calls\":1,\"nanos\":1000},\
             \"dram\":{\"calls\":1,\"nanos\":250},\
             \"dispatch\":{\"calls\":1,\"nanos\":50}},\"total_nanos\":1300}"
        );
    }

    #[test]
    fn phase_profiles_round_trip_through_json() {
        use athena_probe::{Phase, PhaseProfile};
        let mut p = PhaseProfile::new();
        p.record(Phase::Dram, 250);
        p.record(Phase::CoreStep, 1_000);
        let parsed =
            phase_profile_from_json(&Json::parse(&phase_profile_json(&p).to_string()).unwrap())
                .unwrap();
        assert_eq!(
            phase_profile_json(&parsed).to_string(),
            phase_profile_json(&p).to_string()
        );
        assert!(phase_profile_from_json(&Json::parse("{}").unwrap()).is_err());
        let bad =
            Json::parse("{\"phases\":{\"no_such_phase\":{\"calls\":1,\"nanos\":2}}}").unwrap();
        assert!(phase_profile_from_json(&bad)
            .unwrap_err()
            .contains("no_such_phase"));
    }

    #[test]
    fn metrics_snapshots_serialise_deterministically() {
        use athena_probe::MetricsRegistry;
        let registry = MetricsRegistry::new();
        registry.cells_simulated.add(3);
        registry.cell_wall_nanos.record(1_000);
        registry.cell_wall_nanos.record(3_000);
        registry.record_worker_cell(1, 3_000);
        registry.record_worker_cell(0, 1_000);
        let text = metrics_snapshot_json(&registry.snapshot()).to_string();
        assert!(text.contains(&format!("\"schema\":\"{}\"", METRICS_SCHEMA.id())));
        assert!(text.contains("\"cells_simulated\":3"));
        assert!(text
            .contains("\"cell_wall_nanos\":{\"count\":2,\"sum\":4000,\"min\":1000,\"max\":3000"));
        // Workers come out ascending by id regardless of recording order.
        let w0 = text.find("\"worker\":0").expect("worker 0 present");
        let w1 = text.find("\"worker\":1").expect("worker 1 present");
        assert!(w0 < w1);
    }

    #[test]
    fn figure_report_embeds_table_and_cells() {
        let mut table = ExperimentTable::new("T", "policy", vec!["overall".into()]);
        table.push_row("athena", vec![1.1]);
        let cells = vec![CellRecord {
            experiment: "fig7".into(),
            label: "w/athena/<popet, pythia>".into(),
            seed: 7,
            wall: Duration::from_millis(3),
            cached: false,
            error: None,
            dram: None,
            timeline: None,
            profile: None,
            origin: None,
        }];
        let text = figure_report("fig7", 2, Duration::from_millis(5), &table, &cells).to_string();
        assert!(text.contains("athena-figure-result-v1"));
        assert!(text.contains("\"cell_count\":1"));
        assert!(text.contains("\"failed_cells\":0"));
        assert!(text.contains("\"label\":\"w/athena/<popet, pythia>\""));
    }
}
