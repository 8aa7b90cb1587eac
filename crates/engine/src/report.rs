//! Machine-readable report writers: per-figure JSON results, windowed-timeline documents,
//! the `BENCH_sim.json` phase-profile pieces, and the lossless result serialisation the
//! result store records are written in.
//!
//! The lossless half is a set of field tables for the one codec ([`crate::codec`]): one
//! table per result type generates both its encoder and its decoder. Only the phase
//! profile, a map keyed by phase name, is written by hand.
//!
//! Every JSON document this workspace emits is identified by a [`Schema`] — a shared
//! (name, version) constant rendered as the document's leading `"schema"` field. All
//! writers (here, in the tune crate and in the result store) go through
//! [`Schema::document`], so schema ids live in exactly one place and a version bump is a
//! one-line change next to the serialiser it describes.

use std::time::Duration;

use athena_probe::{Phase, PhaseProfile};
use athena_sim::{
    CoordinatorTelemetry, DramStats, EpochStats, MultiCoreResult, SimResult, SimStats,
};
use athena_telemetry::{Timeline, WindowMetrics, WindowSample};

use crate::codec::{codec_array, codec_enum, codec_object, u64_json, Codec};
use crate::job::{JobOutput, RunResult};
use crate::json::{Json, JsonReader, JsonWriter};
use crate::record::CellRecord;
use crate::table::ExperimentTable;

/// A named, versioned JSON document schema.
///
/// The id rendered into documents is `athena-<name>-v<version>`. Constants for every
/// document the workspace writes live alongside this type, except the event-log line id
/// ([`crate::EVENTS_SCHEMA_ID`]), which lives with the event writer; consumers match
/// documents with [`Schema::matches`] instead of comparing hand-typed strings.
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

    /// Opens a document on `w` with this schema's id as its leading `"schema"` field,
    /// the streaming counterpart of [`Schema::document`]; the caller writes the other
    /// fields and closes the object.
    pub fn begin_document(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("schema");
        w.string(&self.id());
    }

    /// Whether `doc` declares exactly this schema (name and version).
    pub fn matches(&self, doc: &Json) -> bool {
        doc.get("schema").and_then(Json::as_str) == Some(self.id().as_str())
    }

    /// Reads a document's `"schema"` value and says whether it is exactly this schema's
    /// id, the streaming counterpart of [`Schema::matches`].
    pub fn read_matches(&self, r: &mut JsonReader<'_>) -> Result<bool, String> {
        Ok(String::read(r)? == self.id())
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

/// A hot-path phase profile: one object per non-empty phase (in hierarchy order) with call
/// count and self-time nanoseconds, plus the phase-disjoint total. Used by the per-cell
/// report records, the `BENCH_sim.json` aggregate and the distributed `RESULT` frame.
/// Written by hand because it is a map keyed by phase name; reading ignores the derived
/// total, and writing a read profile again gives the same bytes.
impl Codec for PhaseProfile {
    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("phases");
        w.begin_object();
        for s in self.stats() {
            w.key(s.phase.name());
            PhaseCounts {
                calls: s.calls,
                nanos: s.nanos,
            }
            .write(w);
        }
        w.end_object();
        w.key("total_nanos");
        w.u64(self.total_nanos());
        w.end_object();
    }

    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        let mut cursor = r.object()?;
        let mut profile = None;
        while let Some(key) = r.next_key(&mut cursor)? {
            if key == "phases" && profile.is_none() {
                profile = Some(read_phases(r)?);
            } else {
                r.skip_value()?;
            }
        }
        profile.ok_or_else(|| NO_PHASES.to_string())
    }
}

const NO_PHASES: &str = "profile has no 'phases' object";

/// One phase's counts in a [`PhaseProfile`] document.
struct PhaseCounts {
    calls: u64,
    nanos: u64,
}

codec_object!(PhaseCounts { calls, nanos });

fn read_phases(r: &mut JsonReader<'_>) -> Result<PhaseProfile, String> {
    if r.peek() != Some(b'{') {
        return Err(NO_PHASES.to_string());
    }
    let mut cursor = r.begin_object()?;
    let mut profile = PhaseProfile::new();
    while let Some(name) = r.next_key(&mut cursor)? {
        let phase = Phase::from_name(&name).ok_or_else(|| format!("unknown phase '{name}'"))?;
        let PhaseCounts { calls, nanos } =
            PhaseCounts::read(r).map_err(|e| format!("phase '{name}': {e}"))?;
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
// `JobOutput` a fresh simulation would have produced, so every type below goes through
// the one codec (`crate::codec`): one field table per type generates both directions.
// ---------------------------------------------------------------------------------------

codec_array!(EpochStats {
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
});

codec_object!(SimStats {
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
});

codec_object!(DramStats {
    total_requests,
    demand_requests,
    prefetch_requests,
    ocp_requests,
    writeback_requests,
    row_hits,
    row_misses,
    bus_busy_cycles,
    demand_latency_sum,
});

codec_object!(CoordinatorTelemetry {
    epsilon,
    updates,
    q_mean,
    q_min,
    q_max,
    action_histogram,
});

codec_object!(WindowSample {
    index,
    start_instruction,
    epochs,
    stats,
    agent,
});

// The lossless timeline: raw window counters and cumulative agent snapshots, unlike the
// report-oriented [`timeline_json`], which derives metrics and per-window action deltas.
codec_object!(Timeline {
    window_instructions,
    windows,
});

codec_object!(RunResult {
    workload,
    instructions,
    cycles,
    ipc,
    stats,
    dram,
    epochs,
    timeline,
});

codec_object!(SimResult {
    instructions,
    cycles,
    stats,
    dram,
    epochs,
    agent_epochs,
});

codec_object!(MultiCoreResult { cores });

codec_enum!(JobOutput {
    Single(result) = "single",
    Multi(..cores) = "multi",
});

/// Serialises a job's full output — single- or multi-core — bit-exactly;
/// [`job_output_from_json`] inverts it. This is the payload format of result-store
/// records ([`RESULT_RECORD_SCHEMA`]).
pub fn job_output_json(output: &JobOutput) -> Json {
    output.encode()
}

/// Reconstructs the exact [`JobOutput`] serialised by [`job_output_json`].
pub fn job_output_from_json(j: &Json) -> Result<JobOutput, String> {
    JobOutput::decode(j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_ids_render_name_and_version() {
        assert_eq!(SIM_BENCH_SCHEMA.id(), "athena-sim-bench-v1");
    }

    #[test]
    fn phase_profiles_serialise_nonempty_phases_in_order() {
        use athena_probe::{Phase, PhaseProfile};
        let mut p = PhaseProfile::new();
        p.record(Phase::Dram, 250);
        p.record(Phase::CoreStep, 1_000);
        p.record(Phase::Dispatch, 50);
        let text = p.encode().to_string();
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
        let parsed = PhaseProfile::decode(&Json::parse(&p.encode().to_string()).unwrap()).unwrap();
        assert_eq!(parsed.encode().to_string(), p.encode().to_string());
        assert!(PhaseProfile::decode(&Json::parse("{}").unwrap()).is_err());
        let bad =
            Json::parse("{\"phases\":{\"no_such_phase\":{\"calls\":1,\"nanos\":2}}}").unwrap();
        assert!(PhaseProfile::decode(&bad)
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
            reused: false,
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
