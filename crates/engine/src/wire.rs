//! Lossless JSON wire serialisation of engine values that cross a process boundary.
//!
//! Two families live here:
//!
//! * **Configurations** — [`config_to_json`] / [`config_from_json`] / [`load_config`]
//!   round-trip an [`AthenaConfig`] exactly (floats via Rust's shortest-round-trip
//!   formatting, the agent seed as a lossless hex string). The tune CLI writes winning
//!   configurations with these and the `figures` harness loads them back as the `tuned`
//!   policy; the loaded configuration compares equal to the explored one field for field.
//! * **Jobs** — [`job_json`] / [`job_from_json`] serialise a whole [`Job`] (workload or
//!   mix, system configuration, coordinator, budget, seed, seed policy, telemetry
//!   request), so a distributed coordinator ([`crate::dist`]) can ship cells to worker
//!   processes. Fidelity is the whole point: a reconstructed job must be *the same cell*,
//!   so [`job_from_json`] re-derives [`Job::identity_hash`] on the receiving side and
//!   rejects any payload whose transmitted identity disagrees — a lossy wire format is a
//!   protocol error, never a silently different result.
//!
//! Every struct this module serialises is destructured exhaustively, so a field added to
//! a job constituent later is a compile error here rather than a silently lossy wire.

use std::path::{Path, PathBuf};

use athena_core::{AthenaConfig, Feature, RewardWeights};
use athena_sim::{CacheConfig, CoreConfig, DramConfig, Replacement, SimConfig};
use athena_workloads::{MixCategory, Pattern, Suite, WorkloadMix, WorkloadSpec};

use crate::job::{FileWorkload, Job, SeedPolicy, TelemetrySpec, WorkloadRef};
use crate::json::Json;
use crate::kinds::{CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};
use crate::report::{u64_json, u64_value};

// ---------------------------------------------------------------------------------------
// AthenaConfig round trip (moved here from the tune crate, which re-exports it: the
// distributed protocol ships explicit Athena configurations inside jobs, so the
// serialiser has to live below both consumers).
// ---------------------------------------------------------------------------------------

/// Serialises a configuration as a JSON object.
pub fn config_to_json(cfg: &AthenaConfig) -> Json {
    Json::obj(vec![
        ("alpha", Json::num(cfg.alpha)),
        ("gamma", Json::num(cfg.gamma)),
        ("epsilon", Json::num(cfg.epsilon)),
        ("tau", Json::num(cfg.tau)),
        (
            "features",
            Json::arr(
                cfg.features
                    .iter()
                    .map(|f| Json::str(f.short_name()))
                    .collect(),
            ),
        ),
        (
            "reward_weights",
            Json::arr(
                cfg.reward_weights
                    .as_array()
                    .iter()
                    .map(|&w| Json::num(w))
                    .collect(),
            ),
        ),
        (
            "use_uncorrelated_reward",
            Json::Bool(cfg.use_uncorrelated_reward),
        ),
        ("planes", Json::int(cfg.planes)),
        ("rows_per_plane", Json::int(cfg.rows_per_plane)),
        ("q_step", Json::num(cfg.q_step)),
        ("seed", Json::hex(cfg.seed)),
    ])
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn num_field(doc: &Json, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))
}

/// Deserialises a configuration from a JSON object produced by [`config_to_json`].
///
/// Accepts either the bare configuration object or any document wrapping one under a
/// `"config"` key (e.g. the `best.json` the tune CLI writes, which carries the claimed
/// scores alongside).
pub fn config_from_json(doc: &Json) -> Result<AthenaConfig, String> {
    let doc = doc.get("config").unwrap_or(doc);
    let features = field(doc, "features")?
        .as_array()
        .ok_or("field 'features' is not an array")?
        .iter()
        .map(|f| {
            let name = f.as_str().ok_or("feature names must be strings")?;
            Feature::from_short_name(name).ok_or_else(|| format!("unknown feature '{name}'"))
        })
        .collect::<Result<Vec<Feature>, String>>()?;
    let weights = field(doc, "reward_weights")?
        .as_array()
        .ok_or("field 'reward_weights' is not an array")?;
    if weights.len() != 5 {
        return Err(format!(
            "reward_weights must hold 5 values, found {}",
            weights.len()
        ));
    }
    let mut lambda = [0.0; 5];
    for (slot, w) in lambda.iter_mut().zip(weights) {
        *slot = w.as_f64().ok_or("reward weights must be numbers")?;
    }
    Ok(AthenaConfig {
        alpha: num_field(doc, "alpha")?,
        gamma: num_field(doc, "gamma")?,
        epsilon: num_field(doc, "epsilon")?,
        tau: num_field(doc, "tau")?,
        features,
        reward_weights: RewardWeights::from_array(lambda),
        use_uncorrelated_reward: field(doc, "use_uncorrelated_reward")?
            .as_bool()
            .ok_or("field 'use_uncorrelated_reward' is not a boolean")?,
        planes: num_field(doc, "planes")? as usize,
        rows_per_plane: num_field(doc, "rows_per_plane")? as usize,
        q_step: num_field(doc, "q_step")?,
        seed: field(doc, "seed")?
            .as_hex_u64()
            .ok_or("field 'seed' is not a \"0x…\" hex string")?,
    })
}

/// Loads a configuration from a JSON file (bare or `"config"`-wrapped; see
/// [`config_from_json`]).
pub fn load_config(path: impl AsRef<Path>) -> Result<AthenaConfig, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("cannot parse '{}': {e}", path.display()))?;
    config_from_json(&doc).map_err(|e| format!("invalid config in '{}': {e}", path.display()))
}

// ---------------------------------------------------------------------------------------
// Job wire serialisation.
// ---------------------------------------------------------------------------------------

/// Reads a `u64` field written by [`u64_json`] (plain integral number or hex string).
fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    u64_value(field(doc, key)?).ok_or_else(|| format!("field '{key}' is not a u64"))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    field(doc, key)?
        .as_bool()
        .ok_or_else(|| format!("field '{key}' is not a boolean"))
}

fn usize_field(doc: &Json, key: &str) -> Result<usize, String> {
    Ok(u64_field(doc, key)? as usize)
}

fn u32_field(doc: &Json, key: &str) -> Result<u32, String> {
    u64_field(doc, key)?
        .try_into()
        .map_err(|_| format!("field '{key}' does not fit in u32"))
}

fn pattern_json(p: &Pattern) -> Json {
    match *p {
        Pattern::Stream {
            footprint,
            loads_per_iter,
        } => Json::obj(vec![
            ("kind", Json::str("stream")),
            ("footprint", u64_json(footprint)),
            ("loads_per_iter", u64_json(loads_per_iter as u64)),
        ]),
        Pattern::Strided { footprint, stride } => Json::obj(vec![
            ("kind", Json::str("strided")),
            ("footprint", u64_json(footprint)),
            ("stride", u64_json(stride)),
        ]),
        Pattern::Spatial {
            regions,
            footprint_mask,
        } => Json::obj(vec![
            ("kind", Json::str("spatial")),
            ("regions", u64_json(regions)),
            ("footprint_mask", u64_json(footprint_mask as u64)),
        ]),
        Pattern::PointerChase { nodes, burst_pct } => Json::obj(vec![
            ("kind", Json::str("pointer-chase")),
            ("nodes", u64_json(nodes)),
            ("burst_pct", u64_json(burst_pct as u64)),
        ]),
        Pattern::HashProbe {
            footprint,
            locality_pct,
        } => Json::obj(vec![
            ("kind", Json::str("hash-probe")),
            ("footprint", u64_json(footprint)),
            ("locality_pct", u64_json(locality_pct as u64)),
        ]),
        Pattern::GraphFrontier {
            vertices,
            neighbours,
        } => Json::obj(vec![
            ("kind", Json::str("graph-frontier")),
            ("vertices", u64_json(vertices)),
            ("neighbours", u64_json(neighbours as u64)),
        ]),
        Pattern::MixedPhase {
            phase_len,
            stream_footprint,
            chase_nodes,
        } => Json::obj(vec![
            ("kind", Json::str("mixed-phase")),
            ("phase_len", u64_json(phase_len)),
            ("stream_footprint", u64_json(stream_footprint)),
            ("chase_nodes", u64_json(chase_nodes)),
        ]),
        Pattern::ComputeBranchy {
            hot_bytes,
            cold_bytes,
            cold_pct,
            hard_branch_pct,
        } => Json::obj(vec![
            ("kind", Json::str("compute-branchy")),
            ("hot_bytes", u64_json(hot_bytes)),
            ("cold_bytes", u64_json(cold_bytes)),
            ("cold_pct", u64_json(cold_pct as u64)),
            ("hard_branch_pct", u64_json(hard_branch_pct as u64)),
        ]),
    }
}

fn pattern_from_json(doc: &Json) -> Result<Pattern, String> {
    Ok(match str_field(doc, "kind")? {
        "stream" => Pattern::Stream {
            footprint: u64_field(doc, "footprint")?,
            loads_per_iter: u32_field(doc, "loads_per_iter")?,
        },
        "strided" => Pattern::Strided {
            footprint: u64_field(doc, "footprint")?,
            stride: u64_field(doc, "stride")?,
        },
        "spatial" => Pattern::Spatial {
            regions: u64_field(doc, "regions")?,
            footprint_mask: u32_field(doc, "footprint_mask")?,
        },
        "pointer-chase" => Pattern::PointerChase {
            nodes: u64_field(doc, "nodes")?,
            burst_pct: u32_field(doc, "burst_pct")?,
        },
        "hash-probe" => Pattern::HashProbe {
            footprint: u64_field(doc, "footprint")?,
            locality_pct: u32_field(doc, "locality_pct")?,
        },
        "graph-frontier" => Pattern::GraphFrontier {
            vertices: u64_field(doc, "vertices")?,
            neighbours: u32_field(doc, "neighbours")?,
        },
        "mixed-phase" => Pattern::MixedPhase {
            phase_len: u64_field(doc, "phase_len")?,
            stream_footprint: u64_field(doc, "stream_footprint")?,
            chase_nodes: u64_field(doc, "chase_nodes")?,
        },
        "compute-branchy" => Pattern::ComputeBranchy {
            hot_bytes: u64_field(doc, "hot_bytes")?,
            cold_bytes: u64_field(doc, "cold_bytes")?,
            cold_pct: u32_field(doc, "cold_pct")?,
            hard_branch_pct: u32_field(doc, "hard_branch_pct")?,
        },
        other => return Err(format!("unknown pattern kind '{other}'")),
    })
}

fn suite_name(s: Suite) -> &'static str {
    match s {
        Suite::Spec => "SPEC",
        Suite::Parsec => "PARSEC",
        Suite::Ligra => "Ligra",
        Suite::Cvp => "CVP",
        Suite::GoogleLike => "Google",
    }
}

fn suite_from_name(name: &str) -> Result<Suite, String> {
    Ok(match name {
        "SPEC" => Suite::Spec,
        "PARSEC" => Suite::Parsec,
        "Ligra" => Suite::Ligra,
        "CVP" => Suite::Cvp,
        "Google" => Suite::GoogleLike,
        other => return Err(format!("unknown suite '{other}'")),
    })
}

fn workload_spec_json(spec: &WorkloadSpec) -> Json {
    let WorkloadSpec {
        name,
        suite,
        pattern,
        seed,
        designed_friendly,
    } = spec;
    Json::obj(vec![
        ("name", Json::str(name)),
        ("suite", Json::str(suite_name(*suite))),
        ("pattern", pattern_json(pattern)),
        ("seed", u64_json(*seed)),
        ("designed_friendly", Json::Bool(*designed_friendly)),
    ])
}

fn workload_spec_from_json(doc: &Json) -> Result<WorkloadSpec, String> {
    Ok(WorkloadSpec {
        name: str_field(doc, "name")?.to_string(),
        suite: suite_from_name(str_field(doc, "suite")?)?,
        pattern: pattern_from_json(field(doc, "pattern")?)?,
        seed: u64_field(doc, "seed")?,
        designed_friendly: bool_field(doc, "designed_friendly")?,
    })
}

fn mix_category_name(c: MixCategory) -> &'static str {
    match c {
        MixCategory::PrefetcherAdverse => "prefetcher-adverse",
        MixCategory::PrefetcherFriendly => "prefetcher-friendly",
        MixCategory::Random => "random",
    }
}

fn mix_category_from_name(name: &str) -> Result<MixCategory, String> {
    Ok(match name {
        "prefetcher-adverse" => MixCategory::PrefetcherAdverse,
        "prefetcher-friendly" => MixCategory::PrefetcherFriendly,
        "random" => MixCategory::Random,
        other => return Err(format!("unknown mix category '{other}'")),
    })
}

fn cache_config_json(c: &CacheConfig) -> Json {
    let CacheConfig {
        name,
        size_bytes,
        ways,
        latency,
        mshrs,
        replacement,
    } = *c;
    Json::obj(vec![
        ("name", Json::str(name)),
        ("size_bytes", u64_json(size_bytes)),
        ("ways", Json::int(ways)),
        ("latency", u64_json(latency)),
        ("mshrs", Json::int(mshrs)),
        (
            "replacement",
            Json::str(match replacement {
                Replacement::Lru => "lru",
                Replacement::Ship => "ship",
            }),
        ),
    ])
}

fn cache_config_from_json(doc: &Json) -> Result<CacheConfig, String> {
    // `CacheConfig::name` is a `&'static str`; the engine only ever ships the three
    // hierarchy levels, so map them back to their static spellings rather than leak.
    let name = match str_field(doc, "name")? {
        "L1D" => "L1D",
        "L2C" => "L2C",
        "LLC" => "LLC",
        other => return Err(format!("unknown cache name '{other}'")),
    };
    Ok(CacheConfig {
        name,
        size_bytes: u64_field(doc, "size_bytes")?,
        ways: usize_field(doc, "ways")?,
        latency: u64_field(doc, "latency")?,
        mshrs: usize_field(doc, "mshrs")?,
        replacement: match str_field(doc, "replacement")? {
            "lru" => Replacement::Lru,
            "ship" => Replacement::Ship,
            other => return Err(format!("unknown replacement policy '{other}'")),
        },
    })
}

fn sim_config_json(c: &SimConfig) -> Json {
    let SimConfig {
        core,
        l1d,
        l2c,
        llc,
        dram,
        ocp_issue_latency,
        epoch_len,
        coordinator_update_latency,
    } = c;
    let CoreConfig {
        issue_width,
        commit_width,
        rob_size,
        mispredict_penalty,
        frequency_ghz,
    } = *core;
    let DramConfig {
        bandwidth_gbps,
        banks,
        row_buffer_bytes,
        trcd_ns,
        trp_ns,
        tcas_ns,
    } = *dram;
    Json::obj(vec![
        (
            "core",
            Json::obj(vec![
                ("issue_width", u64_json(issue_width as u64)),
                ("commit_width", u64_json(commit_width as u64)),
                ("rob_size", Json::int(rob_size)),
                ("mispredict_penalty", u64_json(mispredict_penalty)),
                ("frequency_ghz", Json::num(frequency_ghz)),
            ]),
        ),
        ("l1d", cache_config_json(l1d)),
        ("l2c", cache_config_json(l2c)),
        ("llc", cache_config_json(llc)),
        (
            "dram",
            Json::obj(vec![
                ("bandwidth_gbps", Json::num(bandwidth_gbps)),
                ("banks", Json::int(banks)),
                ("row_buffer_bytes", u64_json(row_buffer_bytes)),
                ("trcd_ns", Json::num(trcd_ns)),
                ("trp_ns", Json::num(trp_ns)),
                ("tcas_ns", Json::num(tcas_ns)),
            ]),
        ),
        ("ocp_issue_latency", u64_json(*ocp_issue_latency)),
        ("epoch_len", u64_json(*epoch_len)),
        (
            "coordinator_update_latency",
            u64_json(*coordinator_update_latency),
        ),
    ])
}

fn sim_config_from_json(doc: &Json) -> Result<SimConfig, String> {
    let core = field(doc, "core")?;
    let dram = field(doc, "dram")?;
    Ok(SimConfig {
        core: CoreConfig {
            issue_width: u32_field(core, "issue_width")?,
            commit_width: u32_field(core, "commit_width")?,
            rob_size: usize_field(core, "rob_size")?,
            mispredict_penalty: u64_field(core, "mispredict_penalty")?,
            frequency_ghz: num_field(core, "frequency_ghz")?,
        },
        l1d: cache_config_from_json(field(doc, "l1d")?)?,
        l2c: cache_config_from_json(field(doc, "l2c")?)?,
        llc: cache_config_from_json(field(doc, "llc")?)?,
        dram: DramConfig {
            bandwidth_gbps: num_field(dram, "bandwidth_gbps")?,
            banks: usize_field(dram, "banks")?,
            row_buffer_bytes: u64_field(dram, "row_buffer_bytes")?,
            trcd_ns: num_field(dram, "trcd_ns")?,
            trp_ns: num_field(dram, "trp_ns")?,
            tcas_ns: num_field(dram, "tcas_ns")?,
        },
        ocp_issue_latency: u64_field(doc, "ocp_issue_latency")?,
        epoch_len: u64_field(doc, "epoch_len")?,
        coordinator_update_latency: u64_field(doc, "coordinator_update_latency")?,
    })
}

fn prefetcher_from_name(name: &str) -> Result<PrefetcherKind, String> {
    Ok(match name {
        "ipcp" => PrefetcherKind::Ipcp,
        "berti" => PrefetcherKind::Berti,
        "pythia" => PrefetcherKind::Pythia,
        "spp+ppf" => PrefetcherKind::SppPpf,
        "mlop" => PrefetcherKind::Mlop,
        "sms" => PrefetcherKind::Sms,
        "next-line" => PrefetcherKind::NextLine,
        "stride" => PrefetcherKind::Stride,
        other => return Err(format!("unknown prefetcher '{other}'")),
    })
}

fn ocp_from_name(name: &str) -> Result<OcpKind, String> {
    Ok(match name {
        "popet" => OcpKind::Popet,
        "hmp" => OcpKind::Hmp,
        "ttp" => OcpKind::Ttp,
        other => return Err(format!("unknown off-chip predictor '{other}'")),
    })
}

fn system_config_json(c: &SystemConfig) -> Json {
    let SystemConfig {
        sim,
        prefetchers,
        ocp,
    } = c;
    Json::obj(vec![
        ("sim", sim_config_json(sim)),
        (
            "prefetchers",
            Json::arr(prefetchers.iter().map(|p| Json::str(p.name())).collect()),
        ),
        (
            "ocp",
            match ocp {
                Some(o) => Json::str(o.name()),
                None => Json::Null,
            },
        ),
    ])
}

fn system_config_from_json(doc: &Json) -> Result<SystemConfig, String> {
    let prefetchers = field(doc, "prefetchers")?
        .as_array()
        .ok_or("field 'prefetchers' is not an array")?
        .iter()
        .map(|p| prefetcher_from_name(p.as_str().ok_or("prefetcher names must be strings")?))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SystemConfig {
        sim: sim_config_from_json(field(doc, "sim")?)?,
        prefetchers,
        ocp: match doc.get("ocp") {
            None | Some(Json::Null) => None,
            Some(o) => Some(ocp_from_name(
                o.as_str().ok_or("field 'ocp' is not a string")?,
            )?),
        },
    })
}

fn coordinator_json(c: &CoordinatorKind) -> Json {
    let mut pairs = vec![("kind", Json::str(c.name()))];
    match c {
        CoordinatorKind::Fixed { ocp, prefetchers } => {
            pairs.push(("ocp", Json::Bool(*ocp)));
            pairs.push(("prefetchers", Json::Bool(*prefetchers)));
        }
        CoordinatorKind::AthenaWith(cfg) => pairs.push(("config", config_to_json(cfg))),
        _ => {}
    }
    Json::obj(pairs)
}

fn coordinator_from_json(doc: &Json) -> Result<CoordinatorKind, String> {
    Ok(match str_field(doc, "kind")? {
        "baseline" => CoordinatorKind::Baseline,
        "ocp-only" => CoordinatorKind::OcpOnly,
        "prefetchers-only" => CoordinatorKind::PrefetchersOnly,
        "naive" => CoordinatorKind::Naive,
        "fixed" => CoordinatorKind::Fixed {
            ocp: bool_field(doc, "ocp")?,
            prefetchers: bool_field(doc, "prefetchers")?,
        },
        "hpac" => CoordinatorKind::Hpac,
        "mab" => CoordinatorKind::Mab,
        "tlp" => CoordinatorKind::Tlp,
        "athena" => CoordinatorKind::Athena,
        "athena*" => CoordinatorKind::AthenaWith(config_from_json(field(doc, "config")?)?),
        other => return Err(format!("unknown coordinator '{other}'")),
    })
}

fn workload_ref_json(cell: &WorkloadRef) -> Json {
    match cell {
        WorkloadRef::Single(spec) => Json::obj(vec![
            ("kind", Json::str("single")),
            ("spec", workload_spec_json(spec)),
        ]),
        WorkloadRef::Multi(mix) => {
            let WorkloadMix {
                category,
                name,
                workloads,
            } = mix;
            Json::obj(vec![
                ("kind", Json::str("multi")),
                ("category", Json::str(mix_category_name(*category))),
                ("name", Json::str(name)),
                (
                    "workloads",
                    Json::arr(workloads.iter().map(workload_spec_json).collect()),
                ),
            ])
        }
        WorkloadRef::File(file) => {
            let FileWorkload { name, path } = file;
            Json::obj(vec![
                ("kind", Json::str("file")),
                ("name", Json::str(name)),
                ("path", Json::str(path.display().to_string())),
            ])
        }
    }
}

fn workload_ref_from_json(doc: &Json) -> Result<WorkloadRef, String> {
    Ok(match str_field(doc, "kind")? {
        "single" => WorkloadRef::Single(workload_spec_from_json(field(doc, "spec")?)?),
        "multi" => WorkloadRef::Multi(WorkloadMix {
            category: mix_category_from_name(str_field(doc, "category")?)?,
            name: str_field(doc, "name")?.to_string(),
            workloads: field(doc, "workloads")?
                .as_array()
                .ok_or("field 'workloads' is not an array")?
                .iter()
                .map(workload_spec_from_json)
                .collect::<Result<_, String>>()?,
        }),
        "file" => WorkloadRef::File(FileWorkload {
            name: str_field(doc, "name")?.to_string(),
            path: PathBuf::from(str_field(doc, "path")?),
        }),
        other => return Err(format!("unknown workload kind '{other}'")),
    })
}

/// Serialises a whole job — every field, bit-exactly — for shipping to a worker process.
/// The transmitted `identity` is the sender's [`Job::identity_hash`]; [`job_from_json`]
/// re-derives it on the receiving side and rejects a mismatch.
pub fn job_json(job: &Job) -> Json {
    let Job {
        experiment,
        cell,
        config,
        coordinator,
        instructions,
        seed,
        seed_policy,
        telemetry,
    } = job;
    Json::obj(vec![
        ("experiment", Json::str(experiment)),
        ("cell", workload_ref_json(cell)),
        ("config", system_config_json(config)),
        ("coordinator", coordinator_json(coordinator)),
        ("instructions", u64_json(*instructions)),
        ("seed", Json::hex(*seed)),
        (
            "seed_policy",
            Json::str(match seed_policy {
                SeedPolicy::Config => "config",
                SeedPolicy::Derived => "derived",
            }),
        ),
        (
            "telemetry",
            match telemetry {
                Some(t) => Json::obj(vec![(
                    "window_instructions",
                    u64_json(t.window_instructions),
                )]),
                None => Json::Null,
            },
        ),
        ("identity", Json::hex(job.identity_hash())),
    ])
}

/// Reconstructs the exact [`Job`] serialised by [`job_json`].
///
/// As a lossiness tripwire, the reconstructed job's [`Job::identity_hash`] must equal the
/// transmitted `identity` — the identity covers every output-affecting facet of the cell
/// (including the full `Debug` rendering of the simulator configuration), so any float or
/// field that failed to round-trip exactly surfaces here as a hard error instead of a
/// silently different result on the worker.
pub fn job_from_json(doc: &Json) -> Result<Job, String> {
    let job = Job {
        experiment: str_field(doc, "experiment")?.to_string(),
        cell: workload_ref_from_json(field(doc, "cell")?)?,
        config: system_config_from_json(field(doc, "config")?)?,
        coordinator: coordinator_from_json(field(doc, "coordinator")?)?,
        instructions: u64_field(doc, "instructions")?,
        seed: field(doc, "seed")?
            .as_hex_u64()
            .ok_or("field 'seed' is not a \"0x…\" hex string")?,
        seed_policy: match str_field(doc, "seed_policy")? {
            "config" => SeedPolicy::Config,
            "derived" => SeedPolicy::Derived,
            other => return Err(format!("unknown seed policy '{other}'")),
        },
        telemetry: match doc.get("telemetry") {
            None | Some(Json::Null) => None,
            Some(t) => Some(TelemetrySpec {
                window_instructions: u64_field(t, "window_instructions")?,
            }),
        },
    };
    let sent = field(doc, "identity")?
        .as_hex_u64()
        .ok_or("field 'identity' is not a \"0x…\" hex string")?;
    let derived = job.identity_hash();
    if sent != derived {
        return Err(format!(
            "job identity mismatch for cell '{}': wire says {sent:#018x}, reconstruction \
             derives {derived:#018x} — the wire format lost information",
            job.label()
        ));
    }
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::default_athena_config;
    use athena_workloads::{all_workloads, mixes};

    fn exotic_config() -> AthenaConfig {
        AthenaConfig {
            alpha: 0.30000000000000004, // deliberately not shortest-decimal-friendly
            gamma: 1.0 / 3.0,
            epsilon: 0.05,
            tau: 0.12,
            features: vec![Feature::CachePollution, Feature::OcpBandwidthShare],
            reward_weights: RewardWeights::from_array([1.6, 0.1, 0.2, 0.6, 1.0]),
            use_uncorrelated_reward: false,
            planes: 4,
            rows_per_plane: 32,
            q_step: 0.025,
            seed: u64::MAX - 17,
        }
    }

    #[test]
    fn configs_round_trip_exactly() {
        for cfg in [
            AthenaConfig::default(),
            AthenaConfig::stateless(),
            default_athena_config(),
            exotic_config(),
        ] {
            let doc = config_to_json(&cfg);
            let parsed = config_from_json(&Json::parse(&doc.to_pretty()).unwrap()).unwrap();
            assert_eq!(parsed, cfg);
        }
    }

    #[test]
    fn wrapped_documents_are_accepted() {
        let cfg = exotic_config();
        let wrapped = Json::obj(vec![
            ("schema", Json::str("athena-tune-config-v1")),
            ("speedup", Json::num(1.23)),
            ("config", config_to_json(&cfg)),
        ]);
        assert_eq!(config_from_json(&wrapped).unwrap(), cfg);
    }

    #[test]
    fn malformed_documents_are_rejected_with_field_names() {
        let mut doc = config_to_json(&AthenaConfig::default());
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "tau");
        let err = config_from_json(&doc).unwrap_err();
        assert!(err.contains("tau"), "{err}");

        let bad_feature = Json::parse(
            &config_to_json(&AthenaConfig::default())
                .to_string()
                .replace("\"PA\"", "\"XX\""),
        )
        .unwrap();
        assert!(config_from_json(&bad_feature)
            .unwrap_err()
            .contains("unknown feature"));
    }

    #[test]
    fn config_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("athena-wire-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cfg.json");
        let cfg = exotic_config();
        std::fs::write(&path, config_to_json(&cfg).to_pretty()).unwrap();
        assert_eq!(load_config(&path).unwrap(), cfg);
        std::fs::remove_file(&path).unwrap();
        assert!(load_config(&path).unwrap_err().contains("cannot read"));
    }

    fn cd_variants() -> Vec<SystemConfig> {
        vec![
            SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet),
            SystemConfig::cd2(PrefetcherKind::Ipcp, OcpKind::Hmp),
            SystemConfig::cd3(PrefetcherKind::Mlop, PrefetcherKind::Sms, OcpKind::Ttp),
            SystemConfig::cd4(
                PrefetcherKind::Berti,
                PrefetcherKind::SppPpf,
                OcpKind::Popet,
            ),
            SystemConfig::prefetchers_only(PrefetcherKind::NextLine, PrefetcherKind::Stride),
            SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet)
                .with_bandwidth(1.6)
                .with_ocp_issue_latency(30),
        ]
    }

    #[test]
    fn jobs_round_trip_across_every_cell_shape() {
        let specs = all_workloads();
        let mut jobs = vec![
            Job::single(
                "fig7",
                specs[0].clone(),
                cd_variants()[0].clone(),
                CoordinatorKind::Athena,
                40_000,
            ),
            Job::multicore(
                "fig13",
                mixes(4, 1, 7)[0].clone(),
                cd_variants()[1].clone(),
                CoordinatorKind::Hpac,
                10_000,
            ),
            Job::from_file(
                "fig7",
                &specs[1].name,
                "/tmp/some/dir/trace.bin",
                cd_variants()[2].clone(),
                CoordinatorKind::Fixed {
                    ocp: true,
                    prefetchers: false,
                },
                40_000,
            ),
            Job::single(
                "dse",
                specs[2].clone(),
                cd_variants()[3].clone(),
                CoordinatorKind::AthenaWith(exotic_config()),
                15_000,
            )
            .with_derived_seed(),
            Job::single(
                "timeline",
                specs[3].clone(),
                cd_variants()[4].clone(),
                CoordinatorKind::Mab,
                40_000,
            )
            .with_telemetry(4096),
        ];
        jobs.push(jobs[0].clone().with_athena_config(exotic_config()));
        for job in jobs {
            let text = job_json(&job).to_string();
            let back = job_from_json(&Json::parse(&text).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", job.label()));
            assert_eq!(back, job, "cell {} did not round-trip", job.label());
            assert_eq!(back.identity_hash(), job.identity_hash());
        }
    }

    #[test]
    fn every_workload_in_the_suite_round_trips() {
        // Covers all eight pattern classes and all five suites via the real catalogues.
        for spec in all_workloads()
            .into_iter()
            .chain(athena_workloads::tuning_workloads())
            .chain(athena_workloads::google_like_workloads())
        {
            let doc = workload_spec_json(&spec);
            let back = workload_spec_from_json(&Json::parse(&doc.to_string()).unwrap()).unwrap();
            assert_eq!(back, spec, "workload {} did not round-trip", spec.name);
        }
    }

    #[test]
    fn a_tampered_job_fails_the_identity_tripwire() {
        let job = Job::single(
            "fig7",
            all_workloads()[0].clone(),
            cd_variants()[0].clone(),
            CoordinatorKind::Athena,
            40_000,
        );
        let tampered = job_json(&job).to_string().replace("40000", "39999");
        let err = job_from_json(&Json::parse(&tampered).unwrap()).unwrap_err();
        assert!(err.contains("identity mismatch"), "{err}");
    }
}
