//! Lossless JSON wire serialisation of engine values that cross a process boundary.
//!
//! Two families live here:
//!
//! * **Configurations** — [`config_to_json`] / [`config_from_json`] / [`load_config`]
//!   round-trip an [`AthenaConfig`] exactly (floats via Rust's shortest-round-trip
//!   formatting, the agent seed as a lossless hex string). The tune CLI writes winning
//!   configurations with these and the `figures` harness loads them back as the `tuned`
//!   policy; the loaded configuration compares equal to the explored one field for field.
//! * **Jobs** — [`write_job`] / [`read_job`] stream a whole [`Job`] (workload or mix,
//!   system configuration, coordinator, budget, seed, telemetry request), so a
//!   distributed coordinator ([`crate::dist`]) can ship cells to worker processes;
//!   [`job_json`] / [`job_from_json`] are their adapters for callers that hold a tree.
//!   Fidelity is the whole point: a reconstructed job must be *the same cell*, so
//!   [`read_job`] re-derives [`Job::identity_hash`] on the receiving side and rejects any
//!   payload whose transmitted identity disagrees — a lossy wire format is a protocol
//!   error, never a silently different result.
//!
//! Both families go through the one codec ([`crate::codec`]): each type below has one
//! field table that generates its encoder and decoder and destructures it exhaustively,
//! so a field added to a job constituent later is a compile error here rather than a
//! silently lossy wire. Only the irregular parts are written by hand: the cache level's
//! `&'static str` name, the hex seeds, the `"config"` wrapper [`config_from_json`]
//! accepts, [`CoordinatorKind`]'s payload-carrying variants and the identity tripwire.

use std::path::Path;

use athena_core::{AthenaConfig, Feature, RewardWeights};
use athena_sim::{CacheConfig, CoreConfig, DramConfig, Replacement, SimConfig};
use athena_workloads::{MixCategory, Pattern, Suite, WorkloadMix, WorkloadSpec};

use crate::codec::{
    codec_enum, codec_names, codec_object, fill, hex, no_extra, read_fields, read_kind, Codec,
    Fields,
};
use crate::job::{FileWorkload, Job, TelemetrySpec, WorkloadRef};
use crate::json::{Json, JsonReader, JsonWriter};
use crate::kinds::{CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};

// ---------------------------------------------------------------------------------------
// AthenaConfig round trip (the tune crate re-exports it: the distributed protocol ships
// explicit Athena configurations inside jobs, so the codec lives below both consumers).
// ---------------------------------------------------------------------------------------

codec_names!(
    Feature,
    "feature",
    Feature::all_candidates().iter().copied(),
    Feature::short_name
);

impl Codec for RewardWeights {
    fn write(&self, w: &mut JsonWriter) {
        w.begin_array();
        for v in self.as_array() {
            w.f64(v);
        }
        w.end_array();
    }
    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        let weights = Vec::<f64>::read(r)?;
        let found = weights.len();
        let weights = weights
            .try_into()
            .map_err(|_| format!("must hold 5 values, found {found}"))?;
        Ok(RewardWeights::from_array(weights))
    }
}

codec_object!(AthenaConfig {
    alpha,
    gamma,
    epsilon,
    tau,
    features,
    reward_weights,
    use_uncorrelated_reward,
    planes,
    rows_per_plane,
    q_step,
    seed with hex,
});

/// Serialises a configuration as a JSON object.
pub fn config_to_json(cfg: &AthenaConfig) -> Json {
    cfg.encode()
}

/// Deserialises a configuration from a JSON object produced by [`config_to_json`].
///
/// Accepts either the bare configuration object or any document wrapping one under a
/// `"config"` key (e.g. the `best.json` the tune CLI writes, which carries the claimed
/// scores alongside).
pub fn config_from_json(doc: &Json) -> Result<AthenaConfig, String> {
    AthenaConfig::decode(doc.get("config").unwrap_or(doc))
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

codec_enum!(Pattern {
    Stream { footprint, loads_per_iter } = "stream",
    Strided { footprint, stride } = "strided",
    Spatial { regions, footprint_mask } = "spatial",
    PointerChase { nodes, burst_pct } = "pointer-chase",
    HashProbe { footprint, locality_pct } = "hash-probe",
    GraphFrontier { vertices, neighbours } = "graph-frontier",
    MixedPhase { phase_len, stream_footprint, chase_nodes } = "mixed-phase",
    ComputeBranchy { hot_bytes, cold_bytes, cold_pct, hard_branch_pct } = "compute-branchy",
});

codec_names!(
    Suite,
    "suite",
    [
        Suite::Spec,
        Suite::Parsec,
        Suite::Ligra,
        Suite::Cvp,
        Suite::GoogleLike
    ],
    ToString::to_string
);

codec_object!(WorkloadSpec {
    name,
    suite,
    pattern,
    seed,
    designed_friendly,
});

codec_names!(
    MixCategory,
    "mix category",
    [
        MixCategory::PrefetcherAdverse,
        MixCategory::PrefetcherFriendly,
        MixCategory::Random
    ],
    ToString::to_string
);

codec_object!(WorkloadMix {
    category,
    name,
    workloads,
});

codec_object!(FileWorkload { name, path });

codec_enum!(WorkloadRef {
    Single(spec) = "single",
    Multi(..mix) = "multi",
    File(..file) = "file",
});

codec_names!(
    Replacement,
    "replacement policy",
    [Replacement::Lru, Replacement::Ship],
    |r: &Replacement| match r {
        Replacement::Lru => "lru",
        Replacement::Ship => "ship",
    }
);

/// `CacheConfig::name` is a `&'static str`; the engine only ever ships the three hierarchy
/// levels, so decoding maps them back to their static spellings rather than leak.
mod cache_name {
    use crate::json::{JsonReader, JsonWriter};

    pub fn write(name: &&'static str, w: &mut JsonWriter) {
        w.string(name);
    }

    pub fn read(r: &mut JsonReader<'_>) -> Result<&'static str, String> {
        if r.peek() != Some(b'"') {
            return Err("not a string".to_string());
        }
        let name = r.string()?;
        ["L1D", "L2C", "LLC"]
            .into_iter()
            .find(|level| *level == name)
            .ok_or_else(|| format!("unknown cache name '{name}'"))
    }
}

codec_object!(CacheConfig {
    name with cache_name,
    size_bytes,
    ways,
    latency,
    mshrs,
    replacement,
});

codec_object!(CoreConfig {
    issue_width,
    commit_width,
    rob_size,
    mispredict_penalty,
    frequency_ghz,
});

codec_object!(DramConfig {
    bandwidth_gbps,
    banks,
    row_buffer_bytes,
    trcd_ns,
    trp_ns,
    tcas_ns,
});

codec_object!(SimConfig {
    core,
    l1d,
    l2c,
    llc,
    dram,
    ocp_issue_latency,
    epoch_len,
    coordinator_update_latency,
});

codec_names!(
    PrefetcherKind,
    "prefetcher",
    PrefetcherKind::ALL,
    PrefetcherKind::name
);
codec_names!(OcpKind, "off-chip predictor", OcpKind::ALL, OcpKind::name);

codec_object!(SystemConfig {
    sim,
    prefetchers,
    ocp,
});

impl Codec for CoordinatorKind {
    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("kind");
        w.string(self.name());
        match self {
            CoordinatorKind::Fixed { ocp, prefetchers } => {
                w.key("ocp");
                ocp.write(w);
                w.key("prefetchers");
                prefetchers.write(w);
            }
            CoordinatorKind::AthenaWith(cfg) => {
                w.key("config");
                cfg.write(w);
            }
            _ => {}
        }
        w.end_object();
    }

    fn read(r: &mut JsonReader<'_>) -> Result<Self, String> {
        use CoordinatorKind::*;
        let mut cursor = r.object()?;
        let kind = read_kind(r, &mut cursor)?;
        // One representative per variant, so `name()` stays the only spelling.
        let fixed = Fixed {
            ocp: false,
            prefetchers: false,
        };
        let configured = AthenaWith(AthenaConfig::default());
        let variants = [
            Baseline,
            OcpOnly,
            PrefetchersOnly,
            Naive,
            fixed,
            Hpac,
            Mab,
            Tlp,
            Athena,
            configured,
        ];
        match variants.into_iter().find(|v| v.name() == kind) {
            Some(Fixed { .. }) => {
                let (ocp, prefetchers) =
                    read_fields!(r, &mut cursor, no_extra, { ocp, prefetchers });
                Ok(Fixed { ocp, prefetchers })
            }
            Some(AthenaWith(_)) => {
                let (config,) = read_fields!(r, &mut cursor, no_extra, { config });
                Ok(AthenaWith(config))
            }
            Some(unit) => {
                while r.next_key(&mut cursor)?.is_some() {
                    r.skip_value()?;
                }
                Ok(unit)
            }
            None => Err(format!("unknown coordinator '{kind}'")),
        }
    }
}

codec_object!(TelemetrySpec {
    window_instructions
});

codec_object!(Job {
    experiment,
    cell,
    config,
    coordinator,
    instructions,
    seed with hex,
    telemetry,
});

/// Writes a whole job — every field, bit-exactly — for shipping to a worker process. The
/// trailing `identity` is the sender's [`Job::identity_hash`]; [`read_job`] re-derives it
/// on the receiving side and rejects a mismatch.
pub fn write_job(w: &mut JsonWriter, job: &Job) {
    w.begin_object();
    job.write_fields(w);
    w.key("identity");
    w.hex(job.identity_hash());
    w.end_object();
}

/// Reads the exact [`Job`] written by [`write_job`].
///
/// As a lossiness tripwire, the reconstructed job's [`Job::identity_hash`] must equal the
/// transmitted `identity` — the identity covers every output-affecting facet of the cell
/// (including the full `Debug` rendering of the simulator configuration), so any float or
/// field that failed to round-trip exactly surfaces here as a hard error instead of a
/// silently different result on the worker. The job's own fields are checked before the
/// `identity` field.
pub fn read_job(r: &mut JsonReader<'_>) -> Result<Job, String> {
    let mut cursor = r.object()?;
    let mut identity = None;
    let job = Job::read_fields(r, &mut cursor, &mut |key, r| {
        if key != "identity" {
            return Ok(false);
        }
        fill(&mut identity, r, hex::read)?;
        Ok(true)
    })?;
    let sent = identity
        .ok_or_else(|| "missing field 'identity'".to_string())?
        .map_err(|e| format!("field 'identity': {e}"))?;
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

/// A whole job as a tree: the document [`write_job`] writes.
pub fn job_json(job: &Job) -> Json {
    let mut w = JsonWriter::new();
    write_job(&mut w, job);
    Json::parse(w.as_str()).expect("the writer emits JSON the reader accepts")
}

/// Reconstructs the exact [`Job`] from a tree written by [`job_json`], identity tripwire
/// included ([`read_job`]).
pub fn job_from_json(doc: &Json) -> Result<Job, String> {
    read_job(&mut JsonReader::new(&doc.to_string()))
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
    fn negative_zero_survives_the_wire_bit_exactly() {
        let cfg = AthenaConfig {
            tau: -0.0,
            ..exotic_config()
        };
        let parsed =
            config_from_json(&Json::parse(&config_to_json(&cfg).to_string()).unwrap()).unwrap();
        assert_eq!(parsed.tau.to_bits(), (-0.0f64).to_bits());
        let job = Job::single(
            "dse",
            all_workloads()[0].clone(),
            cd_variants()[0].clone(),
            CoordinatorKind::AthenaWith(cfg),
            15_000,
        );
        let back = job_from_json(&Json::parse(&job_json(&job).to_string()).unwrap())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back.identity_hash(), job.identity_hash());
    }

    #[test]
    fn non_integral_counts_are_rejected_with_field_names() {
        for (key, bad) in [
            ("planes", "4.5"),
            ("rows_per_plane", "-1"),
            ("planes", "1e30"),
        ] {
            let text = config_to_json(&exotic_config())
                .to_string()
                .replace(&format!("\"{key}\":"), &format!("\"{key}\":{bad},\"was\":"));
            let err = config_from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(err.contains(key), "{key}={bad}: {err}");
        }
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
            ),
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
            let doc = spec.encode();
            let back = WorkloadSpec::decode(&Json::parse(&doc.to_string()).unwrap()).unwrap();
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
