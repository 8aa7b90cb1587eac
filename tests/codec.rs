//! The codec's contract.
//!
//! * Bytes: jobs, configurations and store records encode to exactly the committed text in
//!   `tests/fixtures/codec_golden.jsonl`, and each line decodes and re-encodes to itself.
//!   The fixture is never regenerated: a change that moves any byte of it changes the
//!   wire or store format.
//! * Round trips: `decode(encode(x)) == x`, floats bit for bit, over arbitrary stats,
//!   results, configurations and jobs, and re-encoding gives the same bytes.

use std::fmt::Debug;
use std::path::PathBuf;

use athena_repro::engine::codec::Codec;
use athena_repro::engine::json::Json;
use athena_repro::engine::wire::{config_from_json, config_to_json, job_from_json, job_json};
use athena_repro::engine::{FileWorkload, Job, StoreHandle, TelemetrySpec, WorkloadRef};
use athena_repro::prelude::*;
use athena_repro::sim::{
    CacheConfig, CoreConfig, DramConfig, DramStats, MultiCoreResult, Replacement, SimResult,
    SimStats,
};
use athena_repro::workloads::{mixes, MixCategory, Pattern, WorkloadMix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const GOLDEN: &str = include_str!("fixtures/codec_golden.jsonl");

fn exotic_config() -> AthenaConfig {
    AthenaConfig {
        alpha: 0.30000000000000004,
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

fn cd_variants() -> Vec<SystemConfig> {
    vec![
        SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet),
        SystemConfig::cd2(PrefetcherKind::Ipcp, OcpKind::Hmp),
        SystemConfig::cd3(PrefetcherKind::Mlop, PrefetcherKind::Sms, OcpKind::Ttp),
        SystemConfig::prefetchers_only(PrefetcherKind::NextLine, PrefetcherKind::Stride),
    ]
}

/// One job per cell shape: single, multi-core, trace file, telemetry, and an explicit
/// Athena configuration.
fn wire_jobs() -> Vec<Job> {
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
            "timeline",
            specs[3].clone(),
            cd_variants()[3].clone(),
            CoordinatorKind::Mab,
            40_000,
        )
        .with_telemetry(4096),
    ];
    jobs.push(jobs[0].clone().with_athena_config(exotic_config()));
    jobs
}

/// Small simulated cells whose store records the fixture pins: single-core, single-core
/// with telemetry, and a 2-core mix.
fn record_jobs() -> Vec<Job> {
    let specs = all_workloads();
    let cd1 = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    vec![
        Job::single(
            "golden",
            specs[0].clone(),
            cd1.clone(),
            CoordinatorKind::Athena,
            4_000,
        ),
        Job::single(
            "golden",
            specs[5].clone(),
            cd1.clone(),
            CoordinatorKind::Athena,
            4_000,
        )
        .with_telemetry(1_000),
        Job::multicore(
            "golden",
            mixes(2, 1, 7)[0].clone(),
            cd1,
            CoordinatorKind::Naive,
            3_000,
        ),
    ]
}

fn golden_lines() -> Vec<&'static str> {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), 9, "the golden fixture holds nine lines");
    lines
}

#[test]
fn jobs_and_configs_encode_to_the_golden_bytes_and_back() {
    let lines = golden_lines();
    for (job, line) in wire_jobs().iter().zip(&lines[..5]) {
        assert_eq!(job_json(job).to_string(), *line, "{}", job.label());
        let back = job_from_json(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(job_json(&back).to_string(), *line, "{}", job.label());
    }
    let cfg = exotic_config();
    assert_eq!(config_to_json(&cfg).to_string(), lines[5]);
    let back = config_from_json(&Json::parse(lines[5]).unwrap()).unwrap();
    assert_eq!(config_to_json(&back).to_string(), lines[5]);
}

#[test]
fn store_records_encode_to_the_golden_bytes_and_back() {
    let lines = golden_lines();
    for (job, line) in record_jobs().iter().zip(&lines[6..]) {
        let output = job.run();
        assert_eq!(
            StoreHandle::record_doc(job, &output).to_string(),
            *line,
            "{}",
            job.label()
        );
        let decoded = StoreHandle::decode(line.as_bytes()).unwrap();
        assert_eq!(decoded, output, "{}", job.label());
        assert_eq!(
            StoreHandle::record_doc(job, &decoded).to_string(),
            *line,
            "{}",
            job.label()
        );
    }
}

// ---------------------------------------------------------------------------------------
// Round trips over arbitrary values, each built from one seeded generator.
// ---------------------------------------------------------------------------------------

/// A `u64` from either side of 2^53, where the codec switches from numbers to hex strings.
fn any_u64(rng: &mut StdRng) -> u64 {
    const EXACT: u64 = 1 << 53;
    match rng.gen_range(0u32..6) {
        0 => rng.gen_range(0..1_000),
        1 => rng.gen_range(0..EXACT),
        2 => EXACT - 1 + rng.gen_range(0..3),
        3 => u64::MAX - rng.gen_range(0..3),
        _ => rng.next_u64(),
    }
}

/// A finite `f64`: zeros of both signs, subnormals, integers either side of 2^53, or
/// arbitrary bits.
fn any_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..6) {
        0 => -0.0,
        1 => 0.0,
        2 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
        3 => (any_u64(rng) as f64) * if rng.gen_bool(0.5) { -1.0 } else { 1.0 },
        _ => loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        },
    }
}

fn any_string(rng: &mut StdRng) -> String {
    const PIECES: [&str; 6] = ["fig7", "a\"b", "back\\slash", "λ 🦀", "tab\tnl\n", ""];
    (0..rng.gen_range(0..3))
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

fn any_vec<T>(rng: &mut StdRng, max: usize, mut item: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    (0..rng.gen_range(0..max + 1)).map(|_| item(rng)).collect()
}

fn any_option<T>(rng: &mut StdRng, item: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| item(rng))
}

fn pick<T: Copy>(rng: &mut StdRng, all: &[T]) -> T {
    all[rng.gen_range(0..all.len())]
}

/// Fills every named field of a struct literal with `any_u64`; the literal is exhaustive,
/// so a field added to the type fails to compile here too.
macro_rules! u64_struct {
    ($rng:ident, $ty:ident { $($f:ident),+ $(,)? }) => {
        $ty { $($f: any_u64($rng)),+ }
    };
}

fn any_epoch_stats(rng: &mut StdRng) -> EpochStats {
    u64_struct!(
        rng,
        EpochStats {
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
        }
    )
}

fn any_sim_stats(rng: &mut StdRng) -> SimStats {
    u64_struct!(
        rng,
        SimStats {
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
        }
    )
}

fn any_dram_stats(rng: &mut StdRng) -> DramStats {
    u64_struct!(
        rng,
        DramStats {
            total_requests,
            demand_requests,
            prefetch_requests,
            ocp_requests,
            writeback_requests,
            row_hits,
            row_misses,
            bus_busy_cycles,
            demand_latency_sum,
        }
    )
}

fn any_telemetry(rng: &mut StdRng) -> CoordinatorTelemetry {
    CoordinatorTelemetry {
        epsilon: any_f64(rng),
        updates: any_u64(rng),
        q_mean: any_f64(rng),
        q_min: any_f64(rng),
        q_max: any_f64(rng),
        action_histogram: any_vec(rng, 5, any_u64),
    }
}

fn any_timeline(rng: &mut StdRng) -> Timeline {
    Timeline {
        window_instructions: any_u64(rng),
        windows: any_vec(rng, 3, |rng| WindowSample {
            index: any_u64(rng),
            start_instruction: any_u64(rng),
            epochs: any_u64(rng),
            stats: any_epoch_stats(rng),
            agent: any_option(rng, any_telemetry),
        }),
    }
}

fn any_run_result(rng: &mut StdRng, timeline: bool) -> RunResult {
    RunResult {
        workload: any_string(rng),
        instructions: any_u64(rng),
        cycles: any_u64(rng),
        ipc: any_f64(rng),
        stats: any_sim_stats(rng),
        dram: any_dram_stats(rng),
        epochs: any_vec(rng, 3, any_epoch_stats),
        timeline: timeline.then(|| any_timeline(rng)),
    }
}

fn any_sim_result(rng: &mut StdRng) -> SimResult {
    SimResult {
        instructions: any_u64(rng),
        cycles: any_u64(rng),
        stats: any_sim_stats(rng),
        dram: any_dram_stats(rng),
        epochs: any_vec(rng, 3, any_epoch_stats),
        agent_epochs: any_vec(rng, 3, |rng| any_option(rng, any_telemetry)),
    }
}

fn any_athena_config(rng: &mut StdRng) -> AthenaConfig {
    AthenaConfig {
        alpha: any_f64(rng),
        gamma: any_f64(rng),
        epsilon: any_f64(rng),
        tau: any_f64(rng),
        features: any_vec(rng, 4, |rng| pick(rng, Feature::all_candidates())),
        reward_weights: RewardWeights::from_array(std::array::from_fn(|_| any_f64(rng))),
        use_uncorrelated_reward: rng.gen_bool(0.5),
        planes: any_u64(rng) as usize,
        rows_per_plane: any_u64(rng) as usize,
        q_step: any_f64(rng),
        seed: any_u64(rng),
    }
}

fn any_pattern(rng: &mut StdRng) -> Pattern {
    match rng.gen_range(0u32..8) {
        0 => Pattern::Stream {
            footprint: any_u64(rng),
            loads_per_iter: rng.next_u32(),
        },
        1 => Pattern::Strided {
            footprint: any_u64(rng),
            stride: any_u64(rng),
        },
        2 => Pattern::Spatial {
            regions: any_u64(rng),
            footprint_mask: rng.next_u32(),
        },
        3 => Pattern::PointerChase {
            nodes: any_u64(rng),
            burst_pct: rng.next_u32(),
        },
        4 => Pattern::HashProbe {
            footprint: any_u64(rng),
            locality_pct: rng.next_u32(),
        },
        5 => Pattern::GraphFrontier {
            vertices: any_u64(rng),
            neighbours: rng.next_u32(),
        },
        6 => Pattern::MixedPhase {
            phase_len: any_u64(rng),
            stream_footprint: any_u64(rng),
            chase_nodes: any_u64(rng),
        },
        _ => Pattern::ComputeBranchy {
            hot_bytes: any_u64(rng),
            cold_bytes: any_u64(rng),
            cold_pct: rng.next_u32(),
            hard_branch_pct: rng.next_u32(),
        },
    }
}

fn any_spec(rng: &mut StdRng) -> WorkloadSpec {
    WorkloadSpec {
        name: any_string(rng),
        suite: pick(
            rng,
            &[
                Suite::Spec,
                Suite::Parsec,
                Suite::Ligra,
                Suite::Cvp,
                Suite::GoogleLike,
            ],
        ),
        pattern: any_pattern(rng),
        seed: any_u64(rng),
        designed_friendly: rng.gen_bool(0.5),
    }
}

fn any_cell(rng: &mut StdRng) -> WorkloadRef {
    match rng.gen_range(0u32..3) {
        0 => WorkloadRef::Single(any_spec(rng)),
        1 => WorkloadRef::Multi(WorkloadMix {
            category: pick(
                rng,
                &[
                    MixCategory::PrefetcherAdverse,
                    MixCategory::PrefetcherFriendly,
                    MixCategory::Random,
                ],
            ),
            name: any_string(rng),
            workloads: any_vec(rng, 4, any_spec),
        }),
        _ => WorkloadRef::File(FileWorkload {
            name: any_string(rng),
            path: PathBuf::from(format!("traces/{}.bin", any_string(rng))),
        }),
    }
}

fn any_cache(rng: &mut StdRng) -> CacheConfig {
    CacheConfig {
        name: pick(rng, &["L1D", "L2C", "LLC"]),
        size_bytes: any_u64(rng),
        ways: any_u64(rng) as usize,
        latency: any_u64(rng),
        mshrs: any_u64(rng) as usize,
        replacement: pick(rng, &[Replacement::Lru, Replacement::Ship]),
    }
}

fn any_system(rng: &mut StdRng) -> SystemConfig {
    SystemConfig {
        sim: SimConfig {
            core: CoreConfig {
                issue_width: rng.next_u32(),
                commit_width: rng.next_u32(),
                rob_size: any_u64(rng) as usize,
                mispredict_penalty: any_u64(rng),
                frequency_ghz: any_f64(rng),
            },
            l1d: any_cache(rng),
            l2c: any_cache(rng),
            llc: any_cache(rng),
            dram: DramConfig {
                bandwidth_gbps: any_f64(rng),
                banks: any_u64(rng) as usize,
                row_buffer_bytes: any_u64(rng),
                trcd_ns: any_f64(rng),
                trp_ns: any_f64(rng),
                tcas_ns: any_f64(rng),
            },
            ocp_issue_latency: any_u64(rng),
            epoch_len: any_u64(rng),
            coordinator_update_latency: any_u64(rng),
        },
        prefetchers: any_vec(rng, 3, |rng| pick(rng, &PrefetcherKind::ALL)),
        ocp: any_option(rng, |rng| pick(rng, &OcpKind::ALL)),
    }
}

fn any_job(rng: &mut StdRng) -> Job {
    let coordinator = match rng.gen_range(0u32..10) {
        0 => CoordinatorKind::Baseline,
        1 => CoordinatorKind::OcpOnly,
        2 => CoordinatorKind::PrefetchersOnly,
        3 => CoordinatorKind::Naive,
        4 => CoordinatorKind::Fixed {
            ocp: rng.gen_bool(0.5),
            prefetchers: rng.gen_bool(0.5),
        },
        5 => CoordinatorKind::Hpac,
        6 => CoordinatorKind::Mab,
        7 => CoordinatorKind::Tlp,
        8 => CoordinatorKind::Athena,
        _ => CoordinatorKind::AthenaWith(any_athena_config(rng)),
    };
    Job {
        experiment: any_string(rng),
        cell: any_cell(rng),
        config: any_system(rng),
        coordinator,
        instructions: any_u64(rng),
        seed: any_u64(rng),
        telemetry: any_option(rng, |rng| TelemetrySpec {
            window_instructions: any_u64(rng),
        }),
    }
}

/// Checks `decode(encode(x)) == x` through the text form, floats by bits, and that the
/// decoded value re-encodes to the same bytes. Returns the decoded value.
fn round_trip<T: Codec + PartialEq + Debug>(x: &T) -> T {
    let text = x.encode().to_string();
    let back = T::decode(&Json::parse(&text).unwrap()).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(&back, x);
    // `Debug` prints every f64 in its shortest round-trip form (and -0.0 as such), so
    // equal renderings mean bit-identical floats, which `==` alone does not.
    assert_eq!(format!("{back:?}"), format!("{x:?}"));
    assert_eq!(back.encode().to_string(), text);
    back
}

fn assert_bits(a: f64, b: f64) {
    assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stats_and_results_round_trip_bit_exactly(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        round_trip(&any_sim_stats(rng));
        round_trip(&any_epoch_stats(rng));
        round_trip(&any_dram_stats(rng));
        let t = any_telemetry(rng);
        let back = round_trip(&t);
        for (a, b) in [(t.epsilon, back.epsilon), (t.q_mean, back.q_mean),
                       (t.q_min, back.q_min), (t.q_max, back.q_max)] {
            assert_bits(a, b);
        }
        for timeline in [false, true] {
            let r = any_run_result(rng, timeline);
            assert_bits(round_trip(&r).ipc, r.ipc);
            assert_eq!(r.timeline.is_some(), timeline);
            round_trip(&JobOutput::Single(Box::new(r)));
        }
        let cores = any_vec(rng, 3, any_sim_result);
        for core in &cores {
            round_trip(core);
        }
        round_trip(&JobOutput::Multi(MultiCoreResult { cores }));
    }

    #[test]
    fn configs_and_jobs_round_trip_bit_exactly(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let cfg = any_athena_config(rng);
        let back = round_trip(&cfg);
        let floats = |c: &AthenaConfig| {
            let mut v = vec![c.alpha, c.gamma, c.epsilon, c.tau, c.q_step];
            v.extend(c.reward_weights.as_array());
            v
        };
        for (a, b) in floats(&cfg).into_iter().zip(floats(&back)) {
            assert_bits(a, b);
        }
        let text = config_to_json(&cfg).to_string();
        assert_eq!(config_to_json(&config_from_json(&Json::parse(&text).unwrap()).unwrap())
            .to_string(), text);

        let job = any_job(rng);
        round_trip(&job);
        // The wire entry points add the identity tripwire on top of the field table.
        let text = job_json(&job).to_string();
        let back = job_from_json(&Json::parse(&text).unwrap())
            .unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(back, job);
        assert_eq!(format!("{back:?}"), format!("{job:?}"));
        assert_eq!(job_json(&back).to_string(), text);
    }
}
