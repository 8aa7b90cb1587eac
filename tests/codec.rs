//! The codec's contract.
//!
//! * Bytes: jobs, configurations and store records encode to exactly the committed text in
//!   `tests/fixtures/codec_golden.jsonl`, and each line decodes and re-encodes to itself.
//!   The fixture is never regenerated: a change that moves any byte of it changes the
//!   wire or store format.
//! * Round trips: `decode(encode(x)) == x`, floats bit for bit, over arbitrary stats,
//!   results, configurations and jobs, and re-encoding gives the same bytes.
//! * Reading: the streaming readers (`StoreHandle::decode`, the job reader a `SHARD`
//!   frame uses) return what `Json::parse` and a tree decode return — the same value or
//!   the same error — over every truncation and seeded byte flips of the golden lines
//!   and single faults, and nesting past the depth bound is an error.

use std::fmt::Debug;
use std::path::PathBuf;

use athena_repro::engine::codec::{fill, Codec};
use athena_repro::engine::json::{Json, JsonReader};
use athena_repro::engine::report::job_output_from_json;
use athena_repro::engine::wire::{
    config_from_json, config_to_json, job_from_json, job_json, read_job,
};
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

// ---------------------------------------------------------------------------------------
// The streaming reader against the tree path: `StoreHandle::decode` and the job reader
// walk the raw bytes once; the tree path parses them with `Json::parse` and decodes the
// tree. Both must return the same value or the same error.
// ---------------------------------------------------------------------------------------

/// A store payload through the tree path: the checks `StoreHandle::decode` makes, in its
/// order, on a parsed document.
fn tree_decode(payload: &[u8]) -> Result<JobOutput, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    let doc = Json::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("athena-result-record-v1") {
        return Err("payload does not declare schema 'athena-result-record-v1'".to_string());
    }
    job_output_from_json(doc.get("output").ok_or("payload has no 'output' field")?)
}

/// A job document read the way a `SHARD` frame reads one: a decode error is kept until
/// the whole text has been checked for syntax.
fn stream_job(text: &str) -> Result<Job, String> {
    let mut r = JsonReader::new(text);
    let mut job = None;
    fill(&mut job, &mut r, read_job)
        .and_then(|()| r.finish())
        .map_err(|e| format!("not JSON: {e}"))?;
    job.expect("fill fills the slot")
}

fn tree_job(text: &str) -> Result<Job, String> {
    job_from_json(&Json::parse(text).map_err(|e| format!("not JSON: {e}"))?)
}

fn assert_records_agree(payload: &[u8]) -> Result<JobOutput, String> {
    let streamed = StoreHandle::decode(payload);
    assert_eq!(
        streamed,
        tree_decode(payload),
        "stream and tree disagree on {:?}",
        String::from_utf8_lossy(payload)
    );
    streamed
}

fn assert_jobs_agree(text: &str) -> Result<Job, String> {
    let streamed = stream_job(text);
    assert_eq!(
        streamed,
        tree_job(text),
        "stream and tree disagree on {text}"
    );
    streamed
}

/// Bytes a flip writes: structure, digits, letters, whitespace, and a byte that is never
/// UTF-8.
const FLIPS: &[u8] = b"{}[]:,\"\\-.0159eE+ntfx \n\xff";

#[test]
fn store_decode_agrees_with_the_tree_path_on_truncations_and_byte_flips() {
    let lines = golden_lines();
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    let (mut ok, mut failed) = (0, 0);
    for line in &lines[6..] {
        let bytes = line.as_bytes();
        assert!(assert_records_agree(bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(assert_records_agree(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for _ in 0..400 {
            let mut flipped = bytes.to_vec();
            let at = rng.gen_range(0..flipped.len());
            flipped[at] = FLIPS[rng.gen_range(0..FLIPS.len())];
            match assert_records_agree(&flipped) {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
    }
    // Both outcomes occur, so neither branch of the comparison is vacuous.
    assert!(ok > 0 && failed > 0, "{ok} decoded, {failed} failed");
}

#[test]
fn job_reader_agrees_with_the_tree_path_on_truncations_and_byte_flips() {
    let lines = golden_lines();
    let mut rng = StdRng::seed_from_u64(0x10b_f11e);
    let (mut ok, mut failed) = (0, 0);
    for line in &lines[..5] {
        assert!(assert_jobs_agree(line).is_ok());
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            assert!(assert_jobs_agree(&line[..cut]).is_err(), "cut at {cut}");
        }
        for _ in 0..400 {
            let mut flipped = line.as_bytes().to_vec();
            let at = rng.gen_range(0..flipped.len());
            flipped[at] = FLIPS[rng.gen_range(0..FLIPS.len() - 1)];
            let Ok(text) = String::from_utf8(flipped) else {
                continue;
            };
            match assert_jobs_agree(&text) {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
    }
    assert!(ok > 0 && failed > 0, "{ok} decoded, {failed} failed");
}

/// One fault in an otherwise golden document: the text to replace (first occurrence),
/// its replacement, and what the reader must say — `Ok` for a document that still
/// decodes to the golden value, or a fragment of the error.
type Fault = (&'static str, &'static str, Result<(), &'static str>);

fn faulted(line: &str, (from, to, _): &Fault) -> String {
    assert!(line.contains(from), "{from} is not in the golden line");
    line.replacen(from, to, 1)
}

#[test]
fn single_faults_in_a_record_read_the_same_both_ways() {
    let line = golden_lines()[6];
    let golden = StoreHandle::decode(line.as_bytes()).unwrap();
    let faults: [Fault; 10] = [
        (
            "\"cycles\":7437,\"ipc\"",
            "\"ipc\"",
            Err("field 'result': missing field 'cycles'"),
        ),
        (
            "\"loads\":1199",
            "\"loads\":\"many\"",
            Err("field 'stats': field 'loads': not an unsigned integer"),
        ),
        (
            "\"stores\":6,",
            "\"stores\":6.5,",
            Err("field 'stores': not an unsigned integer"),
        ),
        (
            "\"stores\":6,",
            "\"stores\":-6,",
            Err("field 'stores': not an unsigned integer"),
        ),
        (
            "\"kind\":\"single\"",
            "\"kind\":\"triple\"",
            Err("unknown JobOutput kind 'triple'"),
        ),
        (
            "\"cycles\":7437,\"ipc\"",
            "\"cycles\":\"0x1d0g\",\"ipc\"",
            Err("field 'cycles': not an unsigned integer"),
        ),
        (
            "\"cycles\":7437,\"ipc\"",
            "\"cycles\":7437,\"cycles\":1,\"ipc\"",
            Ok(()),
        ),
        (
            "\"cycles\":7437,\"ipc\"",
            "\"cycles\":7437,\"bogus\":[1,{\"x\":null}],\"ipc\"",
            Ok(()),
        ),
        (
            "athena-result-record-v1",
            "athena-result-record-v2",
            Err("payload does not declare schema"),
        ),
        (
            "\"timeline\":null}}}",
            "\"timeline\":null}}} x",
            Err("payload is not JSON: trailing characters after the document"),
        ),
    ];
    for fault in &faults {
        let text = faulted(line, fault);
        match (assert_records_agree(text.as_bytes()), fault.2) {
            (Ok(output), Ok(())) => assert_eq!(output, golden, "{}", fault.1),
            (Err(e), Err(expected)) => assert!(e.contains(expected), "{}: {e}", fault.1),
            (got, expected) => panic!("{}: got {got:?}, expected {expected:?}", fault.1),
        }
    }
}

#[test]
fn single_faults_in_a_job_read_the_same_both_ways() {
    let line = golden_lines()[0];
    let golden = tree_job(line).unwrap();
    let faults: [Fault; 9] = [
        (
            ",\"loads_per_iter\":3",
            "",
            Err("missing field 'loads_per_iter'"),
        ),
        (
            "\"loads_per_iter\":3",
            "\"loads_per_iter\":true",
            Err("field 'loads_per_iter': not an unsigned integer"),
        ),
        (
            "\"loads_per_iter\":3",
            "\"loads_per_iter\":4294967296",
            Err("field 'loads_per_iter': does not fit in u32"),
        ),
        (
            "\"loads_per_iter\":3",
            "\"loads_per_iter\":2.5",
            Err("field 'loads_per_iter': not an unsigned integer"),
        ),
        (
            "\"kind\":\"stream\"",
            "\"kind\":\"river\"",
            Err("unknown Pattern kind 'river'"),
        ),
        (
            "\"seed\":\"0x",
            "\"seed\":\"0y",
            Err("field 'seed': not a \"0x…\" hex string"),
        ),
        (
            "\"loads_per_iter\":3",
            "\"loads_per_iter\":3,\"loads_per_iter\":4",
            Ok(()),
        ),
        (
            "\"loads_per_iter\":3",
            "\"loads_per_iter\":3,\"bogus\":{\"deep\":[[]]}",
            Ok(()),
        ),
        (
            "\"telemetry\":null,",
            "\"telemetry\":null,\"x\":1} ]",
            Err("not JSON: trailing characters after the document"),
        ),
    ];
    for fault in &faults {
        let text = faulted(line, fault);
        match (assert_jobs_agree(&text), fault.2) {
            (Ok(job), Ok(())) => assert_eq!(job, golden, "{}", fault.1),
            (Err(e), Err(expected)) => assert!(e.contains(expected), "{}: {e}", fault.1),
            (got, expected) => panic!("{}: got {got:?}, expected {expected:?}", fault.1),
        }
    }
    // A field moved ahead of the tag still reads: order never matters.
    let reordered = line.replacen(
        "{\"kind\":\"stream\",\"footprint\":33554432,",
        "{\"footprint\":33554432,\"kind\":\"stream\",",
        1,
    );
    assert_ne!(reordered, line);
    assert_eq!(assert_jobs_agree(&reordered), Ok(golden));
}

#[test]
fn nesting_past_the_depth_bound_is_an_error_not_a_stack_overflow() {
    let deep = "[".repeat(1_000_000);
    let err = Json::parse(&deep).unwrap_err();
    assert_eq!(
        (err.message.as_str(), err.offset),
        ("arrays and objects nest deeper than 128 levels", 128)
    );
    let prefix = "{\"schema\":\"athena-result-record-v1\",\"output\":";
    let payload = format!("{prefix}{deep}");
    let err = StoreHandle::decode(payload.as_bytes()).unwrap_err();
    assert_eq!(
        err,
        format!(
            "payload is not JSON: arrays and objects nest deeper than 128 levels at byte {}",
            prefix.len() + 127
        )
    );
    // At the bound itself a document still parses.
    let at_bound = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(Json::parse(&at_bound).is_ok());
}
