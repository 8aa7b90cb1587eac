//! The workspace's one hash, [`athena_repro::store::hash64`], as the store checksum and as
//! the cell identity.
//!
//! * A checksum catches what a corrupted store or frame looks like: every single-bit flip
//!   of a real record payload, every two-bit flip inside a 16-byte window of its first
//!   256 bytes, and flips of bit 63 in two different words (which cancel under word-wise
//!   FNV-1a).
//! * No two cells the experiments, the timeline study or the tuner can build share an
//!   identity, across every workload, configuration, policy, budget and experiment name.
//! * The four `Fixed` combinations are four cells: each gets its own identity, store key
//!   and output.

use athena_repro::engine::{record_key, CellMemo, Job, JobOutput, StoreHandle, StorePolicy};
use athena_repro::harness::experiments::experiment_names;
use athena_repro::prelude::*;
use athena_repro::store::checksum;
use athena_repro::tune::TUNE_EXPERIMENT;
use athena_repro::workloads::tuning_workloads;

fn cd1() -> SystemConfig {
    SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet)
}

/// The store record of one cell at the quick preset's budget.
fn quick_payload() -> Vec<u8> {
    let job = Job::single(
        "fig7",
        all_workloads()[0].clone(),
        cd1(),
        CoordinatorKind::Athena,
        40_000,
    );
    StoreHandle::encode(&job, &job.run())
}

/// `bytes` with each bit in `bits` flipped (bit `i` is bit `i % 8` of byte `i / 8`).
fn flipped(bytes: &[u8], bits: &[usize]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &bit in bits {
        out[bit / 8] ^= 1 << (bit % 8);
    }
    out
}

#[test]
fn every_single_bit_flip_of_a_record_changes_its_checksum() {
    let payload = quick_payload();
    let sum = checksum(&payload);
    for bit in 0..payload.len() * 8 {
        assert_ne!(checksum(&flipped(&payload, &[bit])), sum, "bit {bit}");
    }
}

#[test]
fn every_two_bit_flip_inside_a_16_byte_window_changes_the_checksum() {
    let payload = quick_payload();
    assert!(payload.len() > 256, "{} bytes", payload.len());
    let sum = checksum(&payload);
    let mut pairs = 0;
    for a in 0..256 * 8 {
        // Every later bit that a 16-byte window starting at or before `a`'s byte holds.
        for b in a + 1..((a / 8 + 16) * 8).min(256 * 8) {
            assert_ne!(checksum(&flipped(&payload, &[a, b])), sum, "bits {a}, {b}");
            pairs += 1;
        }
    }
    assert!(pairs > 200_000, "{pairs} pairs");
}

#[test]
fn bit_63_flips_in_two_words_never_cancel() {
    let payload = quick_payload();
    let sum = checksum(&payload);
    let words = payload.len() / 8;
    for i in 0..words.min(64) {
        for j in i + 1..words {
            let twice = flipped(&payload, &[i * 64 + 63, j * 64 + 63]);
            assert_ne!(checksum(&twice), sum, "words {i}, {j}");
        }
    }
}

/// Every system configuration the experiments build.
fn experiment_configs() -> Vec<SystemConfig> {
    use PrefetcherKind::*;
    let cd4 = || SystemConfig::cd4(Ipcp, Pythia, OcpKind::Popet);
    let mut configs = vec![
        cd1(),
        SystemConfig::cd2(Ipcp, OcpKind::Popet),
        SystemConfig::cd3(Sms, Pythia, OcpKind::Popet),
        cd4(),
        SystemConfig::cd4(Berti, Pythia, OcpKind::Popet),
        SystemConfig::prefetchers_only(Sms, Pythia),
    ];
    configs.extend([SppPpf, Mlop, Sms].map(|p| SystemConfig::cd1(p, OcpKind::Popet)));
    configs.extend([OcpKind::Hmp, OcpKind::Ttp].map(|o| SystemConfig::cd1(Pythia, o)));
    configs.extend([6, 18, 30].map(|lat| cd1().with_ocp_issue_latency(lat)));
    configs.extend([1.6, 3.2, 6.4, 12.8].map(|bw| cd4().with_bandwidth(bw)));
    configs.extend([3.2, 25.6].map(|bw| cd1().with_bandwidth(bw)));
    let mut distinct: Vec<SystemConfig> = Vec::new();
    for config in configs {
        if !distinct.contains(&config) {
            distinct.push(config);
        }
    }
    distinct
}

/// Every coordination policy, with the explicit Athena configurations of `tab3` and the
/// `tuned` experiment's kind.
fn every_coordinator() -> Vec<CoordinatorKind> {
    let mut kinds = vec![
        CoordinatorKind::Baseline,
        CoordinatorKind::OcpOnly,
        CoordinatorKind::PrefetchersOnly,
        CoordinatorKind::Naive,
        CoordinatorKind::Hpac,
        CoordinatorKind::Mab,
        CoordinatorKind::Tlp,
        CoordinatorKind::Athena,
    ];
    for ocp in [false, true] {
        for prefetchers in [false, true] {
            kinds.push(CoordinatorKind::Fixed { ocp, prefetchers });
        }
    }
    let default = athena_repro::engine::default_athena_config();
    kinds.push(CoordinatorKind::AthenaWith(default.clone()));
    for (alpha, gamma) in [(0.2, 0.6), (0.3, 0.6), (0.3, 0.9)] {
        kinds.push(CoordinatorKind::AthenaWith(
            default
                .clone()
                .with_hyperparameters(alpha, gamma, 0.05, 0.12),
        ));
    }
    kinds
}

#[test]
fn no_two_cells_of_the_experiment_space_share_an_identity() {
    let mut experiments = experiment_names();
    experiments.extend(["tuned", "timeline", TUNE_EXPERIMENT]);
    let mut workloads = all_workloads();
    workloads.extend(tuning_workloads());
    let configs = experiment_configs();
    let kinds = every_coordinator();
    let budgets = [4_000, 40_000, 400_000];
    let mut ids = Vec::with_capacity(
        experiments.len() * workloads.len() * configs.len() * kinds.len() * budgets.len(),
    );
    // Configuration outermost: the identity's rendering cache then holds the one in use.
    for config in &configs {
        for kind in &kinds {
            for &budget in &budgets {
                for spec in &workloads {
                    let mut job =
                        Job::single("", spec.clone(), config.clone(), kind.clone(), budget);
                    for experiment in &experiments {
                        job.experiment.clear();
                        job.experiment.push_str(experiment);
                        ids.push(job.identity_hash());
                    }
                }
            }
        }
    }
    let cells = ids.len();
    assert!(cells > 2_000_000, "{cells} cells");
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), cells, "{} identities collide", cells - ids.len());
}

#[test]
fn each_fixed_combination_is_its_own_cell() {
    let spec = find_workload("410.bwaves-1963B").unwrap();
    let job = |ocp, prefetchers| {
        Job::single(
            "fig2",
            spec.clone(),
            cd1(),
            CoordinatorKind::Fixed { ocp, prefetchers },
            20_000,
        )
    };
    let (ocp_only, pf_only) = (job(true, false), job(false, true));
    assert_ne!(ocp_only.identity_hash(), pf_only.identity_hash());
    assert_ne!(record_key(&ocp_only), record_key(&pf_only));
    let fresh = [ocp_only.run(), pf_only.run()];
    assert_ne!(
        fresh[0], fresh[1],
        "the two combinations compute different cells"
    );

    // A memo keeps the second request's output and serves the third: each request must
    // get its own cell's output back.
    let memo = Engine::new(1).with_memo(Some(CellMemo::new()));
    let order = [
        &ocp_only, &pf_only, &ocp_only, &pf_only, &ocp_only, &pf_only,
    ];
    for (i, job) in order.into_iter().enumerate() {
        let cell = memo.run(vec![job.clone()]).remove(0);
        assert_eq!(cell.output.as_ref().unwrap(), &fresh[i % 2], "request {i}");
    }

    // A store keys them apart too.
    let dir = std::env::temp_dir().join(format!("athena-fixed-pairs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = StoreHandle::open(&dir, StorePolicy::ReadWrite).unwrap();
    Engine::new(1)
        .with_store(Some(store))
        .run(vec![ocp_only.clone(), pf_only.clone()]);
    let store = StoreHandle::open(&dir, StorePolicy::ReadOnly).unwrap();
    let served = Engine::new(1)
        .with_store(Some(store))
        .run(vec![pf_only, ocp_only]);
    assert!(served.iter().all(|c| c.cached));
    let outputs: Vec<&JobOutput> = served.iter().map(|c| c.output.as_ref().unwrap()).collect();
    assert_eq!(outputs, [&fresh[1], &fresh[0]]);
    std::fs::remove_dir_all(&dir).unwrap();
}
