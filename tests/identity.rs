//! `Job::identity_hash` stability contract (ISSUE 6).
//!
//! The identity hash is a persistence format: on-disk result stores key their records by
//! it, so the derivation must never drift silently. This test pins known hash values —
//! if any assertion here fails, either revert the hash change or bump the store's
//! `FORMAT_VERSION` and re-pin the constants (see the `identity_hash` docs).

use athena_repro::engine::{record_key, variant_hash, Job};
use athena_repro::prelude::*;
use athena_repro::workloads::mixes;

fn cd1() -> SystemConfig {
    SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet)
}

fn athena_cell() -> Job {
    let spec = all_workloads()[0].clone();
    Job::single("fig7", spec, cd1(), CoordinatorKind::Athena, 40_000)
}

#[test]
fn known_identity_hashes_are_pinned() {
    assert_eq!(athena_cell().identity_hash(), 0xe8ec_7cb2_52cc_881b);
    let spec = all_workloads()[0].clone();
    let pf_only = Job::single(
        "fig7",
        spec.clone(),
        cd1(),
        CoordinatorKind::PrefetchersOnly,
        40_000,
    );
    assert_eq!(pf_only.identity_hash(), 0x6ca5_8219_099e_461a);
    let multi = Job::multicore(
        "fig15",
        mixes(2, 1, 7)[0].clone(),
        cd1(),
        CoordinatorKind::Athena,
        40_000,
    );
    assert_eq!(multi.identity_hash(), 0xe0aa_a8e5_f554_7edb);
    // An explicit configuration hashes every hyperparameter (via its Debug rendering),
    // so DSE grid points get distinct identities.
    let cfg =
        athena_repro::engine::default_athena_config().with_hyperparameters(0.3, 0.6, 0.05, 0.12);
    let tuned = Job::single(
        "tuned",
        spec,
        cd1(),
        CoordinatorKind::AthenaWith(cfg),
        40_000,
    );
    assert_eq!(tuned.identity_hash(), 0x99e9_6267_b153_c171);
}

#[test]
fn known_variant_hashes_are_pinned() {
    let base = athena_cell();
    assert_eq!(variant_hash(&base), 0xdd0c_1230_256c_b180);
    assert_eq!(
        variant_hash(&base.clone().with_telemetry(8192)),
        0xdfea_09a0_bcad_e03d
    );
    let key = record_key(&base);
    assert_eq!(key.identity, base.identity_hash());
    assert_eq!(key.variant, variant_hash(&base));
}

#[test]
fn identity_is_the_derived_seed_and_ignores_observation_facets() {
    let base = athena_cell();
    assert_eq!(base.seed, base.identity_hash());
    // Telemetry changes how the cell is observed — its variant — never which cell it is.
    assert_eq!(
        base.clone().with_telemetry(4096).identity_hash(),
        base.identity_hash()
    );
}

#[test]
fn identity_covers_the_cell_facets_but_never_a_trace_path() {
    let base = athena_cell();
    let spec = all_workloads()[0].clone();
    // Every identity facet separates cells...
    let other_experiment =
        Job::single("fig8", spec.clone(), cd1(), CoordinatorKind::Athena, 40_000);
    assert_ne!(other_experiment.identity_hash(), base.identity_hash());
    let other_workload = Job::single(
        "fig7",
        all_workloads()[1].clone(),
        cd1(),
        CoordinatorKind::Athena,
        40_000,
    );
    assert_ne!(other_workload.identity_hash(), base.identity_hash());
    let other_budget = Job::single("fig7", spec.clone(), cd1(), CoordinatorKind::Athena, 80_000);
    assert_ne!(other_budget.identity_hash(), base.identity_hash());
    // ...but a recorded trace replayed under the workload's name keeps the generated
    // cell's identity, wherever the file lives.
    let replay_a = Job::from_file(
        "fig7",
        &spec.name,
        "traces/a.trace",
        cd1(),
        CoordinatorKind::Athena,
        40_000,
    );
    let replay_b = Job::from_file(
        "fig7",
        &spec.name,
        "/elsewhere/b.trace",
        cd1(),
        CoordinatorKind::Athena,
        40_000,
    );
    assert_eq!(replay_a.identity_hash(), base.identity_hash());
    assert_eq!(replay_b.identity_hash(), base.identity_hash());
}
