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
    assert_eq!(athena_cell().identity_hash(), 0x575c_78f6_f06f_1e9b);
    let spec = all_workloads()[0].clone();
    let pf_only = Job::single(
        "fig7",
        spec.clone(),
        cd1(),
        CoordinatorKind::PrefetchersOnly,
        40_000,
    );
    assert_eq!(pf_only.identity_hash(), 0x648a_84cb_9082_ee95);
    let multi = Job::multicore(
        "fig15",
        mixes(2, 1, 7)[0].clone(),
        cd1(),
        CoordinatorKind::Athena,
        40_000,
    );
    assert_eq!(multi.identity_hash(), 0x4fdd_533a_4b70_89d3);
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
    assert_eq!(tuned.identity_hash(), 0x56ae_738f_2120_0dab);
}

#[test]
fn known_variant_hashes_are_pinned() {
    let base = athena_cell();
    assert_eq!(variant_hash(&base), 0xc6cd_7939_b211_9b5a);
    assert_eq!(
        variant_hash(&base.clone().with_telemetry(8192)),
        0xae42_bc49_e5ad_89f1
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
