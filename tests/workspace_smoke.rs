//! Workspace smoke tests: the umbrella `prelude` re-exports compile, and a short
//! end-to-end run (workload → sim → coordinator → result) produces sane numbers for
//! every [`CoordinatorKind`].

use athena_repro::prelude::*;

/// Every item the prelude promises is nameable and constructible.
#[test]
fn prelude_reexports_are_usable() {
    let _agent = AthenaAgent::new(AthenaConfig::default());
    let _naive = NaiveAll::new();
    let _fixed = FixedCombo::new(true, false);
    let _hpac = Hpac::default();
    let _mab = Mab::default();
    let _tlp = Tlp::default();

    let config: SimConfig = SimConfig::golden_cove_like();
    let _sim = Simulator::new(config);
    let _epoch = EpochStats::default();

    assert_eq!(all_workloads().len(), 100);
    assert!(!suite_workloads(Suite::Ligra).is_empty());
    assert_eq!(mixes(4, 2, 1).len(), 6);

    let opts = RunOptions {
        instructions: 1_000,
        workload_limit: Some(1),
        jobs: 1,
        trace_dir: None,
        tuned_config: None,
        store: None,
        dist: None,
        probe: None,
        progress: false,
        memo: Default::default(),
    };
    assert_eq!(opts.workload_limit, Some(1));
}

/// A 10k-instruction run completes with nonzero cycles and finite, positive IPC under
/// every coordination policy the harness exposes.
#[test]
fn simulate_is_sane_for_every_coordinator_kind() {
    let spec = suite_workloads(Suite::Ligra)[0].clone();
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let kinds = [
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
        CoordinatorKind::AthenaWith(AthenaConfig::default()),
    ];
    for kind in kinds {
        let label = format!("{kind:?}");
        let result = simulate(&spec, &config, kind, 10_000);
        assert_eq!(result.instructions, 10_000, "{label}");
        assert!(result.cycles > 0, "{label}: expected nonzero cycles");
        assert!(
            result.ipc.is_finite() && result.ipc > 0.0,
            "{label}: expected finite positive IPC, got {}",
            result.ipc
        );
        assert!(
            !result.epochs.is_empty(),
            "{label}: expected epoch telemetry"
        );
    }
}

/// A multi-core job works end-to-end on a tiny 2-core mix.
#[test]
fn simulate_multicore_smoke() {
    let mix = mixes(2, 1, 42).swap_remove(0);
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let job = Job::multicore("adhoc", mix, config, CoordinatorKind::Athena, 5_000);
    let JobOutput::Multi(result) = job.run() else {
        panic!("a mix yields a multi-core result");
    };
    assert_eq!(result.cores.len(), 2);
    assert!(result.cores.iter().all(|c| c.cycles > 0));
    let ipc = result.geomean_ipc();
    assert!(ipc.is_finite() && ipc > 0.0);
}
