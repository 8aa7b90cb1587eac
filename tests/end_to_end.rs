//! Cross-crate integration tests: end-to-end simulations spanning the workload suite, the
//! simulator substrate, the prefetchers, the OCPs, the coordination policies and the
//! harness.

use athena_repro::prelude::*;

mod common;

const INSTRUCTIONS: u64 = 60_000;

fn find(name: &str) -> WorkloadSpec {
    all_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name} missing"))
}

#[test]
fn ocp_helps_and_prefetcher_hurts_on_an_adverse_workload() {
    let spec = find("483.xalancbmk-127B");
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let base = simulate(&spec, &config, CoordinatorKind::Baseline, INSTRUCTIONS);
    let pf = simulate(
        &spec,
        &config,
        CoordinatorKind::PrefetchersOnly,
        INSTRUCTIONS,
    );
    let ocp = simulate(&spec, &config, CoordinatorKind::OcpOnly, INSTRUCTIONS);
    assert!(
        pf.ipc < base.ipc,
        "Pythia alone should degrade this workload: {} vs {}",
        pf.ipc,
        base.ipc
    );
    assert!(
        ocp.ipc > base.ipc,
        "POPET alone should improve this workload: {} vs {}",
        ocp.ipc,
        base.ipc
    );
}

#[test]
fn prefetcher_helps_on_a_friendly_workload() {
    let spec = find("462.libquantum-714B");
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let base = simulate(&spec, &config, CoordinatorKind::Baseline, INSTRUCTIONS);
    let pf = simulate(
        &spec,
        &config,
        CoordinatorKind::PrefetchersOnly,
        INSTRUCTIONS,
    );
    assert!(
        pf.ipc > base.ipc * 1.1,
        "Pythia should clearly speed up a streaming workload: {} vs {}",
        pf.ipc,
        base.ipc
    );
}

#[test]
fn naive_combination_masks_the_ocp_gain_on_adverse_workloads() {
    let spec = find("450.soplex-247B");
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let base = simulate(&spec, &config, CoordinatorKind::Baseline, INSTRUCTIONS);
    let ocp = simulate(&spec, &config, CoordinatorKind::OcpOnly, INSTRUCTIONS);
    let naive = simulate(&spec, &config, CoordinatorKind::Naive, INSTRUCTIONS);
    assert!(ocp.ipc > base.ipc);
    assert!(
        naive.ipc < ocp.ipc,
        "naively enabling the prefetcher should mask POPET's gain: naive {} vs ocp {}",
        naive.ipc,
        ocp.ipc
    );
}

#[test]
fn athena_mitigates_the_naive_slowdown_on_adverse_workloads() {
    let spec = find("483.xalancbmk-127B");
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let base = simulate(&spec, &config, CoordinatorKind::Baseline, 200_000);
    let naive = simulate(&spec, &config, CoordinatorKind::Naive, 200_000);
    let athena = simulate(&spec, &config, CoordinatorKind::Athena, 200_000);
    assert!(
        athena.ipc > naive.ipc,
        "Athena must beat the naive combination on an adverse workload: {} vs {}",
        athena.ipc,
        naive.ipc
    );
    assert!(
        athena.ipc > base.ipc * 0.75,
        "Athena should recover most of the naive slowdown: athena {} base {}",
        athena.ipc,
        base.ipc
    );
}

#[test]
fn athena_keeps_the_prefetcher_on_friendly_workloads() {
    let spec = find("436.cactusADM-1804B");
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let base = simulate(&spec, &config, CoordinatorKind::Baseline, 200_000);
    let athena = simulate(&spec, &config, CoordinatorKind::Athena, 200_000);
    assert!(
        athena.ipc > base.ipc * 1.15,
        "Athena should preserve most of the prefetcher gain: {} vs {}",
        athena.ipc,
        base.ipc
    );
}

#[test]
fn every_cache_design_runs_with_every_policy() {
    let spec = find("429.mcf-184B");
    let configs = [
        SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet),
        SystemConfig::cd2(PrefetcherKind::Ipcp, OcpKind::Popet),
        SystemConfig::cd3(PrefetcherKind::Sms, PrefetcherKind::Pythia, OcpKind::Popet),
        SystemConfig::cd4(PrefetcherKind::Ipcp, PrefetcherKind::Pythia, OcpKind::Popet),
        SystemConfig::prefetchers_only(PrefetcherKind::Sms, PrefetcherKind::Pythia),
    ];
    for config in &configs {
        for policy in [
            CoordinatorKind::Baseline,
            CoordinatorKind::Naive,
            CoordinatorKind::Tlp,
            CoordinatorKind::Hpac,
            CoordinatorKind::Mab,
            CoordinatorKind::Athena,
        ] {
            let run = simulate(&spec, config, policy, 15_000);
            assert_eq!(run.instructions, 15_000, "{}", config.describe());
            assert!(run.ipc > 0.0);
        }
    }
}

#[test]
fn every_prefetcher_and_ocp_combination_runs() {
    let spec = find("parsec-facesim-simlarge");
    for prefetcher in [
        PrefetcherKind::Ipcp,
        PrefetcherKind::Berti,
        PrefetcherKind::Pythia,
        PrefetcherKind::SppPpf,
        PrefetcherKind::Mlop,
        PrefetcherKind::Sms,
    ] {
        for ocp in [OcpKind::Popet, OcpKind::Hmp, OcpKind::Ttp] {
            let config = SystemConfig::cd1(prefetcher, ocp);
            let run = simulate(&spec, &config, CoordinatorKind::Naive, 10_000);
            assert!(run.cycles > 0, "{}", config.describe());
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    let spec = find("ligra-BFS-24B");
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let a = simulate(&spec, &config, CoordinatorKind::Athena, 50_000);
    let b = simulate(&spec, &config, CoordinatorKind::Athena, 50_000);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn multicore_mixes_run_and_interfere() {
    let mix_list = mixes(4, 1, 7);
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    let run = |kind| {
        let job = Job::multicore("adhoc", mix_list[0].clone(), config.clone(), kind, 20_000);
        let JobOutput::Multi(result) = job.run() else {
            panic!("a mix yields a multi-core result");
        };
        result
    };
    let base = run(CoordinatorKind::Baseline);
    let athena = run(CoordinatorKind::Athena);
    assert_eq!(base.cores.len(), 4);
    assert_eq!(athena.cores.len(), 4);
    assert!(athena.geomean_speedup_over(&base) > 0.3);
}

#[test]
fn higher_bandwidth_never_slows_the_naive_system_down() {
    let spec = find("462.libquantum-714B");
    let narrow = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet).with_bandwidth(1.6);
    let wide = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet).with_bandwidth(12.8);
    let slow = simulate(&spec, &narrow, CoordinatorKind::Naive, INSTRUCTIONS);
    let fast = simulate(&spec, &wide, CoordinatorKind::Naive, INSTRUCTIONS);
    assert!(fast.ipc > slow.ipc);
}

#[test]
fn quick_figure_experiments_produce_consistent_tables() {
    use athena_repro::harness::experiments;
    let opts = RunOptions {
        instructions: 12_000,
        workload_limit: Some(4),
        jobs: 2,
        trace_dir: None,
        tuned_config: None,
        store: None,
        dist: None,
        probe: None,
        progress: false,
        memo: Default::default(),
    };
    for fig in ["fig2", "fig7", "tab4"] {
        let table = experiments::run_experiment(fig, &opts).expect(fig);
        assert!(!table.rows.is_empty(), "{fig} has rows");
        for (_, values) in &table.rows {
            assert_eq!(values.len(), table.columns.len());
            assert!(values.iter().all(|v| v.is_finite()));
        }
    }
}

#[test]
fn trace_environment_failures_exit_1() {
    // A path that cannot be read or written is a bad environment, not a bad invocation:
    // `trace` exits 1 for it, as `figures` does.
    let dir = std::env::temp_dir().join(format!("athena-trace-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let file = dir.join("a-file");
    let blocked = dir.join("blocked");
    // A directory where the recording should go: creating the trace file fails.
    std::fs::create_dir_all(blocked.join("429.mcf-184B.trace")).unwrap();
    std::fs::write(&file, b"not a directory").unwrap();
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 temp dir").to_string();
    let (missing, file, blocked) = (
        path(&dir.join("missing.trace")),
        path(&file),
        path(&blocked),
    );
    let cases: [(&[&str], &str); 3] = [
        (&["info", &missing], "missing.trace"),
        (
            &["record", "--workload", "429.mcf-184B", "--out", &file],
            "cannot create",
        ),
        (
            &[
                "record",
                "--workload",
                "429.mcf-184B",
                "--instructions",
                "100",
                "--out",
                &blocked,
            ],
            "recording 429.mcf-184B",
        ),
    ];
    for (args, message) in cases {
        let out = common::run_bin("trace", args, &[]);
        let stderr = common::text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "trace {args:?}: {stderr}");
        assert!(stderr.contains(message), "trace {args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_run_lengths_are_usage_errors() {
    // A zero-instruction or zero-workload run prints vacuous tables (every speedup 1.0),
    // and a zero-record trace fails every cell that replays it, so each CLI rejects it up
    // front with the usage-error exit code.
    let traces = std::env::temp_dir().join(format!("athena-zero-traces-{}", std::process::id()));
    let traces = traces.to_str().expect("utf-8 temp dir");
    let cases: [(&str, &[&str], &str); 5] = [
        (
            "figures",
            &["--fig", "fig7", "--quick", "--workloads", "0"],
            "--workloads must be at least 1",
        ),
        (
            "figures",
            &["--fig", "fig7", "--quick", "--instructions", "0"],
            "--instructions must be at least 1",
        ),
        (
            "tune",
            &["--quick", "--instructions", "0"],
            "--instructions must be at least 1",
        ),
        (
            "tune",
            &["--quick", "--workloads", "0"],
            "--workloads must be at least 1",
        ),
        (
            "trace",
            &["record", "--quick", "--instructions", "0", "--out", traces],
            "--instructions must be at least 1",
        ),
    ];
    for (bin, args, message) in cases {
        let out = common::run_bin(bin, args, &[]);
        let stderr = common::text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed a table");
    }
    let _ = std::fs::remove_dir_all(traces);
}
