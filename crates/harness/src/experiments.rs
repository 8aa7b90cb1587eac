//! One experiment per figure/table of the paper's evaluation.
//!
//! Every function returns an [`ExperimentTable`] whose rows/series correspond to the bars or
//! lines of the original figure. The functions take [`RunOptions`] so the same code powers
//! the full `figures` CLI runs, the `e2ebench` benchmark (reduced instruction counts) and
//! the integration tests.
//!
//! Reproduction is *trend-level*: the absolute speedups differ from the paper because the
//! core model and workloads are synthetic substitutes (see DESIGN.md), but the orderings the
//! paper's claims rest on — who wins per category, how the gap changes with bandwidth, what
//! each ablation step contributes — are expected to hold. DESIGN.md §1 says what that
//! trend-level reproduction means and lists the known deviations.

use std::collections::HashMap;

use athena_core::{AthenaConfig, Feature, RewardWeights};
use athena_engine::{CellResult, Job};
use athena_workloads::{
    all_workloads, google_like_workloads, mixes, tuning_workloads, MixCategory, Suite, WorkloadSpec,
};

use crate::run::default_athena_config;
use crate::{
    geomean, CoordinatorKind, ExperimentTable, OcpKind, PrefetcherKind, RunOptions, RunResult,
    SystemConfig,
};

/// The workload categories used as columns in most category tables.
const CATEGORY_COLUMNS: [&str; 7] = [
    "SPEC",
    "PARSEC",
    "Ligra",
    "CVP",
    "prefetcher-adverse",
    "prefetcher-friendly",
    "overall",
];

/// The workload sample an experiment runs on under `opts`.
///
/// With no [`RunOptions::workload_limit`] this is the full 100-workload evaluation suite.
/// With a limit, a balanced slice is kept: designed-friendly and designed-adverse
/// workloads are interleaved so even heavily truncated runs exercise both categories.
/// Exposed publicly so the `trace` CLI's `--quick` recording preset captures exactly the
/// workloads the quick experiments replay.
pub fn workload_set(opts: &RunOptions) -> Vec<WorkloadSpec> {
    let mut w = all_workloads();
    if let Some(limit) = opts.workload_limit {
        let friendly: Vec<WorkloadSpec> =
            w.iter().filter(|x| x.designed_friendly).cloned().collect();
        let adverse: Vec<WorkloadSpec> =
            w.iter().filter(|x| !x.designed_friendly).cloned().collect();
        let mut out = Vec::new();
        let mut fi = friendly.into_iter();
        let mut ai = adverse.into_iter();
        while out.len() < limit {
            if let Some(f) = fi.next() {
                out.push(f);
            }
            if out.len() >= limit {
                break;
            }
            if let Some(a) = ai.next() {
                out.push(a);
            }
        }
        w = out;
    }
    w
}

/// The held-out tuning-workload sample an experiment (or the `tune` CLI) runs on under
/// `opts` — the 20 tuning workloads, truncated to at least 4 by
/// [`RunOptions::workload_limit`]. Shared by `tab3`, the `tuned` experiment and the
/// `athena-tune` CLI so a tuned configuration's claimed scores are measured on exactly
/// the workload set a later `figures --fig tuned` re-measures.
pub fn tuning_set(opts: &RunOptions) -> Vec<WorkloadSpec> {
    let mut specs = tuning_workloads();
    if let Some(limit) = opts.workload_limit {
        specs.truncate(limit.max(4));
    }
    specs
}

/// One engine job for one single-core cell, honouring [`RunOptions::trace_dir`] (see
/// [`Job::single_or_replay`]). Shared with the `timeline` study, which builds the same
/// cells plus telemetry.
pub(crate) fn cell_job(
    experiment: &str,
    spec: &WorkloadSpec,
    config: &SystemConfig,
    kind: &CoordinatorKind,
    opts: &RunOptions,
) -> Job {
    Job::single_or_replay(
        experiment,
        spec,
        opts.trace_dir.as_deref(),
        config.clone(),
        kind.clone(),
        opts.instructions,
    )
}

/// Enumerates one engine job per workload for one (config, policy) pair.
fn single_jobs(
    experiment: &str,
    specs: &[WorkloadSpec],
    config: &SystemConfig,
    kind: &CoordinatorKind,
    opts: &RunOptions,
) -> Vec<Job> {
    specs
        .iter()
        .map(|spec| cell_job(experiment, spec, config, kind, opts))
        .collect()
}

/// Executes a batch of single-core jobs on the experiment engine (`opts.jobs` workers) and
/// returns the results in submission order. Every cell is a pure function of its job, so
/// the returned results are bit-identical at any worker count.
fn run_batch(jobs: Vec<Job>, opts: &RunOptions) -> Vec<RunResult> {
    opts.engine()
        .run(jobs)
        .into_iter()
        .map(CellResult::into_single)
        .collect()
}

/// All per-workload results for one policy.
struct PolicyRuns {
    /// Speedup over the no-prefetching/no-OCP baseline, per workload (same order as specs).
    speedups: Vec<f64>,
    /// Raw run results, per workload.
    runs: Vec<RunResult>,
}

/// Runs a set of policies over a set of workloads on one configuration, sharing the
/// baseline runs.
struct Sweep {
    specs: Vec<WorkloadSpec>,
    baseline: Vec<RunResult>,
    policies: Vec<(String, PolicyRuns)>,
    /// Indices of workloads empirically classified prefetcher-adverse (prefetchers-only
    /// speedup below 1.0, as in the paper's Figure 1 classification).
    adverse_idx: Vec<usize>,
}

impl Sweep {
    fn run(
        experiment: &str,
        config: &SystemConfig,
        policies: &[(&str, CoordinatorKind)],
        opts: &RunOptions,
    ) -> Self {
        Self::run_on(experiment, workload_set(opts), config, policies, opts)
    }

    /// Enumerates every (workload × policy) cell of the sweep — plus the shared baseline
    /// and classification runs — as one engine batch, then slices the in-order results back
    /// out per policy. The classification runs double as the `prefetchers-only` policy
    /// runs, exactly like the original serial loop did.
    fn run_on(
        experiment: &str,
        specs: Vec<WorkloadSpec>,
        config: &SystemConfig,
        policies: &[(&str, CoordinatorKind)],
        opts: &RunOptions,
    ) -> Self {
        let n = specs.len();
        let mut jobs = single_jobs(experiment, &specs, config, &CoordinatorKind::Baseline, opts);
        jobs.extend(single_jobs(
            experiment,
            &specs,
            config,
            &CoordinatorKind::PrefetchersOnly,
            opts,
        ));
        for (_, kind) in policies {
            if *kind != CoordinatorKind::PrefetchersOnly {
                jobs.extend(single_jobs(experiment, &specs, config, kind, opts));
            }
        }
        let mut results = run_batch(jobs, opts).into_iter();

        let baseline: Vec<RunResult> = results.by_ref().take(n).collect();
        // Classification run: prefetchers only.
        let classify: Vec<RunResult> = results.by_ref().take(n).collect();
        let adverse_idx: Vec<usize> = classify
            .iter()
            .zip(baseline.iter())
            .enumerate()
            .filter(|(_, (c, b))| c.ipc < b.ipc)
            .map(|(i, _)| i)
            .collect();

        let mut out_policies = Vec::new();
        for (name, kind) in policies {
            let runs: Vec<RunResult> = match kind {
                // Reuse the classification runs for the prefetchers-only policy.
                CoordinatorKind::PrefetchersOnly => classify.clone(),
                _ => results.by_ref().take(n).collect(),
            };
            let speedups = runs
                .iter()
                .zip(baseline.iter())
                .map(|(r, b)| r.ipc / b.ipc.max(1e-12))
                .collect();
            out_policies.push((name.to_string(), PolicyRuns { speedups, runs }));
        }
        Self {
            specs,
            baseline,
            policies: out_policies,
            adverse_idx,
        }
    }

    fn indices_for(&self, column: &str) -> Vec<usize> {
        match column {
            "overall" => (0..self.specs.len()).collect(),
            "prefetcher-adverse" => self.adverse_idx.clone(),
            "prefetcher-friendly" => (0..self.specs.len())
                .filter(|i| !self.adverse_idx.contains(i))
                .collect(),
            suite => {
                let suite = match suite {
                    "SPEC" => Suite::Spec,
                    "PARSEC" => Suite::Parsec,
                    "Ligra" => Suite::Ligra,
                    "CVP" => Suite::Cvp,
                    "Google" => Suite::GoogleLike,
                    _ => return Vec::new(),
                };
                (0..self.specs.len())
                    .filter(|&i| self.specs[i].suite == suite)
                    .collect()
            }
        }
    }

    fn geomean_speedup(&self, policy: &str, indices: &[usize]) -> f64 {
        let p = self
            .policies
            .iter()
            .find(|(n, _)| n == policy)
            .map(|(_, p)| p)
            .expect("unknown policy");
        let values: Vec<f64> = indices.iter().map(|&i| p.speedups[i]).collect();
        geomean(&values)
    }

    /// Per-workload best static combination (the StaticBest oracle), as a speedup vector.
    /// Requires the sweep to contain the four static policies.
    fn static_best(&self, indices: &[usize]) -> f64 {
        let static_policies = ["baseline-combo", "ocp-only", "prefetchers-only", "naive"];
        let values: Vec<f64> = indices
            .iter()
            .map(|&i| {
                static_policies
                    .iter()
                    .filter_map(|name| {
                        self.policies
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, p)| p.speedups[i])
                    })
                    .fold(1.0f64, f64::max)
            })
            .collect();
        geomean(&values)
    }

    fn category_table(&self, title: &str, policy_order: &[&str]) -> ExperimentTable {
        let mut table = ExperimentTable::new(
            title,
            "policy",
            CATEGORY_COLUMNS.iter().map(|s| s.to_string()).collect(),
        );
        for policy in policy_order {
            let row: Vec<f64> = CATEGORY_COLUMNS
                .iter()
                .map(|col| self.geomean_speedup(policy, &self.indices_for(col)))
                .collect();
            table.push_row(*policy, row);
        }
        table
    }
}

/// The four static combinations used by the StaticBest oracle.
fn static_combo_policies() -> Vec<(&'static str, CoordinatorKind)> {
    vec![
        (
            "baseline-combo",
            CoordinatorKind::Fixed {
                ocp: false,
                prefetchers: false,
            },
        ),
        ("ocp-only", CoordinatorKind::OcpOnly),
        ("prefetchers-only", CoordinatorKind::PrefetchersOnly),
        ("naive", CoordinatorKind::Naive),
    ]
}

fn cd1() -> SystemConfig {
    SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet)
}

fn cd4() -> SystemConfig {
    SystemConfig::cd4(PrefetcherKind::Ipcp, PrefetcherKind::Pythia, OcpKind::Popet)
}

// ---------------------------------------------------------------------------------------
// Motivation figures
// ---------------------------------------------------------------------------------------

/// Figure 1: per-workload speedups of the OCP (POPET) and the prefetcher (Pythia) alone,
/// sorted by the prefetcher's speedup.
pub fn fig1(opts: &RunOptions) -> ExperimentTable {
    let config = cd1();
    let sweep = Sweep::run(
        "fig1",
        &config,
        &[
            ("popet", CoordinatorKind::OcpOnly),
            ("pythia", CoordinatorKind::PrefetchersOnly),
        ],
        opts,
    );
    let mut order: Vec<usize> = (0..sweep.specs.len()).collect();
    let pythia = &sweep.policies[1].1.speedups;
    order.sort_by(|&a, &b| pythia[a].partial_cmp(&pythia[b]).unwrap());
    let mut table = ExperimentTable::new(
        "Figure 1: POPET vs Pythia per-workload speedup (sorted by Pythia speedup)",
        "workload",
        vec!["popet".into(), "pythia".into()],
    );
    for &i in &order {
        table.push_row(
            sweep.specs[i].name.clone(),
            vec![sweep.policies[0].1.speedups[i], pythia[i]],
        );
    }
    table
}

/// Figure 2: geomean speedup of POPET, Pythia, their naive combination and the StaticBest
/// oracle, by workload category.
pub fn fig2(opts: &RunOptions) -> ExperimentTable {
    let config = cd1();
    let sweep = Sweep::run("fig2", &config, &static_combo_policies(), opts);
    let mut table = ExperimentTable::new(
        "Figure 2: naive combination vs StaticBest",
        "combination",
        vec![
            "prefetcher-adverse".into(),
            "prefetcher-friendly".into(),
            "overall".into(),
        ],
    );
    for policy in ["ocp-only", "prefetchers-only", "naive"] {
        let row: Vec<f64> = ["prefetcher-adverse", "prefetcher-friendly", "overall"]
            .iter()
            .map(|c| sweep.geomean_speedup(policy, &sweep.indices_for(c)))
            .collect();
        table.push_row(policy, row);
    }
    let sb: Vec<f64> = ["prefetcher-adverse", "prefetcher-friendly", "overall"]
        .iter()
        .map(|c| sweep.static_best(&sweep.indices_for(c)))
        .collect();
    table.push_row("static-best", sb);
    table
}

/// Figure 3: fraction of prefetch fills from off-chip main memory that are never used, for
/// an L1D prefetcher (IPCP) and an L2C prefetcher (Pythia).
pub fn fig3(opts: &RunOptions) -> ExperimentTable {
    let specs = workload_set(opts);
    let mut table = ExperimentTable::new(
        "Figure 3: fraction of off-chip prefetch fills that are inaccurate",
        "prefetcher",
        vec!["mean".into(), "q1".into(), "median".into(), "q3".into()],
    );
    let configs = [
        (
            "ipcp@L1D",
            SystemConfig::cd2(PrefetcherKind::Ipcp, OcpKind::Popet),
        ),
        ("pythia@L2C", cd1()),
    ];
    let mut jobs = Vec::new();
    for (_, config) in &configs {
        jobs.extend(single_jobs(
            "fig3",
            &specs,
            config,
            &CoordinatorKind::PrefetchersOnly,
            opts,
        ));
    }
    let mut results = run_batch(jobs, opts).into_iter();
    for (label, _) in configs {
        let mut fractions: Vec<f64> = results
            .by_ref()
            .take(specs.len())
            .map(|r| r.stats.offchip_prefetch_inaccuracy())
            .collect();
        fractions.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
        let quart = |q: f64| fractions[((fractions.len() - 1) as f64 * q) as usize];
        table.push_row(label, vec![mean, quart(0.25), quart(0.5), quart(0.75)]);
    }
    table
}

/// Figure 4: prior coordination policies (HPAC, MAB) against Naive and StaticBest in CD1.
pub fn fig4(opts: &RunOptions) -> ExperimentTable {
    let config = cd1();
    let mut policies = static_combo_policies();
    policies.push(("hpac", CoordinatorKind::Hpac));
    policies.push(("mab", CoordinatorKind::Mab));
    let sweep = Sweep::run("fig4", &config, &policies, opts);
    let columns = ["prefetcher-adverse", "prefetcher-friendly", "overall"];
    let mut table = ExperimentTable::new(
        "Figure 4: prior coordination policies vs Naive and StaticBest (CD1)",
        "policy",
        columns.iter().map(|s| s.to_string()).collect(),
    );
    for policy in ["naive", "hpac", "mab"] {
        table.push_row(
            policy,
            columns
                .iter()
                .map(|c| sweep.geomean_speedup(policy, &sweep.indices_for(c)))
                .collect(),
        );
    }
    table.push_row(
        "static-best",
        columns
            .iter()
            .map(|c| sweep.static_best(&sweep.indices_for(c)))
            .collect(),
    );
    table
}

// ---------------------------------------------------------------------------------------
// Main single-core results (CD1–CD4)
// ---------------------------------------------------------------------------------------

fn cache_design_policies(include_tlp: bool) -> Vec<(&'static str, CoordinatorKind)> {
    let mut p = vec![
        ("ocp-only", CoordinatorKind::OcpOnly),
        ("prefetchers-only", CoordinatorKind::PrefetchersOnly),
        ("naive", CoordinatorKind::Naive),
    ];
    if include_tlp {
        p.push(("tlp", CoordinatorKind::Tlp));
    }
    p.push(("hpac", CoordinatorKind::Hpac));
    p.push(("mab", CoordinatorKind::Mab));
    p.push(("athena", CoordinatorKind::Athena));
    p
}

fn cache_design_row_order(include_tlp: bool) -> Vec<&'static str> {
    let mut rows = vec!["ocp-only", "prefetchers-only", "naive"];
    if include_tlp {
        rows.push("tlp");
    }
    rows.extend_from_slice(&["hpac", "mab", "athena"]);
    rows
}

/// Figure 7: speedup in cache design 1 (OCP + Pythia at L2C).
pub fn fig7(opts: &RunOptions) -> ExperimentTable {
    let sweep = Sweep::run("fig7", &cd1(), &cache_design_policies(false), opts);
    sweep.category_table(
        "Figure 7: speedup in CD1 (POPET + Pythia@L2C)",
        &cache_design_row_order(false),
    )
}

/// Figure 8(a): workload-category quartile statistics in CD1.
pub fn fig8a(opts: &RunOptions) -> ExperimentTable {
    let sweep = Sweep::run("fig8a", &cd1(), &cache_design_policies(false), opts);
    let mut table = ExperimentTable::new(
        "Figure 8a: per-category speedup quartiles in CD1",
        "policy",
        vec![
            "adverse-q1".into(),
            "adverse-q3".into(),
            "friendly-q1".into(),
            "friendly-q3".into(),
            "overall-q1".into(),
            "overall-q3".into(),
        ],
    );
    let quartiles = |values: &mut Vec<f64>| -> (f64, f64) {
        if values.is_empty() {
            return (1.0, 1.0);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |f: f64| values[((values.len() - 1) as f64 * f) as usize];
        (q(0.25), q(0.75))
    };
    for (name, runs) in &sweep.policies {
        let mut row = Vec::new();
        for col in ["prefetcher-adverse", "prefetcher-friendly", "overall"] {
            let idx = sweep.indices_for(col);
            let mut values: Vec<f64> = idx.iter().map(|&i| runs.speedups[i]).collect();
            let (q1, q3) = quartiles(&mut values);
            row.push(q1);
            row.push(q3);
        }
        table.push_row(name.clone(), row);
    }
    table
}

/// Figure 8(b): Athena against the StaticBest oracle in CD1.
pub fn fig8b(opts: &RunOptions) -> ExperimentTable {
    let config = cd1();
    let mut policies = static_combo_policies();
    policies.push(("hpac", CoordinatorKind::Hpac));
    policies.push(("mab", CoordinatorKind::Mab));
    policies.push(("athena", CoordinatorKind::Athena));
    let sweep = Sweep::run("fig8b", &config, &policies, opts);
    let columns = ["prefetcher-adverse", "prefetcher-friendly", "overall"];
    let mut table = ExperimentTable::new(
        "Figure 8b: Athena vs StaticBest (CD1)",
        "policy",
        columns.iter().map(|s| s.to_string()).collect(),
    );
    for policy in ["naive", "hpac", "mab", "athena"] {
        table.push_row(
            policy,
            columns
                .iter()
                .map(|c| sweep.geomean_speedup(policy, &sweep.indices_for(c)))
                .collect(),
        );
    }
    table.push_row(
        "static-best",
        columns
            .iter()
            .map(|c| sweep.static_best(&sweep.indices_for(c)))
            .collect(),
    );
    table
}

/// Figure 9: speedup in cache design 2 (OCP + IPCP at L1D), including TLP.
pub fn fig9(opts: &RunOptions) -> ExperimentTable {
    let config = SystemConfig::cd2(PrefetcherKind::Ipcp, OcpKind::Popet);
    let sweep = Sweep::run("fig9", &config, &cache_design_policies(true), opts);
    sweep.category_table(
        "Figure 9: speedup in CD2 (POPET + IPCP@L1D)",
        &cache_design_row_order(true),
    )
}

/// Figure 10: speedup in cache design 3 (OCP + SMS and Pythia at L2C).
pub fn fig10(opts: &RunOptions) -> ExperimentTable {
    let config = SystemConfig::cd3(PrefetcherKind::Sms, PrefetcherKind::Pythia, OcpKind::Popet);
    let sweep = Sweep::run("fig10", &config, &cache_design_policies(false), opts);
    sweep.category_table(
        "Figure 10: speedup in CD3 (POPET + SMS+Pythia@L2C)",
        &cache_design_row_order(false),
    )
}

/// Figure 11: speedup in cache design 4 (OCP + IPCP at L1D + Pythia at L2C), including TLP.
pub fn fig11(opts: &RunOptions) -> ExperimentTable {
    let sweep = Sweep::run("fig11", &cd4(), &cache_design_policies(true), opts);
    sweep.category_table(
        "Figure 11: speedup in CD4 (POPET + IPCP@L1D + Pythia@L2C)",
        &cache_design_row_order(true),
    )
}

// ---------------------------------------------------------------------------------------
// Sensitivity studies
// ---------------------------------------------------------------------------------------

fn overall_sweep_table(
    experiment: &str,
    title: &str,
    configs: Vec<(String, SystemConfig)>,
    policies: &[(&str, CoordinatorKind)],
    row_order: &[&str],
    opts: &RunOptions,
) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        title,
        "policy",
        configs.iter().map(|(n, _)| n.clone()).collect(),
    );
    let mut cells: HashMap<(String, String), f64> = HashMap::new();
    for (col, config) in &configs {
        let sweep = Sweep::run(experiment, config, policies, opts);
        for policy in row_order {
            let v = sweep.geomean_speedup(policy, &sweep.indices_for("overall"));
            cells.insert((policy.to_string(), col.clone()), v);
        }
    }
    for policy in row_order {
        let row: Vec<f64> = configs
            .iter()
            .map(|(col, _)| cells[&(policy.to_string(), col.clone())])
            .collect();
        table.push_row(*policy, row);
    }
    table
}

/// Figure 12(a): sensitivity to the L2C prefetcher type in CD1.
pub fn fig12a(opts: &RunOptions) -> ExperimentTable {
    let configs = [
        PrefetcherKind::Pythia,
        PrefetcherKind::SppPpf,
        PrefetcherKind::Mlop,
        PrefetcherKind::Sms,
    ]
    .iter()
    .map(|p| (p.name().to_string(), SystemConfig::cd1(*p, OcpKind::Popet)))
    .collect();
    overall_sweep_table(
        "fig12a",
        "Figure 12a: sensitivity to the L2C prefetcher type (CD1, overall geomean)",
        configs,
        &cache_design_policies(false),
        &["naive", "hpac", "mab", "athena"],
        opts,
    )
}

/// Figure 12(b): sensitivity to the OCP type in CD1.
pub fn fig12b(opts: &RunOptions) -> ExperimentTable {
    let configs = [OcpKind::Popet, OcpKind::Hmp, OcpKind::Ttp]
        .iter()
        .map(|o| {
            (
                o.name().to_string(),
                SystemConfig::cd1(PrefetcherKind::Pythia, *o),
            )
        })
        .collect();
    overall_sweep_table(
        "fig12b",
        "Figure 12b: sensitivity to the off-chip predictor type (CD1, overall geomean)",
        configs,
        &cache_design_policies(false),
        &["ocp-only", "naive", "hpac", "mab", "athena"],
        opts,
    )
}

/// Figure 12(c): sensitivity to the OCP request issue latency in CD1.
pub fn fig12c(opts: &RunOptions) -> ExperimentTable {
    let configs = [6u64, 18, 30]
        .iter()
        .map(|lat| (format!("{lat}-cycles"), cd1().with_ocp_issue_latency(*lat)))
        .collect();
    overall_sweep_table(
        "fig12c",
        "Figure 12c: sensitivity to the OCP request issue latency (CD1, overall geomean)",
        configs,
        &cache_design_policies(false),
        &["ocp-only", "naive", "hpac", "mab", "athena"],
        opts,
    )
}

/// Figure 13: sensitivity to the L1D prefetcher type in CD4.
pub fn fig13(opts: &RunOptions) -> ExperimentTable {
    let configs = [PrefetcherKind::Ipcp, PrefetcherKind::Berti]
        .iter()
        .map(|p| {
            (
                p.name().to_string(),
                SystemConfig::cd4(*p, PrefetcherKind::Pythia, OcpKind::Popet),
            )
        })
        .collect();
    overall_sweep_table(
        "fig13",
        "Figure 13: sensitivity to the L1D prefetcher type (CD4, overall geomean)",
        configs,
        &cache_design_policies(true),
        &["prefetchers-only", "naive", "tlp", "hpac", "mab", "athena"],
        opts,
    )
}

/// Figure 14: sensitivity to main-memory bandwidth in CD4.
pub fn fig14(opts: &RunOptions) -> ExperimentTable {
    let configs = [1.6f64, 3.2, 6.4, 12.8]
        .iter()
        .map(|bw| (format!("{bw}GB/s"), cd4().with_bandwidth(*bw)))
        .collect();
    overall_sweep_table(
        "fig14",
        "Figure 14: sensitivity to main-memory bandwidth (CD4, overall geomean)",
        configs,
        &cache_design_policies(true),
        &[
            "ocp-only",
            "prefetchers-only",
            "naive",
            "tlp",
            "hpac",
            "mab",
            "athena",
        ],
        opts,
    )
}

// ---------------------------------------------------------------------------------------
// Multi-core
// ---------------------------------------------------------------------------------------

/// Seed of the standard multi-core mix lists (shared by fig15/fig16 and `trace record
/// --mixes`, so recordings and the figures draw from the same mixes).
const MIX_SEED: u64 = 0x5eed;

/// Mixes per category at full scale (the paper uses 30; a workload limit scales down).
const FULL_MIXES_PER_CATEGORY: usize = 10;

/// The standard `cores`-core mix list the multi-core figures use at full scale. Exposed
/// publicly so the `trace` CLI's `--mixes` recording captures exactly the workloads
/// fig15/fig16 replay.
pub fn standard_mixes(cores: usize) -> Vec<athena_workloads::WorkloadMix> {
    mixes(cores, FULL_MIXES_PER_CATEGORY, MIX_SEED)
}

fn multicore_fig(
    experiment: &str,
    title: &str,
    cores: usize,
    opts: &RunOptions,
) -> ExperimentTable {
    // Scale the mix count down with the workload limit so quick runs stay quick.
    let per_category = match opts.workload_limit {
        Some(limit) => (limit / 3).clamp(1, 30),
        None => FULL_MIXES_PER_CATEGORY,
    };
    let mix_list = mixes(cores, per_category, MIX_SEED);
    let config = cd1();
    let policies = [
        ("ocp-only", CoordinatorKind::OcpOnly),
        ("prefetchers-only", CoordinatorKind::PrefetchersOnly),
        ("naive", CoordinatorKind::Naive),
        ("hpac", CoordinatorKind::Hpac),
        ("mab", CoordinatorKind::Mab),
        ("athena", CoordinatorKind::Athena),
    ];
    let columns = ["adverse-mix", "friendly-mix", "random-mix", "overall"];
    let mut table = ExperimentTable::new(
        title,
        "policy",
        columns.iter().map(|s| s.to_string()).collect(),
    );
    let instructions = opts.instructions / 2;

    // One engine batch: the per-mix baselines followed by every (policy × mix) cell.
    let multicore_jobs = |kind: &CoordinatorKind| -> Vec<Job> {
        mix_list
            .iter()
            .map(|m| {
                Job::multicore(
                    experiment,
                    m.clone(),
                    config.clone(),
                    kind.clone(),
                    instructions,
                )
            })
            .collect()
    };
    let mut jobs = multicore_jobs(&CoordinatorKind::Baseline);
    for (_, kind) in &policies {
        jobs.extend(multicore_jobs(kind));
    }
    let mut results = opts
        .engine()
        .run(jobs)
        .into_iter()
        .map(CellResult::into_multi);
    let baselines: Vec<_> = results.by_ref().take(mix_list.len()).collect();

    for (name, _) in policies {
        let speedups: Vec<(MixCategory, f64)> = mix_list
            .iter()
            .zip(baselines.iter())
            .zip(results.by_ref().take(mix_list.len()))
            .map(|((m, base), run)| (m.category, run.geomean_speedup_over(base)))
            .collect();
        let row: Vec<f64> = columns
            .iter()
            .map(|col| {
                let values: Vec<f64> = speedups
                    .iter()
                    .filter(|(cat, _)| match *col {
                        "adverse-mix" => *cat == MixCategory::PrefetcherAdverse,
                        "friendly-mix" => *cat == MixCategory::PrefetcherFriendly,
                        "random-mix" => *cat == MixCategory::Random,
                        _ => true,
                    })
                    .map(|(_, s)| *s)
                    .collect();
                geomean(&values)
            })
            .collect();
        table.push_row(name, row);
    }
    table
}

/// Figure 15: four-core workload mixes in CD1.
pub fn fig15(opts: &RunOptions) -> ExperimentTable {
    multicore_fig("fig15", "Figure 15: four-core mixes (CD1)", 4, opts)
}

/// Figure 16: eight-core workload mixes in CD1.
pub fn fig16(opts: &RunOptions) -> ExperimentTable {
    multicore_fig("fig16", "Figure 16: eight-core mixes (CD1)", 8, opts)
}

// ---------------------------------------------------------------------------------------
// Understanding Athena
// ---------------------------------------------------------------------------------------

/// Figure 17: case study of Athena's action distribution and the static combinations on one
/// phase-alternating CVP workload, at 3.2 GB/s and 25.6 GB/s.
pub fn fig17(opts: &RunOptions) -> ExperimentTable {
    let spec = all_workloads()
        .into_iter()
        .find(|w| w.name == "cvp-compute_fp_17")
        .expect("case-study workload exists");
    let mut table = ExperimentTable::new(
        "Figure 17: case study (cvp-compute_fp_17): Athena action distribution and static combos",
        "quantity",
        vec!["3.2GB/s".into(), "25.6GB/s".into()],
    );
    let mut rows: Vec<(String, Vec<f64>)> = vec![
        ("action: enable-none %".into(), Vec::new()),
        ("action: enable-ocp %".into(), Vec::new()),
        ("action: enable-prefetcher %".into(), Vec::new()),
        ("action: enable-both %".into(), Vec::new()),
        ("speedup: ocp-alone".into(), Vec::new()),
        ("speedup: prefetcher-alone".into(), Vec::new()),
        ("speedup: naive".into(), Vec::new()),
        ("speedup: athena".into(), Vec::new()),
    ];
    // Both bandwidth points and all five policies as one ten-cell engine batch.
    let case_kinds = [
        CoordinatorKind::Baseline,
        CoordinatorKind::OcpOnly,
        CoordinatorKind::PrefetchersOnly,
        CoordinatorKind::Naive,
        CoordinatorKind::Athena,
    ];
    let mut jobs = Vec::new();
    for bw in [3.2, 25.6] {
        let config = cd1().with_bandwidth(bw);
        for kind in &case_kinds {
            jobs.push(cell_job("fig17", &spec, &config, kind, opts));
        }
    }
    let mut results = run_batch(jobs, opts).into_iter();
    for _bw in [3.2, 25.6] {
        let base = results.next().expect("baseline cell");
        let ocp = results.next().expect("ocp cell");
        let pf = results.next().expect("prefetchers cell");
        let naive = results.next().expect("naive cell");
        let athena = results.next().expect("athena cell");
        // Reconstruct the action distribution from epoch telemetry: which mechanisms were
        // active in each epoch.
        let mut counts = [0u64; 4];
        for e in &athena.epochs {
            let pf_on = e.prefetches_issued > 0;
            let ocp_on = e.ocp_predictions > 0;
            let idx = match (ocp_on, pf_on) {
                (false, false) => 0,
                (true, false) => 1,
                (false, true) => 2,
                (true, true) => 3,
            };
            counts[idx] += 1;
        }
        let total = counts.iter().sum::<u64>().max(1) as f64;
        for (i, c) in counts.iter().enumerate() {
            rows[i].1.push(100.0 * *c as f64 / total);
        }
        rows[4].1.push(ocp.ipc / base.ipc);
        rows[5].1.push(pf.ipc / base.ipc);
        rows[6].1.push(naive.ipc / base.ipc);
        rows[7].1.push(athena.ipc / base.ipc);
    }
    for (label, values) in rows {
        table.push_row(label, values);
    }
    table
}

/// Figure 18: ablation study — stateless Athena, progressively adding state features, then
/// the uncorrelated reward component.
pub fn fig18(opts: &RunOptions) -> ExperimentTable {
    let config = cd1();
    let steps: Vec<(&str, CoordinatorKind)> = vec![
        ("mab", CoordinatorKind::Mab),
        (
            "stateless-athena",
            CoordinatorKind::AthenaWith(athena_step(&[], false)),
        ),
        (
            "+prefetcher-accuracy",
            CoordinatorKind::AthenaWith(athena_step(&[Feature::PrefetcherAccuracy], false)),
        ),
        (
            "+ocp-accuracy",
            CoordinatorKind::AthenaWith(athena_step(
                &[Feature::PrefetcherAccuracy, Feature::OcpAccuracy],
                false,
            )),
        ),
        (
            "+bandwidth-usage",
            CoordinatorKind::AthenaWith(athena_step(
                &[
                    Feature::PrefetcherAccuracy,
                    Feature::OcpAccuracy,
                    Feature::BandwidthUsage,
                ],
                false,
            )),
        ),
        (
            "+cache-pollution",
            CoordinatorKind::AthenaWith(athena_step(
                &[
                    Feature::PrefetcherAccuracy,
                    Feature::OcpAccuracy,
                    Feature::BandwidthUsage,
                    Feature::CachePollution,
                ],
                false,
            )),
        ),
        ("athena (+uncorrelated reward)", CoordinatorKind::Athena),
    ];
    let policy_refs: Vec<(&str, CoordinatorKind)> =
        steps.iter().map(|(n, k)| (*n, k.clone())).collect();
    let sweep = Sweep::run("fig18", &config, &policy_refs, opts);
    let mut table = ExperimentTable::new(
        "Figure 18: contribution of state features and the composite reward (CD1, overall geomean)",
        "configuration",
        vec!["overall".into()],
    );
    for (name, _) in &steps {
        table.push_row(
            *name,
            vec![sweep.geomean_speedup(name, &sweep.indices_for("overall"))],
        );
    }
    table
}

fn athena_step(features: &[Feature], uncorrelated: bool) -> AthenaConfig {
    let mut cfg = default_athena_config()
        .with_features(features.to_vec())
        .with_uncorrelated_reward(uncorrelated);
    if !uncorrelated {
        // Prior-work-style reward: IPC (cycle) change only.
        cfg = cfg.with_reward_weights(RewardWeights {
            lambda_cycle: 1.6,
            lambda_llc_misses: 0.0,
            lambda_llc_miss_latency: 0.0,
            lambda_loads: 0.0,
            lambda_mispredicted_branches: 0.0,
        });
    }
    cfg
}

/// Figure 19: Athena managing two L2C prefetchers without an OCP (generalisability study).
pub fn fig19(opts: &RunOptions) -> ExperimentTable {
    let config = SystemConfig::prefetchers_only(PrefetcherKind::Sms, PrefetcherKind::Pythia);
    let policies = vec![
        ("prefetchers-only", CoordinatorKind::PrefetchersOnly),
        ("hpac", CoordinatorKind::Hpac),
        ("mab", CoordinatorKind::Mab),
        ("athena", CoordinatorKind::Athena),
    ];
    let sweep = Sweep::run("fig19", &config, &policies, opts);
    sweep.category_table(
        "Figure 19: prefetcher-only management (SMS+Pythia@L2C, no OCP)",
        &["prefetchers-only", "hpac", "mab", "athena"],
    )
}

// ---------------------------------------------------------------------------------------
// Extended results (Appendix B)
// ---------------------------------------------------------------------------------------

/// Figure 20(a): main-memory requests, normalised to the baseline, per policy (CD1).
pub fn fig20a(opts: &RunOptions) -> ExperimentTable {
    normalised_stat_fig(
        "fig20a",
        "Figure 20a: main-memory requests normalised to no-prefetching/no-OCP (CD1)",
        opts,
        |r| r.stats.dram_total_requests as f64,
    )
}

/// Figure 20(b): average LLC miss latency, normalised to the baseline, per policy (CD1).
pub fn fig20b(opts: &RunOptions) -> ExperimentTable {
    normalised_stat_fig(
        "fig20b",
        "Figure 20b: average LLC load miss latency normalised to no-prefetching/no-OCP (CD1)",
        opts,
        |r| r.stats.avg_llc_miss_latency(),
    )
}

fn normalised_stat_fig(
    experiment: &str,
    title: &str,
    opts: &RunOptions,
    stat: fn(&RunResult) -> f64,
) -> ExperimentTable {
    let sweep = Sweep::run(experiment, &cd1(), &cache_design_policies(false), opts);
    let columns = ["prefetcher-adverse", "prefetcher-friendly", "overall"];
    let mut table = ExperimentTable::new(
        title,
        "policy",
        columns.iter().map(|s| s.to_string()).collect(),
    );
    for (name, runs) in &sweep.policies {
        let row: Vec<f64> = columns
            .iter()
            .map(|col| {
                let idx = sweep.indices_for(col);
                let ratios: Vec<f64> = idx
                    .iter()
                    .map(|&i| stat(&runs.runs[i]) / stat(&sweep.baseline[i]).max(1e-12))
                    .collect();
                geomean(&ratios)
            })
            .collect();
        table.push_row(name.clone(), row);
    }
    table
}

/// Figure 21: unseen (Google-warehouse-style) workloads in CD4.
pub fn fig21(opts: &RunOptions) -> ExperimentTable {
    let mut specs = google_like_workloads();
    if let Some(limit) = opts.workload_limit {
        specs.truncate(limit.max(3));
    }
    let sweep = Sweep::run_on("fig21", specs, &cd4(), &cache_design_policies(true), opts);
    let mut table = ExperimentTable::new(
        "Figure 21: unseen Google-like workloads (CD4)",
        "policy",
        vec!["overall".into()],
    );
    for policy in cache_design_row_order(true) {
        table.push_row(
            policy,
            vec![sweep.geomean_speedup(policy, &sweep.indices_for("overall"))],
        );
    }
    table
}

// ---------------------------------------------------------------------------------------
// Design-space exploration and storage (Tables 3 and 4)
// ---------------------------------------------------------------------------------------

/// Table 3 (reduced): grid search over SARSA hyperparameters on the 20 held-out tuning
/// workloads. The grid is coarser than the paper's (which sweeps in steps of 0.1) so the
/// experiment completes in minutes; the selected point is reported per row.
pub fn tab3_dse(opts: &RunOptions) -> ExperimentTable {
    let specs = tuning_set(opts);
    let config = cd1();
    let mut table = ExperimentTable::new(
        "Table 3 (reduced grid): hyperparameter search on the tuning workloads",
        "configuration",
        vec!["overall".into()],
    );
    let grid = [
        (0.2, 0.3),
        (0.2, 0.6),
        (0.6, 0.3),
        (0.6, 0.6),
        (0.6, 0.9),
        (0.9, 0.6),
    ];
    // One batch: the shared baselines plus every grid point's runs.
    let mut jobs = single_jobs("tab3", &specs, &config, &CoordinatorKind::Baseline, opts);
    for (alpha, gamma) in grid {
        let cfg = default_athena_config().with_hyperparameters(alpha, gamma, 0.05, 0.12);
        jobs.extend(single_jobs(
            "tab3",
            &specs,
            &config,
            &CoordinatorKind::AthenaWith(cfg),
            opts,
        ));
    }
    let mut results = run_batch(jobs, opts).into_iter();
    let baseline: Vec<RunResult> = results.by_ref().take(specs.len()).collect();
    for (alpha, gamma) in grid {
        let speedups: Vec<f64> = results
            .by_ref()
            .take(specs.len())
            .zip(baseline.iter())
            .map(|(r, b)| r.ipc / b.ipc.max(1e-12))
            .collect();
        table.push_row(
            format!("alpha={alpha}, gamma={gamma}"),
            vec![geomean(&speedups)],
        );
    }
    table
}

/// Table 4 / Table 8: storage overhead of Athena and of every evaluated mechanism class.
pub fn tab4_storage(_opts: &RunOptions) -> ExperimentTable {
    let overhead = AthenaConfig::default().storage_overhead();
    let mut table = ExperimentTable::new(
        "Table 4: storage overhead of Athena (bytes per core)",
        "structure",
        vec!["bytes".into()],
    );
    table.push_row("qvstore", vec![overhead.qvstore_bytes as f64]);
    table.push_row(
        "accuracy-tracker",
        vec![overhead.accuracy_tracker_bytes as f64],
    );
    table.push_row(
        "pollution-tracker",
        vec![overhead.pollution_tracker_bytes as f64],
    );
    table.push_row("total", vec![overhead.total_bytes() as f64]);
    table
}

/// The `tuned` experiment: re-measures a file-loaded tuned configuration
/// ([`RunOptions::tuned_config`], written by the `tune` CLI) against the
/// prefetchers-only baseline on the tuning workload set.
///
/// The per-workload rows and the `overall` speedup row are computed through the same
/// scoring path the tuner uses (`athena_tune::Objective::Speedup` over the same
/// [`tuning_set`], at [`RunOptions::instructions`]), so with matching options the
/// `overall` speedup equals the leaderboard's claimed speedup bit for bit.
///
/// # Panics
///
/// Panics when no configuration file is set or it cannot be loaded; the `figures` CLI
/// validates the flag before dispatching here.
pub fn tuned(opts: &RunOptions) -> ExperimentTable {
    let path = opts
        .tuned_config
        .as_ref()
        .expect("the 'tuned' experiment needs a configuration file (--tuned-config)");
    let cfg = athena_tune::load_config(path).unwrap_or_else(|e| panic!("{e}"));
    let specs = tuning_set(opts);
    let config = cd1();

    let mut jobs = single_jobs(
        "tuned",
        &specs,
        &config,
        &CoordinatorKind::PrefetchersOnly,
        opts,
    );
    jobs.extend(single_jobs(
        "tuned",
        &specs,
        &config,
        &CoordinatorKind::AthenaWith(cfg),
        opts,
    ));
    let mut results = run_batch(jobs, opts).into_iter();
    let baselines: Vec<RunResult> = results.by_ref().take(specs.len()).collect();
    let runs: Vec<RunResult> = results.collect();

    let mut table = ExperimentTable::new(
        "Tuned Athena configuration vs prefetchers-only (CD1, tuning workloads)",
        "workload",
        vec![
            "tuned-ipc".into(),
            "prefetchers-only-ipc".into(),
            "speedup".into(),
        ],
    );
    for ((spec, run), base) in specs.iter().zip(&runs).zip(&baselines) {
        table.push_row(
            spec.name.clone(),
            vec![run.ipc, base.ipc, run.ipc / base.ipc.max(1e-12)],
        );
    }
    table.push_row(
        "overall",
        vec![
            geomean(&runs.iter().map(|r| r.ipc).collect::<Vec<f64>>()),
            geomean(&baselines.iter().map(|r| r.ipc).collect::<Vec<f64>>()),
            // The tuner's exact scoring path: this is the leaderboard's claimed speedup.
            athena_tune::Objective::Speedup.score_set(&runs, &baselines),
        ],
    );
    table
}

/// Every experiment, keyed by the identifier the `figures` CLI accepts.
///
/// The `tuned` experiment is deliberately absent: it needs a configuration file
/// ([`RunOptions::tuned_config`]), so `--all` must not select it implicitly. It is still
/// dispatched by [`run_experiment`] when asked for by name.
pub fn experiment_names() -> Vec<&'static str> {
    vec![
        "fig1", "fig2", "fig3", "fig4", "fig7", "fig8a", "fig8b", "fig9", "fig10", "fig11",
        "fig12a", "fig12b", "fig12c", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
        "fig19", "fig20a", "fig20b", "fig21", "tab3", "tab4",
    ]
}

/// Runs the experiment with the given identifier.
///
/// Returns `None` if the identifier is unknown. Identifiers are those listed by
/// [`experiment_names`], plus `tuned` (which additionally needs
/// [`RunOptions::tuned_config`]).
pub fn run_experiment(name: &str, opts: &RunOptions) -> Option<ExperimentTable> {
    let table = match name {
        "tuned" => tuned(opts),
        "fig1" => fig1(opts),
        "fig2" => fig2(opts),
        "fig3" => fig3(opts),
        "fig4" => fig4(opts),
        "fig7" => fig7(opts),
        "fig8a" => fig8a(opts),
        "fig8b" => fig8b(opts),
        "fig9" => fig9(opts),
        "fig10" => fig10(opts),
        "fig11" => fig11(opts),
        "fig12a" => fig12a(opts),
        "fig12b" => fig12b(opts),
        "fig12c" => fig12c(opts),
        "fig13" => fig13(opts),
        "fig14" => fig14(opts),
        "fig15" => fig15(opts),
        "fig16" => fig16(opts),
        "fig17" => fig17(opts),
        "fig18" => fig18(opts),
        "fig19" => fig19(opts),
        "fig20a" => fig20a(opts),
        "fig20b" => fig20b(opts),
        "fig21" => fig21(opts),
        "tab3" => tab3_dse(opts),
        "tab4" => tab4_storage(opts),
        _ => return None,
    };
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunOptions {
        RunOptions {
            instructions: 10_000,
            workload_limit: Some(4),
            jobs: 2,
            trace_dir: None,
            tuned_config: None,
            store: None,
            dist: None,
            probe: None,
            progress: false,
            memo: Default::default(),
        }
    }

    #[test]
    fn category_fig_has_expected_shape() {
        let t = fig7(&tiny());
        assert_eq!(t.columns.len(), 7);
        assert!(t.rows.iter().any(|(n, _)| n == "athena"));
        assert!(t.get("athena", "overall").unwrap() > 0.0);
    }

    #[test]
    fn storage_table_matches_paper_total() {
        let t = tab4_storage(&tiny());
        assert_eq!(t.get("total", "bytes"), Some(3072.0));
    }

    #[test]
    fn experiment_registry_is_complete() {
        for name in experiment_names() {
            // Only run the cheap ones here; existence is checked for all.
            if name == "tab4" {
                assert!(run_experiment(name, &tiny()).is_some());
            }
        }
        assert!(run_experiment("nonexistent", &tiny()).is_none());
    }

    #[test]
    fn static_best_is_at_least_naive() {
        let sweep = Sweep::run("test", &cd1(), &static_combo_policies(), &tiny());
        let idx = sweep.indices_for("overall");
        let naive = sweep.geomean_speedup("naive", &idx);
        let best = sweep.static_best(&idx);
        assert!(best >= naive - 1e-9);
        assert!(best >= 1.0 - 1e-9);
    }
}
