//! One experiment per figure/table of the paper's evaluation, each registered once in
//! `EXPERIMENTS` and reached by name through [`run_experiment`]. Every experiment takes
//! [`RunOptions`], so the same code powers the `figures` CLI, the `e2ebench` benchmark and
//! the integration tests, and returns an [`ExperimentTable`] whose rows/series are the bars
//! or lines of the original figure.
//!
//! A figure is declared by its cells, rows and columns. `run_grid` runs `(config, policy)`
//! series over the workloads as one engine batch; a `Sweep` adds the shared baseline and
//! prefetchers-only classification series and turns each policy's runs into per-workload
//! speedups. A row is a label plus one value per workload (a policy's speedups, the
//! StaticBest maximum, or a statistic normalised to the baseline), a column is a typed
//! workload `Slice`, and `Sweep::table` makes each cell its row's geomean over its column.
//!
//! Reproduction is *trend-level*: the absolute speedups differ from the paper because the
//! core model and workloads are synthetic substitutes (see DESIGN.md), but the orderings the
//! paper's claims rest on — who wins per category, how the gap changes with bandwidth, what
//! each ablation step contributes — are expected to hold. DESIGN.md §1 says what that
//! trend-level reproduction means and lists the known deviations.

use std::fmt;

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

/// A slice of a sweep's workloads: one column of a category table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slice {
    /// The workloads of one suite.
    Suite(Suite),
    /// The workloads the prefetchers alone slow down (the paper's Figure 1 classification).
    Adverse,
    /// Every other workload.
    Friendly,
    /// Every workload.
    Overall,
}

impl fmt::Display for Slice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slice::Suite(suite) => suite.fmt(f),
            Slice::Adverse => f.write_str("prefetcher-adverse"),
            Slice::Friendly => f.write_str("prefetcher-friendly"),
            Slice::Overall => f.write_str("overall"),
        }
    }
}

/// The columns of the per-category tables: the four suites, then the classes.
const CATEGORIES: [Slice; 7] = [
    Slice::Suite(Suite::Spec),
    Slice::Suite(Suite::Parsec),
    Slice::Suite(Suite::Ligra),
    Slice::Suite(Suite::Cvp),
    Slice::Adverse,
    Slice::Friendly,
    Slice::Overall,
];

/// The columns of the per-class tables.
const CLASSES: [Slice; 3] = [Slice::Adverse, Slice::Friendly, Slice::Overall];

/// The workload sample an experiment runs on under `opts`.
///
/// With no [`RunOptions::workload_limit`] this is the full 100-workload evaluation suite.
/// With a limit, a balanced slice is kept: designed-friendly and designed-adverse
/// workloads are interleaved so even heavily truncated runs exercise both categories, and
/// a limit past the suite's size keeps every workload.
/// Exposed publicly so the `trace` CLI's `--quick` recording preset captures exactly the
/// workloads the quick experiments replay.
pub fn workload_set(opts: &RunOptions) -> Vec<WorkloadSpec> {
    let all = all_workloads();
    let Some(limit) = opts.workload_limit else {
        return all;
    };
    let (friendly, adverse): (Vec<_>, Vec<_>) = all.into_iter().partition(|w| w.designed_friendly);
    (0..friendly.len().max(adverse.len()))
        .flat_map(|i| [friendly.get(i), adverse.get(i)])
        .flatten()
        .take(limit)
        .cloned()
        .collect()
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

/// Runs each `(config, policy)` series over `specs`, series by series, as one engine batch
/// (`opts.jobs` workers), and returns each series' results in workload order. Every cell is
/// a pure function of its job, so the results are bit-identical at any worker count.
fn run_grid(
    experiment: &str,
    specs: &[WorkloadSpec],
    series: &[(&SystemConfig, CoordinatorKind)],
    opts: &RunOptions,
) -> Vec<Vec<RunResult>> {
    let jobs = series
        .iter()
        .flat_map(|(config, kind)| {
            specs
                .iter()
                .map(move |spec| cell_job(experiment, spec, config, kind, opts))
        })
        .collect();
    let mut results = opts
        .engine()
        .run(jobs)
        .into_iter()
        .map(CellResult::into_single);
    series
        .iter()
        .map(|_| results.by_ref().take(specs.len()).collect())
        .collect()
}

/// A table row: a label plus one value per workload of the sweep.
type Row = (String, Vec<f64>);

/// Runs a set of policies over a set of workloads on one configuration, sharing the
/// baseline runs.
struct Sweep {
    specs: Vec<WorkloadSpec>,
    baseline: Vec<RunResult>,
    /// Each policy's name and its runs, per workload (same order as specs).
    policies: Vec<(String, Vec<RunResult>)>,
    /// Per workload: whether it is empirically prefetcher-adverse (prefetchers-only speedup
    /// below 1.0, as in the paper's Figure 1 classification).
    adverse: Vec<bool>,
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

    /// Runs the baseline, the prefetchers-only classification and every other policy as
    /// one grid. The classification runs double as the `prefetchers-only` policy runs.
    fn run_on(
        experiment: &str,
        specs: Vec<WorkloadSpec>,
        config: &SystemConfig,
        policies: &[(&str, CoordinatorKind)],
        opts: &RunOptions,
    ) -> Self {
        let mut series = vec![
            (config, CoordinatorKind::Baseline),
            (config, CoordinatorKind::PrefetchersOnly),
        ];
        series.extend(
            policies
                .iter()
                .filter(|(_, kind)| *kind != CoordinatorKind::PrefetchersOnly)
                .map(|(_, kind)| (config, kind.clone())),
        );
        let mut results = run_grid(experiment, &specs, &series, opts).into_iter();
        let baseline = results.next().expect("baseline series");
        let classify = results.next().expect("classification series");
        let adverse = classify
            .iter()
            .zip(&baseline)
            .map(|(c, b)| c.ipc < b.ipc)
            .collect();
        let policies = policies
            .iter()
            .map(|(name, kind)| {
                let runs = match kind {
                    CoordinatorKind::PrefetchersOnly => classify.clone(),
                    _ => results.next().expect("policy series"),
                };
                (name.to_string(), runs)
            })
            .collect();
        Self {
            specs,
            baseline,
            policies,
            adverse,
        }
    }

    /// The indices of the workloads in `slice`, in ascending order.
    fn indices(&self, slice: Slice) -> Vec<usize> {
        (0..self.specs.len())
            .filter(|&i| match slice {
                Slice::Suite(suite) => self.specs[i].suite == suite,
                Slice::Adverse => self.adverse[i],
                Slice::Friendly => !self.adverse[i],
                Slice::Overall => true,
            })
            .collect()
    }

    /// One policy's per-workload speedups over the no-prefetching/no-OCP baseline.
    fn speedups(&self, policy: &str) -> Vec<f64> {
        let (_, runs) = self
            .policies
            .iter()
            .find(|(name, _)| name == policy)
            .expect("unknown policy");
        runs.iter()
            .zip(&self.baseline)
            .map(|(r, b)| r.ipc / b.ipc.max(1e-12))
            .collect()
    }

    /// Every policy's speedup row, in the order the sweep ran them.
    fn speedup_rows(&self) -> Vec<Row> {
        self.policies
            .iter()
            .map(|(name, _)| (name.clone(), self.speedups(name)))
            .collect()
    }

    /// The per-workload best static combination (the StaticBest oracle): the largest
    /// speedup among the baseline's 1.0 and the three [`static_combo_policies`].
    fn static_best(&self) -> Vec<f64> {
        let statics = ["ocp-only", "prefetchers-only", "naive"].map(|name| self.speedups(name));
        (0..self.specs.len())
            .map(|i| statics.iter().map(|s| s[i]).fold(1.0f64, f64::max))
            .collect()
    }

    /// A table with one column per slice: each cell is the geomean of its row's
    /// per-workload values over the column's workloads.
    fn table(
        &self,
        title: &str,
        row_label: &str,
        slices: &[Slice],
        rows: Vec<Row>,
    ) -> ExperimentTable {
        let columns: Vec<Vec<usize>> = slices.iter().map(|&s| self.indices(s)).collect();
        let mut table = ExperimentTable::new(
            title,
            row_label,
            slices.iter().map(Slice::to_string).collect(),
        );
        for (label, values) in rows {
            let cells = columns
                .iter()
                .map(|idx| geomean(&idx.iter().map(|&i| values[i]).collect::<Vec<f64>>()))
                .collect();
            table.push_row(label, cells);
        }
        table
    }
}

/// The value at quantile `q` of an ascending sample, by truncated rank; an empty sample
/// reads 1.0.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 1.0,
        n => sorted[((n - 1) as f64 * q) as usize],
    }
}

/// Sorts a sample ascending for [`quantile`].
fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values
}

/// The static combinations used by the StaticBest oracle, besides the baseline every sweep
/// runs anyway.
fn static_combo_policies() -> Vec<(&'static str, CoordinatorKind)> {
    vec![
        ("ocp-only", CoordinatorKind::OcpOnly),
        ("prefetchers-only", CoordinatorKind::PrefetchersOnly),
        ("naive", CoordinatorKind::Naive),
    ]
}

fn cd1() -> SystemConfig {
    SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet)
}

fn cd2() -> SystemConfig {
    SystemConfig::cd2(PrefetcherKind::Ipcp, OcpKind::Popet)
}

fn cd4() -> SystemConfig {
    SystemConfig::cd4(PrefetcherKind::Ipcp, PrefetcherKind::Pythia, OcpKind::Popet)
}

// ---------------------------------------------------------------------------------------
// Motivation figures
// ---------------------------------------------------------------------------------------

/// Figure 1: per-workload speedups of the OCP (POPET) and the prefetcher (Pythia) alone,
/// sorted by the prefetcher's speedup.
fn fig1(opts: &RunOptions) -> ExperimentTable {
    let sweep = Sweep::run(
        "fig1",
        &cd1(),
        &[
            ("popet", CoordinatorKind::OcpOnly),
            ("pythia", CoordinatorKind::PrefetchersOnly),
        ],
        opts,
    );
    let (popet, pythia) = (sweep.speedups("popet"), sweep.speedups("pythia"));
    let mut order: Vec<usize> = (0..sweep.specs.len()).collect();
    order.sort_by(|&a, &b| pythia[a].partial_cmp(&pythia[b]).unwrap());
    let mut table = ExperimentTable::new(
        "Figure 1: POPET vs Pythia per-workload speedup (sorted by Pythia speedup)",
        "workload",
        vec!["popet".into(), "pythia".into()],
    );
    for i in order {
        table.push_row(sweep.specs[i].name.clone(), vec![popet[i], pythia[i]]);
    }
    table
}

/// A StaticBest comparison in CD1: `extra` policies run beside the static
/// combinations, and the table lists the `rows` policies, then the StaticBest oracle, by
/// class.
fn static_best_fig(
    experiment: &str,
    title: &str,
    row_label: &str,
    extra: &[(&str, CoordinatorKind)],
    rows: &[&str],
    opts: &RunOptions,
) -> ExperimentTable {
    let mut policies = static_combo_policies();
    policies.extend_from_slice(extra);
    let sweep = Sweep::run(experiment, &cd1(), &policies, opts);
    let mut rows: Vec<Row> = rows
        .iter()
        .map(|p| (p.to_string(), sweep.speedups(p)))
        .collect();
    rows.push(("static-best".into(), sweep.static_best()));
    sweep.table(title, row_label, &CLASSES, rows)
}

/// Figure 2: geomean speedup of POPET, Pythia, their naive combination and the StaticBest
/// oracle, by workload category.
fn fig2(opts: &RunOptions) -> ExperimentTable {
    static_best_fig(
        "fig2",
        "Figure 2: naive combination vs StaticBest",
        "combination",
        &[],
        &["ocp-only", "prefetchers-only", "naive"],
        opts,
    )
}

/// Figure 3: fraction of prefetch fills from off-chip main memory that are never used, for
/// an L1D prefetcher (IPCP) and an L2C prefetcher (Pythia).
fn fig3(opts: &RunOptions) -> ExperimentTable {
    let specs = workload_set(opts);
    let configs = [("ipcp@L1D", cd2()), ("pythia@L2C", cd1())];
    let series: Vec<_> = configs
        .iter()
        .map(|(_, config)| (config, CoordinatorKind::PrefetchersOnly))
        .collect();
    let mut table = ExperimentTable::new(
        "Figure 3: fraction of off-chip prefetch fills that are inaccurate",
        "prefetcher",
        vec!["mean".into(), "q1".into(), "median".into(), "q3".into()],
    );
    for ((label, _), runs) in configs.iter().zip(run_grid("fig3", &specs, &series, opts)) {
        let fractions = sorted(
            runs.iter()
                .map(|r| r.stats.offchip_prefetch_inaccuracy())
                .collect(),
        );
        let mean = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
        table.push_row(
            *label,
            vec![
                mean,
                quantile(&fractions, 0.25),
                quantile(&fractions, 0.5),
                quantile(&fractions, 0.75),
            ],
        );
    }
    table
}

/// Figure 4: prior coordination policies (HPAC, MAB) against Naive and StaticBest in CD1.
fn fig4(opts: &RunOptions) -> ExperimentTable {
    static_best_fig(
        "fig4",
        "Figure 4: prior coordination policies vs Naive and StaticBest (CD1)",
        "policy",
        &[
            ("hpac", CoordinatorKind::Hpac),
            ("mab", CoordinatorKind::Mab),
        ],
        &["naive", "hpac", "mab"],
        opts,
    )
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

/// Figure 7: speedup in cache design 1 (OCP + Pythia at L2C).
fn fig7(opts: &RunOptions) -> ExperimentTable {
    let sweep = Sweep::run("fig7", &cd1(), &cache_design_policies(false), opts);
    sweep.table(
        "Figure 7: speedup in CD1 (POPET + Pythia@L2C)",
        "policy",
        &CATEGORIES,
        sweep.speedup_rows(),
    )
}

/// Figure 8(a): workload-category quartile statistics in CD1.
fn fig8a(opts: &RunOptions) -> ExperimentTable {
    let sweep = Sweep::run("fig8a", &cd1(), &cache_design_policies(false), opts);
    let mut table = ExperimentTable::new(
        "Figure 8a: per-category speedup quartiles in CD1",
        "policy",
        ["adverse", "friendly", "overall"]
            .iter()
            .flat_map(|class| [format!("{class}-q1"), format!("{class}-q3")])
            .collect(),
    );
    for (name, speedups) in sweep.speedup_rows() {
        let row = CLASSES
            .iter()
            .flat_map(|&slice| {
                let values = sorted(sweep.indices(slice).iter().map(|&i| speedups[i]).collect());
                [quantile(&values, 0.25), quantile(&values, 0.75)]
            })
            .collect();
        table.push_row(name, row);
    }
    table
}

/// Figure 8(b): Athena against the StaticBest oracle in CD1.
fn fig8b(opts: &RunOptions) -> ExperimentTable {
    static_best_fig(
        "fig8b",
        "Figure 8b: Athena vs StaticBest (CD1)",
        "policy",
        &[
            ("hpac", CoordinatorKind::Hpac),
            ("mab", CoordinatorKind::Mab),
            ("athena", CoordinatorKind::Athena),
        ],
        &["naive", "hpac", "mab", "athena"],
        opts,
    )
}

/// Figure 9: speedup in cache design 2 (OCP + IPCP at L1D), including TLP.
fn fig9(opts: &RunOptions) -> ExperimentTable {
    let sweep = Sweep::run("fig9", &cd2(), &cache_design_policies(true), opts);
    sweep.table(
        "Figure 9: speedup in CD2 (POPET + IPCP@L1D)",
        "policy",
        &CATEGORIES,
        sweep.speedup_rows(),
    )
}

/// Figure 10: speedup in cache design 3 (OCP + SMS and Pythia at L2C).
fn fig10(opts: &RunOptions) -> ExperimentTable {
    let sweep = Sweep::run(
        "fig10",
        &SystemConfig::cd3(PrefetcherKind::Sms, PrefetcherKind::Pythia, OcpKind::Popet),
        &cache_design_policies(false),
        opts,
    );
    sweep.table(
        "Figure 10: speedup in CD3 (POPET + SMS+Pythia@L2C)",
        "policy",
        &CATEGORIES,
        sweep.speedup_rows(),
    )
}

/// Figure 11: speedup in cache design 4 (OCP + IPCP at L1D + Pythia at L2C), including TLP.
fn fig11(opts: &RunOptions) -> ExperimentTable {
    let sweep = Sweep::run("fig11", &cd4(), &cache_design_policies(true), opts);
    sweep.table(
        "Figure 11: speedup in CD4 (POPET + IPCP@L1D + Pythia@L2C)",
        "policy",
        &CATEGORIES,
        sweep.speedup_rows(),
    )
}

// ---------------------------------------------------------------------------------------
// Sensitivity studies
// ---------------------------------------------------------------------------------------

/// One sweep per configuration, in order; each column is one configuration's overall
/// geomean speedup of each `rows` policy.
fn overall_sweep_table(
    experiment: &str,
    title: &str,
    configs: Vec<(String, SystemConfig)>,
    policies: &[(&str, CoordinatorKind)],
    rows: &[&str],
    opts: &RunOptions,
) -> ExperimentTable {
    let columns: Vec<Vec<f64>> = configs
        .iter()
        .map(|(_, config)| {
            let sweep = Sweep::run(experiment, config, policies, opts);
            rows.iter().map(|p| geomean(&sweep.speedups(p))).collect()
        })
        .collect();
    let mut table = ExperimentTable::new(
        title,
        "policy",
        configs.into_iter().map(|(name, _)| name).collect(),
    );
    for (r, policy) in rows.iter().enumerate() {
        table.push_row(*policy, columns.iter().map(|column| column[r]).collect());
    }
    table
}

/// Figure 12(a): sensitivity to the L2C prefetcher type in CD1.
fn fig12a(opts: &RunOptions) -> ExperimentTable {
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
fn fig12b(opts: &RunOptions) -> ExperimentTable {
    let configs = [OcpKind::Popet, OcpKind::Hmp, OcpKind::Ttp]
        .iter()
        .map(|&ocp| {
            (
                ocp.name().to_string(),
                SystemConfig::cd1(PrefetcherKind::Pythia, ocp),
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
fn fig12c(opts: &RunOptions) -> ExperimentTable {
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
fn fig13(opts: &RunOptions) -> ExperimentTable {
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
fn fig14(opts: &RunOptions) -> ExperimentTable {
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

/// Seed of the multi-core mix lists fig15/fig16 draw.
const MIX_SEED: u64 = 0x5eed;

/// Mixes per category at full scale (the paper uses 30; a workload limit scales down).
const FULL_MIXES_PER_CATEGORY: usize = 10;

/// Mixes per category: [`FULL_MIXES_PER_CATEGORY`], scaled down by a workload limit so
/// quick runs stay quick, never up.
fn mixes_per_category(opts: &RunOptions) -> usize {
    opts.workload_limit
        .map_or(FULL_MIXES_PER_CATEGORY, |limit| {
            (limit / 3).clamp(1, FULL_MIXES_PER_CATEGORY)
        })
}

fn multicore_fig(
    experiment: &str,
    title: &str,
    cores: usize,
    opts: &RunOptions,
) -> ExperimentTable {
    let mix_list = mixes(cores, mixes_per_category(opts), MIX_SEED);
    let config = cd1();
    let policies = cache_design_policies(false);
    // Each column's mix category; `None` is every mix.
    let columns = [
        ("adverse-mix", Some(MixCategory::PrefetcherAdverse)),
        ("friendly-mix", Some(MixCategory::PrefetcherFriendly)),
        ("random-mix", Some(MixCategory::Random)),
        ("overall", None),
    ];
    let mut table = ExperimentTable::new(
        title,
        "policy",
        columns.iter().map(|(name, _)| name.to_string()).collect(),
    );
    let instructions = opts.instructions / 2;

    // One engine batch: the per-mix baselines followed by every (policy × mix) cell.
    let jobs = [CoordinatorKind::Baseline]
        .iter()
        .chain(policies.iter().map(|(_, kind)| kind))
        .flat_map(|kind| {
            mix_list.iter().map(|m| {
                Job::multicore(
                    experiment,
                    m.clone(),
                    config.clone(),
                    kind.clone(),
                    instructions,
                )
            })
        })
        .collect();
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
        let row = columns
            .iter()
            .map(|(_, category)| {
                let values: Vec<f64> = speedups
                    .iter()
                    .filter(|(cat, _)| category.is_none_or(|c| c == *cat))
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
fn fig15(opts: &RunOptions) -> ExperimentTable {
    multicore_fig("fig15", "Figure 15: four-core mixes (CD1)", 4, opts)
}

/// Figure 16: eight-core workload mixes in CD1.
fn fig16(opts: &RunOptions) -> ExperimentTable {
    multicore_fig("fig16", "Figure 16: eight-core mixes (CD1)", 8, opts)
}

// ---------------------------------------------------------------------------------------
// Understanding Athena
// ---------------------------------------------------------------------------------------

/// Figure 17: case study of Athena's action distribution and the static combinations on one
/// phase-alternating CVP workload, at 3.2 GB/s and 25.6 GB/s.
fn fig17(opts: &RunOptions) -> ExperimentTable {
    let spec = all_workloads()
        .into_iter()
        .find(|w| w.name == "cvp-compute_fp_17")
        .expect("case-study workload exists");
    let rows = [
        "action: enable-none %",
        "action: enable-ocp %",
        "action: enable-prefetcher %",
        "action: enable-both %",
        "speedup: ocp-alone",
        "speedup: prefetcher-alone",
        "speedup: naive",
        "speedup: athena",
    ];
    // Both bandwidth points and all five policies as one ten-cell grid.
    let configs = [cd1().with_bandwidth(3.2), cd1().with_bandwidth(25.6)];
    let kinds = [
        CoordinatorKind::Baseline,
        CoordinatorKind::OcpOnly,
        CoordinatorKind::PrefetchersOnly,
        CoordinatorKind::Naive,
        CoordinatorKind::Athena,
    ];
    let series: Vec<_> = configs
        .iter()
        .flat_map(|config| kinds.iter().map(move |kind| (config, kind.clone())))
        .collect();
    let runs: Vec<RunResult> = run_grid("fig17", &[spec], &series, opts)
        .into_iter()
        .flatten()
        .collect();
    // Per bandwidth point: Athena's action shares, then each policy's speedup.
    let columns: Vec<Vec<f64>> = runs
        .chunks(kinds.len())
        .map(|cells| {
            let (base, athena) = (&cells[0], &cells[4]);
            // Reconstruct the action distribution from epoch telemetry: which mechanisms
            // were active in each epoch.
            let mut counts = [0u64; 4];
            for e in &athena.epochs {
                let ocp_on = usize::from(e.ocp_predictions > 0);
                let pf_on = usize::from(e.prefetches_issued > 0);
                counts[ocp_on + 2 * pf_on] += 1;
            }
            let total = counts.iter().sum::<u64>().max(1) as f64;
            let shares = counts.iter().map(|&c| 100.0 * c as f64 / total);
            shares
                .chain(cells[1..].iter().map(|run| run.ipc / base.ipc))
                .collect()
        })
        .collect();
    let mut table = ExperimentTable::new(
        "Figure 17: case study (cvp-compute_fp_17): Athena action distribution and static combos",
        "quantity",
        vec!["3.2GB/s".into(), "25.6GB/s".into()],
    );
    for (r, label) in rows.iter().enumerate() {
        table.push_row(*label, columns.iter().map(|column| column[r]).collect());
    }
    table
}

/// Figure 18: ablation study — stateless Athena, progressively adding state features, then
/// the uncorrelated reward component.
fn fig18(opts: &RunOptions) -> ExperimentTable {
    let features = [
        ("+prefetcher-accuracy", Feature::PrefetcherAccuracy),
        ("+ocp-accuracy", Feature::OcpAccuracy),
        ("+bandwidth-usage", Feature::BandwidthUsage),
        ("+cache-pollution", Feature::CachePollution),
    ];
    // Each step adds one more feature to the stateless agent's prior-work-style reward.
    let mut steps = vec![
        ("mab", CoordinatorKind::Mab),
        (
            "stateless-athena",
            CoordinatorKind::AthenaWith(athena_step(vec![])),
        ),
    ];
    for n in 1..=features.len() {
        let state = features[..n].iter().map(|(_, feature)| *feature).collect();
        steps.push((
            features[n - 1].0,
            CoordinatorKind::AthenaWith(athena_step(state)),
        ));
    }
    steps.push(("athena (+uncorrelated reward)", CoordinatorKind::Athena));
    let sweep = Sweep::run("fig18", &cd1(), &steps, opts);
    sweep.table(
        "Figure 18: contribution of state features and the composite reward (CD1, overall geomean)",
        "configuration",
        &[Slice::Overall],
        sweep.speedup_rows(),
    )
}

/// The default agent with state `features` and a prior-work-style reward: no uncorrelated
/// component, and the IPC (cycle) change only.
fn athena_step(features: Vec<Feature>) -> AthenaConfig {
    default_athena_config()
        .with_features(features)
        .with_uncorrelated_reward(false)
        .with_reward_weights(RewardWeights {
            lambda_cycle: 1.6,
            lambda_llc_misses: 0.0,
            lambda_llc_miss_latency: 0.0,
            lambda_loads: 0.0,
            lambda_mispredicted_branches: 0.0,
        })
}

/// Figure 19: Athena managing two L2C prefetchers without an OCP (generalisability study).
fn fig19(opts: &RunOptions) -> ExperimentTable {
    let sweep = Sweep::run(
        "fig19",
        &SystemConfig::prefetchers_only(PrefetcherKind::Sms, PrefetcherKind::Pythia),
        &[
            ("prefetchers-only", CoordinatorKind::PrefetchersOnly),
            ("hpac", CoordinatorKind::Hpac),
            ("mab", CoordinatorKind::Mab),
            ("athena", CoordinatorKind::Athena),
        ],
        opts,
    );
    sweep.table(
        "Figure 19: prefetcher-only management (SMS+Pythia@L2C, no OCP)",
        "policy",
        &CATEGORIES,
        sweep.speedup_rows(),
    )
}

// ---------------------------------------------------------------------------------------
// Extended results (Appendix B)
// ---------------------------------------------------------------------------------------

/// Figure 20(a): main-memory requests, normalised to the baseline, per policy (CD1).
fn fig20a(opts: &RunOptions) -> ExperimentTable {
    normalised_stat_fig(
        "fig20a",
        "Figure 20a: main-memory requests normalised to no-prefetching/no-OCP (CD1)",
        opts,
        |r| r.stats.dram_total_requests as f64,
    )
}

/// Figure 20(b): average LLC miss latency, normalised to the baseline, per policy (CD1).
fn fig20b(opts: &RunOptions) -> ExperimentTable {
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
    let rows = sweep
        .policies
        .iter()
        .map(|(name, runs)| {
            let ratios = runs
                .iter()
                .zip(&sweep.baseline)
                .map(|(run, base)| stat(run) / stat(base).max(1e-12))
                .collect();
            (name.clone(), ratios)
        })
        .collect();
    sweep.table(title, "policy", &CLASSES, rows)
}

/// Figure 21: unseen (Google-warehouse-style) workloads in CD4.
fn fig21(opts: &RunOptions) -> ExperimentTable {
    let mut specs = google_like_workloads();
    if let Some(limit) = opts.workload_limit {
        specs.truncate(limit.max(3));
    }
    let sweep = Sweep::run_on("fig21", specs, &cd4(), &cache_design_policies(true), opts);
    sweep.table(
        "Figure 21: unseen Google-like workloads (CD4)",
        "policy",
        &[Slice::Overall],
        sweep.speedup_rows(),
    )
}

// ---------------------------------------------------------------------------------------
// Design-space exploration and storage (Tables 3 and 4)
// ---------------------------------------------------------------------------------------

/// Table 3 (reduced): grid search over SARSA hyperparameters on the 20 held-out tuning
/// workloads. The grid is coarser than the paper's (which sweeps in steps of 0.1) so the
/// experiment completes in minutes; the selected point is reported per row.
fn tab3_dse(opts: &RunOptions) -> ExperimentTable {
    let specs = tuning_set(opts);
    let config = cd1();
    let grid = [
        (0.2, 0.3),
        (0.2, 0.6),
        (0.6, 0.3),
        (0.6, 0.6),
        (0.6, 0.9),
        (0.9, 0.6),
    ];
    // One grid: the shared baselines plus every grid point's runs.
    let mut series = vec![(&config, CoordinatorKind::Baseline)];
    for (alpha, gamma) in grid {
        let cfg = default_athena_config().with_hyperparameters(alpha, gamma, 0.05, 0.12);
        series.push((&config, CoordinatorKind::AthenaWith(cfg)));
    }
    let mut results = run_grid("tab3", &specs, &series, opts).into_iter();
    let baseline = results.next().expect("baseline series");
    let mut table = ExperimentTable::new(
        "Table 3 (reduced grid): hyperparameter search on the tuning workloads",
        "configuration",
        vec!["overall".into()],
    );
    for ((alpha, gamma), runs) in grid.iter().zip(results) {
        let speedups: Vec<f64> = runs
            .iter()
            .zip(&baseline)
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
fn tab4_storage(_opts: &RunOptions) -> ExperimentTable {
    let overhead = AthenaConfig::default().storage_overhead();
    let mut table = ExperimentTable::new(
        "Table 4: storage overhead of Athena (bytes per core)",
        "structure",
        vec!["bytes".into()],
    );
    let rows = [
        ("qvstore", overhead.qvstore_bytes),
        ("accuracy-tracker", overhead.accuracy_tracker_bytes),
        ("pollution-tracker", overhead.pollution_tracker_bytes),
        ("total", overhead.total_bytes()),
    ];
    for (label, bytes) in rows {
        table.push_row(label, vec![bytes as f64]);
    }
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
fn tuned(opts: &RunOptions) -> ExperimentTable {
    let path = opts
        .tuned_config
        .as_ref()
        .expect("the 'tuned' experiment needs a configuration file (--tuned-config)");
    let cfg = athena_tune::load_config(path).unwrap_or_else(|e| panic!("{e}"));
    let specs = tuning_set(opts);
    let config = cd1();
    let series = [
        (&config, CoordinatorKind::PrefetchersOnly),
        (&config, CoordinatorKind::AthenaWith(cfg)),
    ];
    let mut results = run_grid("tuned", &specs, &series, opts).into_iter();
    let baselines = results.next().expect("baseline series");
    let runs = results.next().expect("tuned series");

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

/// One experiment: a table computed from the run options.
type Experiment = fn(&RunOptions) -> ExperimentTable;

/// Every experiment `--all` runs, keyed by the identifier the `figures` CLI accepts.
const EXPERIMENTS: [(&str, Experiment); 25] = [
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig7", fig7),
    ("fig8a", fig8a),
    ("fig8b", fig8b),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12a", fig12a),
    ("fig12b", fig12b),
    ("fig12c", fig12c),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("fig19", fig19),
    ("fig20a", fig20a),
    ("fig20b", fig20b),
    ("fig21", fig21),
    ("tab3", tab3_dse),
    ("tab4", tab4_storage),
];

/// Every experiment, keyed by the identifier the `figures` CLI accepts.
///
/// The `tuned` experiment is deliberately absent: it needs a configuration file
/// ([`RunOptions::tuned_config`]), so `--all` must not select it implicitly. It is still
/// dispatched by [`run_experiment`] when asked for by name.
pub fn experiment_names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(name, _)| *name).collect()
}

/// Runs the experiment with the given identifier.
///
/// Returns `None` if the identifier is unknown. Identifiers are those listed by
/// [`experiment_names`], plus `tuned` (which additionally needs
/// [`RunOptions::tuned_config`]).
pub fn run_experiment(name: &str, opts: &RunOptions) -> Option<ExperimentTable> {
    if name == "tuned" {
        return Some(tuned(opts));
    }
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, experiment)| experiment(opts))
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
        let names = experiment_names();
        assert_eq!(names.len(), EXPERIMENTS.len());
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "'{name}' is registered twice");
        }
        // Only run the cheap one here; existence is checked for all.
        assert!(run_experiment("tab4", &tiny()).is_some());
        assert!(run_experiment("nonexistent", &tiny()).is_none());
    }

    #[test]
    fn static_best_is_at_least_naive() {
        let sweep = Sweep::run("test", &cd1(), &static_combo_policies(), &tiny());
        let naive = geomean(&sweep.speedups("naive"));
        let best = geomean(&sweep.static_best());
        assert!(best >= naive - 1e-9);
        assert!(best >= 1.0 - 1e-9);
    }

    #[test]
    fn a_workload_limit_interleaves_and_stops_at_the_suite_size() {
        let mut opts = tiny();
        let set = workload_set(&opts);
        let friendly: Vec<bool> = set.iter().map(|w| w.designed_friendly).collect();
        assert_eq!(friendly, [true, false, true, false]);
        opts.workload_limit = Some(all_workloads().len() + 1);
        assert_eq!(workload_set(&opts).len(), all_workloads().len());
    }

    #[test]
    fn a_workload_limit_only_scales_the_mix_count_down() {
        let mut opts = tiny();
        for (limit, mixes) in [
            (None, 10),
            (Some(100), 10),
            (Some(33), 10),
            (Some(12), 4),
            (Some(8), 2),
            (Some(1), 1),
        ] {
            opts.workload_limit = limit;
            assert_eq!(mixes_per_category(&opts), mixes, "limit {limit:?}");
        }
    }

    #[test]
    fn quantiles_read_by_truncated_rank() {
        let values = sorted(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(quantile(&values, 0.25), 2.0);
        assert_eq!(quantile(&values, 0.5), 3.0);
        assert_eq!(quantile(&values, 0.75), 4.0);
        assert_eq!(quantile(&[], 0.5), 1.0);
    }
}
