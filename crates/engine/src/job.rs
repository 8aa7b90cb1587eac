//! The [`Job`] abstraction: one simulation cell, as plain data.
//!
//! A job bundles everything one cell of an experiment grid needs — a workload reference
//! ([`WorkloadRef`]: a generated workload, a multi-core mix, or an on-disk trace file), a
//! [`SystemConfig`], a [`CoordinatorKind`] and an instruction budget — plus a deterministic
//! seed derived from that identity (see [`crate::seed`]). Because the job is a pure value
//! and [`Job::run`] builds every mechanism from scratch, a job's result depends only on the
//! job itself: never on which worker ran it, in what order, or what else was in the batch.
//!
//! File-backed cells ([`WorkloadRef::File`]) carry the workload *name* separately from the
//! trace path, and only the name participates in seeding and labelling. A recorded trace
//! replayed under the name of the workload that produced it therefore derives the same
//! seed, the same label and — because the recorded records are the generator's records —
//! the same result as the generated cell, byte for byte.

use std::path::{Path, PathBuf};

use athena_sim::{
    Coordinator, MultiCoreResult, MultiCoreSimulator, OffChipPredictor, Prefetcher, Simulator,
    TraceSource,
};
use athena_telemetry::Timeline;
use athena_trace_io::open_trace;
use athena_workloads::{WorkloadMix, WorkloadSpec};

use crate::fingerprint;
use crate::kinds::{CoordinatorKind, SystemConfig};
use crate::seed::SeedHasher;

/// One core's prefetchers, off-chip predictor and coordinator (see `Job::mechanisms`).
type Mechanisms = (
    Vec<Box<dyn Prefetcher>>,
    Option<Box<dyn OffChipPredictor>>,
    Box<dyn Coordinator>,
);

/// Opt-in request for windowed time-series telemetry on a [`Job`].
///
/// Telemetry is pure observation: it never feeds back into the simulation, so it is
/// deliberately **excluded from seed derivation** — running the same cell with and without
/// a timeline (or with different window lengths) yields the same simulation result, and
/// the timeline itself is a pure function of the cell. The one cost it enables is the
/// per-epoch agent snapshot (a QVStore pass), which is why it is off by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Window length in instructions (windows round up to whole coordination epochs).
    pub window_instructions: u64,
}

/// The workload side of a cell: a generated workload, a multi-core mix, or an on-disk
/// trace file.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadRef {
    /// A single-core run of one generated workload.
    Single(WorkloadSpec),
    /// A multi-core run of one mix (one workload per core, shared DRAM channel).
    Multi(WorkloadMix),
    /// A single-core run replayed from an on-disk trace (see `athena-trace-io`).
    File(FileWorkload),
}

/// An on-disk trace standing in for a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FileWorkload {
    /// The workload name used for seeding and labels. For a recorded trace this is the
    /// name of the workload that produced it, which makes the file-backed cell's identity
    /// — and therefore its derived seed and its place in report tables — identical to the
    /// generated cell's.
    pub name: String,
    /// Path of the binary `.trace` file (see `athena-trace-io`).
    pub path: PathBuf,
}

impl WorkloadRef {
    /// The workload or mix name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadRef::Single(spec) => &spec.name,
            WorkloadRef::Multi(mix) => &mix.name,
            WorkloadRef::File(file) => &file.name,
        }
    }
}

/// One simulation cell of an experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The experiment this cell belongs to (e.g. `"fig7"`).
    pub experiment: String,
    /// The workload, mix, or trace file to run.
    pub cell: WorkloadRef,
    /// The system configuration (cache design, mechanisms, simulator knobs).
    pub config: SystemConfig,
    /// The coordination policy.
    pub coordinator: CoordinatorKind,
    /// Instruction budget (per core, for multi-core cells).
    pub instructions: u64,
    /// Seed derived from the cell identity; see [`crate::seed`].
    pub seed: u64,
    /// Windowed-telemetry request, if any (see [`TelemetrySpec`]). Not part of the cell
    /// identity: observability must never change what a cell computes.
    pub telemetry: Option<TelemetrySpec>,
}

impl Job {
    /// Creates a single-core job and derives its seed.
    pub fn single(
        experiment: &str,
        spec: WorkloadSpec,
        config: SystemConfig,
        coordinator: CoordinatorKind,
        instructions: u64,
    ) -> Self {
        Self::build(
            experiment,
            WorkloadRef::Single(spec),
            config,
            coordinator,
            instructions,
        )
    }

    /// Creates a multi-core job (one workload per core) and derives its seed.
    pub fn multicore(
        experiment: &str,
        mix: WorkloadMix,
        config: SystemConfig,
        coordinator: CoordinatorKind,
        instructions_per_core: u64,
    ) -> Self {
        Self::build(
            experiment,
            WorkloadRef::Multi(mix),
            config,
            coordinator,
            instructions_per_core,
        )
    }

    /// Creates a single-core job replaying an on-disk trace, and derives its seed.
    ///
    /// `name` is the workload name the cell answers to; with the name of the workload the
    /// trace was recorded from, the job's seed and label are identical to the generated
    /// cell's (see the module docs). The file itself is only opened inside [`Job::run`],
    /// so a missing or corrupt trace fails that cell alone when the batch executes.
    pub fn from_file(
        experiment: &str,
        name: impl Into<String>,
        path: impl Into<PathBuf>,
        config: SystemConfig,
        coordinator: CoordinatorKind,
        instructions: u64,
    ) -> Self {
        Self::build(
            experiment,
            WorkloadRef::File(FileWorkload {
                name: name.into(),
                path: path.into(),
            }),
            config,
            coordinator,
            instructions,
        )
    }

    /// Creates a single-core job for `spec` that replays `<trace_dir>/<name>.trace`
    /// ([`Job::from_file`]) when `trace_dir` holds that file, and generates the trace
    /// in-process ([`Job::single`]) otherwise. Either way the cell has the same seed and
    /// label. The harness experiments and the tuner build every single-core cell here.
    pub fn single_or_replay(
        experiment: &str,
        spec: &WorkloadSpec,
        trace_dir: Option<&Path>,
        config: SystemConfig,
        coordinator: CoordinatorKind,
        instructions: u64,
    ) -> Self {
        let recorded = trace_dir.map(|dir| dir.join(format!("{}.trace", spec.name)));
        match recorded.filter(|path| path.is_file()) {
            Some(path) => Self::from_file(
                experiment,
                &spec.name,
                path,
                config,
                coordinator,
                instructions,
            ),
            None => Self::single(experiment, spec.clone(), config, coordinator, instructions),
        }
    }

    fn build(
        experiment: &str,
        cell: WorkloadRef,
        config: SystemConfig,
        coordinator: CoordinatorKind,
        instructions: u64,
    ) -> Self {
        let mut job = Self {
            experiment: experiment.to_string(),
            cell,
            config,
            coordinator,
            instructions,
            seed: 0,
            telemetry: None,
        };
        job.seed = job.identity_hash();
        job
    }

    /// Returns a copy of this job running an explicit Athena configuration
    /// ([`CoordinatorKind::AthenaWith`]) in place of its coordinator, with the seed
    /// re-derived for the new identity. This is the design-space explorer's primitive: one
    /// template job per workload, overridden once per candidate configuration, so every
    /// candidate cell inherits the template's workload reference (including trace-file
    /// substitution) without re-running the enumeration logic.
    pub fn with_athena_config(mut self, config: athena_core::AthenaConfig) -> Self {
        self.coordinator = CoordinatorKind::AthenaWith(config);
        self.seed = self.identity_hash();
        self
    }

    /// Returns a copy that collects a windowed timeline with the given window length
    /// (see [`TelemetrySpec`]; the seed is untouched on purpose).
    pub fn with_telemetry(mut self, window_instructions: u64) -> Self {
        self.telemetry = Some(TelemetrySpec {
            window_instructions,
        });
        self
    }

    /// The canonical identity hash of this cell — the 64-bit key under which its result
    /// is seeded, cached and compared.
    ///
    /// The hash covers exactly the facets that determine *what the cell computes*: the
    /// experiment name, the workload/mix/trace-file *name* (never a trace file's path —
    /// replaying a recorded trace from any directory keeps the generated cell's
    /// identity), the per-workload names of a multi-core mix, the full
    /// [`SystemConfig`] (via its own canonical `hash_into`), the coordinator name (plus
    /// both flags of a [`CoordinatorKind::Fixed`] combination and the `Debug` rendering of
    /// an explicit [`CoordinatorKind::AthenaWith`] configuration, so every hyperparameter
    /// distinguishes DSE grid points), and the instruction budget. It deliberately
    /// excludes scheduling state (worker count, submission order) and [`Job::telemetry`] —
    /// that changes how the result is *observed*, not which cell it is; the result store
    /// keys records by `(identity_hash, variant)` where the variant covers the telemetry
    /// request.
    ///
    /// # Stability contract
    ///
    /// The derivation — [`athena_store::hash64`] over length-delimited parts, finished
    /// with one SplitMix64 round (see [`crate::seed::SeedHasher`]) — is a persistence
    /// format: on-disk result stores key records by this value, and `tests/identity.rs`
    /// pins known hash values so any drift fails CI. Changing the hashed facets, their
    /// order, or the hash itself invalidates every existing store and requires bumping the
    /// store's `FORMAT_VERSION` (now 2) together with the pinned test constants.
    pub fn identity_hash(&self) -> u64 {
        let mut h = SeedHasher::new();
        h.write_str(&self.experiment);
        self.hash_cell_into(&mut h);
        h.finish()
    }

    /// Feeds every facet of [`Job::identity_hash`] after the experiment name into `h`:
    /// what the cell computes, whichever experiment asked for it. The per-run cell memo
    /// ([`crate::CellMemo`]) keys shared cells by these facets.
    pub(crate) fn hash_cell_into(&self, h: &mut SeedHasher) {
        h.write_str(self.cell.name());
        if let WorkloadRef::Multi(mix) = &self.cell {
            for w in &mix.workloads {
                h.write_str(&w.name);
            }
        }
        self.config.hash_into(h);
        h.write_str(self.coordinator.name());
        match &self.coordinator {
            CoordinatorKind::Fixed { ocp, prefetchers } => {
                h.write_u64(u64::from(*ocp) | u64::from(*prefetchers) << 1);
            }
            CoordinatorKind::AthenaWith(cfg) => fingerprint::write_athena_config(h, cfg),
            _ => {}
        }
        h.write_u64(self.instructions);
    }

    /// A short human-readable cell label for reports, e.g.
    /// `"410.bwaves-1963B/athena/<popet, pythia>"`. Explicit Athena configurations carry
    /// their hyperparameters (`athena*(a0.2,g0.6,…)`), so DSE grid points and ablation
    /// steps stay distinguishable in per-cell records.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.cell.name(),
            self.coordinator.describe(),
            self.config.describe()
        )
    }

    /// Builds one core's mechanisms for this cell, fresh: its prefetchers, its OCP and its
    /// coordinator. Every cell shape equips its cores from here.
    fn mechanisms(&self) -> Mechanisms {
        (
            self.config.prefetchers.iter().map(|p| p.build()).collect(),
            self.config.ocp.as_ref().map(|o| o.build()),
            self.coordinator.build(),
        )
    }

    /// Runs a single-core cell on `trace`, windowing a timeline if the job asked for one.
    fn run_single<T: TraceSource>(&self, workload: &str, trace: T) -> JobOutput {
        let (prefetchers, ocp, coordinator) = self.mechanisms();
        let mut sim = Simulator::new(self.config.sim.clone());
        if self.telemetry.is_some() {
            sim = sim.with_agent_telemetry();
        }
        for p in prefetchers {
            sim = sim.with_prefetcher(p);
        }
        if let Some(ocp) = ocp {
            sim = sim.with_ocp(ocp);
        }
        let result = sim
            .with_coordinator(coordinator)
            .run(trace, self.instructions);
        let timeline = self.telemetry.map(|t| {
            Timeline::from_epochs(t.window_instructions, &result.epochs, &result.agent_epochs)
        });
        JobOutput::Single(Box::new(RunResult {
            workload: workload.to_string(),
            instructions: result.instructions,
            cycles: result.cycles,
            ipc: result.ipc(),
            stats: result.stats,
            dram: result.dram,
            epochs: result.epochs,
            timeline,
        }))
    }

    /// Runs the cell to completion and returns its result.
    ///
    /// Pure with respect to scheduling: every mechanism is constructed fresh from the job's
    /// own data, so calling this from any thread, any number of times, yields the same
    /// result.
    ///
    /// # Panics
    ///
    /// A file-backed cell panics if its trace cannot be opened, is corrupt, or holds
    /// fewer records than the job's instruction budget (the simulator would otherwise
    /// stop at the end of the file and silently produce a shorter — different — result).
    /// Inside [`crate::Engine::run`] the panic is caught per cell: one bad trace file
    /// fails exactly one cell and the rest of the batch completes.
    pub fn run(&self) -> JobOutput {
        match &self.cell {
            WorkloadRef::Single(spec) => self.run_single(&spec.name, spec.trace()),
            WorkloadRef::File(file) => {
                let trace = open_trace(&file.path).unwrap_or_else(|e| {
                    panic!("cannot replay trace '{}': {e}", file.path.display())
                });
                // Reject a too-short trace before simulating: the simulator would treat the
                // end of the file as a clean end of trace. A stream cut short of the
                // header's count panics inside the reader.
                assert!(
                    trace.header().records >= self.instructions,
                    "trace '{}' holds {} records but the cell budget is {} instructions",
                    file.path.display(),
                    trace.header().records,
                    self.instructions
                );
                self.run_single(&file.name, trace)
            }
            WorkloadRef::Multi(mix) => {
                let mut mc = MultiCoreSimulator::new(self.config.sim.clone(), mix.workloads.len());
                if self.telemetry.is_some() {
                    // Multi-core cells collect per-core agent snapshots; their per-core
                    // timelines are derived by the caller from each core's SimResult.
                    mc = mc.with_agent_telemetry();
                }
                for spec in &mix.workloads {
                    let (prefetchers, ocp, coordinator) = self.mechanisms();
                    mc.add_core(Box::new(spec.trace()), prefetchers, ocp, Some(coordinator));
                }
                JobOutput::Multi(mc.run(self.instructions))
            }
        }
    }
}

/// The result of one job: single-core or multi-core, matching the job's [`WorkloadRef`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Result of a single-core cell (boxed: the inline stats block is large).
    Single(Box<RunResult>),
    /// Result of a multi-core cell.
    Multi(MultiCoreResult),
}

/// The result of one single-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles taken.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Whole-run simulator statistics.
    pub stats: athena_sim::SimStats,
    /// End-of-run DRAM-channel statistics (per-kind request counts, row-buffer behaviour,
    /// bus occupancy). Tuning objectives use these to penalise bandwidth-hungry
    /// configurations; the per-cell JSON records carry them too.
    pub dram: athena_sim::DramStats,
    /// Per-epoch telemetry (kept for phase-level analyses).
    pub epochs: Vec<athena_sim::EpochStats>,
    /// The windowed time series, present when the job requested telemetry
    /// ([`Job::with_telemetry`]).
    pub timeline: Option<Timeline>,
}

/// Runs one workload on one system configuration under one coordination policy.
///
/// This is the serial single-cell entry point the engine's jobs are built on; it behaves
/// exactly like a [`Job::single`] run.
pub fn simulate(
    spec: &WorkloadSpec,
    config: &SystemConfig,
    coordinator: CoordinatorKind,
    instructions: u64,
) -> RunResult {
    let job = Job::single(
        "adhoc",
        spec.clone(),
        config.clone(),
        coordinator,
        instructions,
    );
    match job.run() {
        JobOutput::Single(r) => *r,
        JobOutput::Multi(_) => unreachable!("single job yields a single result"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::{OcpKind, PrefetcherKind};
    use athena_workloads::all_workloads;

    fn cd1() -> SystemConfig {
        SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet)
    }

    #[test]
    fn baseline_run_produces_no_speculative_traffic() {
        let spec = &all_workloads()[0];
        let r = simulate(spec, &cd1(), CoordinatorKind::Baseline, 20_000);
        assert_eq!(r.stats.prefetches_issued, 0);
        assert_eq!(r.stats.ocp_predictions, 0);
        assert!(r.ipc > 0.0);
    }

    #[test]
    fn naive_run_produces_speculative_traffic() {
        let spec = &all_workloads()[0];
        let r = simulate(spec, &cd1(), CoordinatorKind::Naive, 20_000);
        assert!(r.stats.prefetches_issued > 0);
        assert!(r.stats.ocp_predictions > 0);
    }

    #[test]
    fn job_seed_depends_on_identity_not_construction_order() {
        let spec = all_workloads()[0].clone();
        let a = Job::single("fig7", spec.clone(), cd1(), CoordinatorKind::Athena, 10_000);
        let b = Job::single("fig7", spec.clone(), cd1(), CoordinatorKind::Athena, 10_000);
        assert_eq!(a.seed, b.seed);
        let c = Job::single("fig9", spec.clone(), cd1(), CoordinatorKind::Athena, 10_000);
        assert_ne!(a.seed, c.seed);
        let d = Job::single("fig7", spec.clone(), cd1(), CoordinatorKind::Mab, 10_000);
        assert_ne!(a.seed, d.seed);
        let e = Job::single(
            "fig7",
            spec,
            cd1().with_bandwidth(1.6),
            CoordinatorKind::Athena,
            10_000,
        );
        assert_ne!(a.seed, e.seed);
    }

    #[test]
    fn config_override_re_derives_the_seed_and_keeps_the_cell() {
        let spec = all_workloads()[0].clone();
        let template = Job::single("dse", spec, cd1(), CoordinatorKind::PrefetchersOnly, 10_000);
        let cfg = crate::kinds::default_athena_config().with_hyperparameters(0.3, 0.6, 0.05, 0.12);
        let overridden = template.clone().with_athena_config(cfg.clone());
        assert_eq!(overridden.cell, template.cell);
        assert_eq!(
            overridden.coordinator,
            CoordinatorKind::AthenaWith(cfg.clone())
        );
        assert_ne!(
            overridden.seed, template.seed,
            "a different coordinator is a different identity"
        );
        // The override is equivalent to constructing the job directly.
        let direct = Job::single(
            "dse",
            all_workloads()[0].clone(),
            cd1(),
            CoordinatorKind::AthenaWith(cfg),
            10_000,
        );
        assert_eq!(overridden.seed, direct.seed);
        assert_eq!(overridden.label(), direct.label());
    }

    #[test]
    fn job_run_matches_serial_simulate() {
        let spec = all_workloads()[1].clone();
        let serial = simulate(&spec, &cd1(), CoordinatorKind::Athena, 15_000);
        let job = Job::single("fig7", spec, cd1(), CoordinatorKind::Athena, 15_000);
        match job.run() {
            JobOutput::Single(r) => assert_eq!(*r, serial),
            JobOutput::Multi(_) => panic!("single cell"),
        }
    }

    #[test]
    fn a_one_core_multicore_run_equals_a_single_core_run() {
        let configs = [
            cd1(),
            SystemConfig::cd4(PrefetcherKind::Ipcp, PrefetcherKind::Pythia, OcpKind::Popet),
        ];
        let kinds = [
            CoordinatorKind::Baseline,
            CoordinatorKind::Naive,
            CoordinatorKind::Hpac,
            CoordinatorKind::Athena,
        ];
        // The 9 000-instruction budget ends mid-quantum; the 8 700-record trace ends before
        // it, also mid-quantum and mid-batch.
        let instructions = 9_000;
        for (spec, records) in [(&all_workloads()[0], 20_000), (&all_workloads()[3], 8_700)] {
            let trace = || spec.trace().take(records);
            for config in &configs {
                for kind in &kinds {
                    let job = Job::single("t", spec.clone(), config.clone(), kind.clone(), 0);
                    let (prefetchers, ocp, coordinator) = job.mechanisms();
                    let mut single = Simulator::new(config.sim.clone()).with_agent_telemetry();
                    for p in prefetchers {
                        single = single.with_prefetcher(p);
                    }
                    if let Some(ocp) = ocp {
                        single = single.with_ocp(ocp);
                    }
                    let single = single
                        .with_coordinator(coordinator)
                        .run(trace(), instructions);

                    let mut multi =
                        MultiCoreSimulator::new(config.sim.clone(), 1).with_agent_telemetry();
                    let (prefetchers, ocp, coordinator) = job.mechanisms();
                    multi.add_core(Box::new(trace()), prefetchers, ocp, Some(coordinator));
                    let multi = multi.run(instructions);
                    assert_eq!(single.instructions, instructions.min(records as u64));
                    assert_eq!(multi.cores, [single], "{} {kind:?}", config.describe());
                }
            }
        }
    }

    #[test]
    fn file_backed_job_matches_generated_job_byte_for_byte() {
        use athena_trace_io::record_trace;

        let spec = all_workloads()[0].clone();
        let instructions = 12_000;
        let dir = std::env::temp_dir().join(format!("athena-engine-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}.trace", spec.name));
        let mut generator = spec.trace();
        record_trace(&mut generator, instructions, &path).unwrap();

        let generated = Job::single(
            "fig7",
            spec.clone(),
            cd1(),
            CoordinatorKind::Athena,
            instructions,
        );
        let replayed = Job::from_file(
            "fig7",
            &spec.name,
            &path,
            cd1(),
            CoordinatorKind::Athena,
            instructions,
        );
        // Identity: same name ⇒ same seed and same label, regardless of the path.
        assert_eq!(generated.seed, replayed.seed);
        assert_eq!(generated.label(), replayed.label());
        let elsewhere = Job::from_file(
            "fig7",
            &spec.name,
            dir.join("a/completely/different/location.trace"),
            cd1(),
            CoordinatorKind::Athena,
            instructions,
        );
        assert_eq!(
            generated.seed, elsewhere.seed,
            "path must not affect the seed"
        );
        // Results: the replayed trace is the generator's records, so the whole simulation
        // — IPC, stats, per-epoch telemetry — matches exactly.
        assert_eq!(generated.run(), replayed.run());
        std::fs::remove_file(&path).unwrap();
    }

    /// Records `records` of the first workload to `name` in a temp directory, lets `damage`
    /// rewrite the file's bytes, and returns the error of a 5 000-instruction cell that
    /// replays it through the engine.
    fn replay_error(name: &str, records: u64, damage: impl Fn(Vec<u8>) -> Vec<u8>) -> String {
        use crate::exec::Engine;
        use athena_trace_io::record_trace;

        let spec = all_workloads()[0].clone();
        let dir = std::env::temp_dir().join(format!("athena-bad-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        record_trace(&mut spec.trace(), records, &path).unwrap();
        std::fs::write(&path, damage(std::fs::read(&path).unwrap())).unwrap();
        let job = Job::from_file(
            "t",
            &spec.name,
            &path,
            cd1(),
            CoordinatorKind::Baseline,
            5_000,
        );
        let cells = Engine::new(1).run(vec![job]);
        std::fs::remove_file(&path).unwrap();
        cells[0]
            .output
            .as_ref()
            .expect_err("a bad trace must fail its cell")
            .clone()
    }

    #[test]
    fn a_trace_shorter_than_the_budget_fails_the_cell() {
        let err = replay_error("short.trace", 1_000, |bytes| bytes);
        assert!(err.contains("holds 1000 records"), "got: {err}");
    }

    #[test]
    fn a_trace_cut_short_of_its_header_fails_the_cell() {
        // The header still promises 6 000 records, enough for the budget, but the stream
        // keeps only about a tenth of them.
        let err = replay_error("cut.trace", 6_000, |mut bytes| {
            let header = athena_trace_io::HEADER_LEN as usize;
            bytes.truncate(header + (bytes.len() - header) / 10);
            bytes
        });
        assert!(err.contains("binary trace replay failed"), "got: {err}");
        assert!(err.contains("truncated"), "got: {err}");
    }

    #[test]
    fn missing_trace_file_fails_only_its_own_cell() {
        use crate::exec::Engine;

        let spec = all_workloads()[0].clone();
        let good = Job::single("t", spec.clone(), cd1(), CoordinatorKind::Baseline, 5_000);
        let bad = Job::from_file(
            "t",
            "ghost-workload",
            "/nonexistent/ghost.trace",
            cd1(),
            CoordinatorKind::Baseline,
            5_000,
        );
        let cells = Engine::new(2).run(vec![good, bad]);
        assert!(cells[0].output.is_ok(), "healthy cell completes");
        let err = cells[1].output.as_ref().expect_err("missing trace fails");
        assert!(err.contains("cannot replay trace"), "got: {err}");
    }

    #[test]
    fn telemetry_is_opt_in_and_never_changes_results() {
        let spec = all_workloads()[0].clone();
        let plain = Job::single("t", spec.clone(), cd1(), CoordinatorKind::Athena, 15_000);
        let observed = plain.clone().with_telemetry(4096);
        // Observation is not identity: the seed (and thus the simulated behaviour) is
        // untouched.
        assert_eq!(plain.seed, observed.seed);
        let plain_run = match plain.run() {
            JobOutput::Single(r) => *r,
            _ => panic!("single cell"),
        };
        let observed_run = match observed.run() {
            JobOutput::Single(r) => *r,
            _ => panic!("single cell"),
        };
        assert!(plain_run.timeline.is_none(), "telemetry is off by default");
        let timeline = observed_run.timeline.clone().expect("requested timeline");
        assert!(!timeline.windows.is_empty());
        // Identical simulation either way.
        assert_eq!(plain_run.stats, observed_run.stats);
        assert_eq!(plain_run.epochs, observed_run.epochs);
        // The windows compose exactly back into the aggregates.
        let totals = timeline.totals();
        assert_eq!(totals.instructions, observed_run.stats.instructions);
        assert_eq!(totals.cycles, observed_run.stats.cycles);
        assert_eq!(totals.llc_misses, observed_run.stats.llc_misses);
        // Athena is a learning coordinator, so windows carry agent snapshots.
        assert!(timeline.windows.iter().all(|w| w.agent.is_some()));
    }
}
