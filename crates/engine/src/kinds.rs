//! Mechanism registries and system configurations (cache designs CD1–CD4).
//!
//! (Moved here from `athena-harness` so a [`crate::Job`] — one simulation cell — can be a
//! plain data value owned by the engine; the harness re-exports everything unchanged.)

use athena_coordinators::{FixedCombo, Hpac, Mab, NaiveAll, Tlp};
use athena_core::{AthenaAgent, AthenaConfig};
use athena_ocp::{Hmp, Popet, Ttp};
use athena_prefetchers::{Berti, Ipcp, Mlop, NextLine, Pythia, Sms, SppPpf, StridePrefetcher};
use athena_sim::{CacheLevel, Coordinator, OffChipPredictor, Prefetcher, SimConfig};

use crate::seed::SeedHasher;

/// The prefetchers the harness can instantiate by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// IPCP at the L1 data cache.
    Ipcp,
    /// Berti at the L1 data cache.
    Berti,
    /// Pythia at the L2 cache.
    Pythia,
    /// SPP + PPF at the L2 cache.
    SppPpf,
    /// MLOP at the L2 cache.
    Mlop,
    /// SMS at the L2 cache.
    Sms,
    /// Reference next-line prefetcher at the L2 cache.
    NextLine,
    /// Reference stride prefetcher at the L2 cache.
    Stride,
}

impl PrefetcherKind {
    /// Every prefetcher kind, in declaration order.
    pub const ALL: [PrefetcherKind; 8] = [
        PrefetcherKind::Ipcp,
        PrefetcherKind::Berti,
        PrefetcherKind::Pythia,
        PrefetcherKind::SppPpf,
        PrefetcherKind::Mlop,
        PrefetcherKind::Sms,
        PrefetcherKind::NextLine,
        PrefetcherKind::Stride,
    ];

    /// Instantiates the prefetcher.
    pub fn build(&self) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherKind::Ipcp => Box::new(Ipcp::new()),
            PrefetcherKind::Berti => Box::new(Berti::new()),
            PrefetcherKind::Pythia => Box::new(Pythia::new()),
            PrefetcherKind::SppPpf => Box::new(SppPpf::new()),
            PrefetcherKind::Mlop => Box::new(Mlop::new()),
            PrefetcherKind::Sms => Box::new(Sms::new()),
            PrefetcherKind::NextLine => Box::new(NextLine::new(CacheLevel::L2c, 4)),
            PrefetcherKind::Stride => Box::new(StridePrefetcher::new(CacheLevel::L2c)),
        }
    }

    /// The display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            PrefetcherKind::Ipcp => "ipcp",
            PrefetcherKind::Berti => "berti",
            PrefetcherKind::Pythia => "pythia",
            PrefetcherKind::SppPpf => "spp+ppf",
            PrefetcherKind::Mlop => "mlop",
            PrefetcherKind::Sms => "sms",
            PrefetcherKind::NextLine => "next-line",
            PrefetcherKind::Stride => "stride",
        }
    }
}

/// The off-chip predictors the harness can instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OcpKind {
    /// POPET (Hermes perceptron).
    Popet,
    /// HMP hybrid hit/miss predictor.
    Hmp,
    /// TTP tag-tracking predictor.
    Ttp,
}

impl OcpKind {
    /// Every off-chip predictor kind, in declaration order.
    pub const ALL: [OcpKind; 3] = [OcpKind::Popet, OcpKind::Hmp, OcpKind::Ttp];

    /// Instantiates the predictor.
    pub fn build(&self) -> Box<dyn OffChipPredictor> {
        match self {
            OcpKind::Popet => Box::new(Popet::new()),
            OcpKind::Hmp => Box::new(Hmp::new()),
            OcpKind::Ttp => Box::new(Ttp::new()),
        }
    }

    /// The display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            OcpKind::Popet => "popet",
            OcpKind::Hmp => "hmp",
            OcpKind::Ttp => "ttp",
        }
    }
}

/// The coordination policy applied to a run.
#[derive(Debug, Clone, PartialEq)]
pub enum CoordinatorKind {
    /// Baseline: prefetchers and OCP statically disabled (no coordination hardware).
    Baseline,
    /// OCP enabled, prefetchers disabled.
    OcpOnly,
    /// Prefetchers enabled, OCP disabled.
    PrefetchersOnly,
    /// Naive: everything enabled at full aggressiveness.
    Naive,
    /// An arbitrary static combination (OCP on/off, all prefetchers on/off).
    Fixed {
        /// Enable the OCP.
        ocp: bool,
        /// Enable the prefetchers.
        prefetchers: bool,
    },
    /// HPAC (heuristic thresholds), adapted for OCP.
    Hpac,
    /// MAB (discounted-UCB bandit), adapted for OCP.
    Mab,
    /// TLP (off-chip-prediction-guided L1D prefetch filtering).
    Tlp,
    /// Athena with the paper's default configuration adapted for short simulations.
    Athena,
    /// Athena with an explicit configuration (ablations, DSE).
    AthenaWith(AthenaConfig),
}

impl CoordinatorKind {
    /// Instantiates the coordinator.
    pub fn build(&self) -> Box<dyn Coordinator> {
        match self {
            CoordinatorKind::Baseline => Box::new(FixedCombo::baseline()),
            CoordinatorKind::OcpOnly => Box::new(FixedCombo::ocp_only()),
            CoordinatorKind::PrefetchersOnly => Box::new(FixedCombo::prefetchers_only()),
            CoordinatorKind::Naive => Box::new(NaiveAll::new()),
            CoordinatorKind::Fixed { ocp, prefetchers } => {
                Box::new(FixedCombo::new(*ocp, *prefetchers))
            }
            CoordinatorKind::Hpac => Box::new(Hpac::new()),
            CoordinatorKind::Mab => Box::new(Mab::new()),
            CoordinatorKind::Tlp => Box::new(Tlp::new()),
            CoordinatorKind::Athena => Box::new(AthenaAgent::new(default_athena_config())),
            CoordinatorKind::AthenaWith(cfg) => Box::new(AthenaAgent::new(cfg.clone())),
        }
    }

    /// A display label that, unlike [`CoordinatorKind::name`], distinguishes explicit
    /// Athena configurations (DSE grid points, ablation steps) by their hyperparameters,
    /// so per-cell report records can be mapped back to the configuration that produced
    /// them.
    pub fn describe(&self) -> String {
        match self {
            CoordinatorKind::AthenaWith(cfg) => format!(
                "athena*(a{},g{},e{},t{},f{}{})",
                cfg.alpha,
                cfg.gamma,
                cfg.epsilon,
                cfg.tau,
                cfg.features.len(),
                if cfg.use_uncorrelated_reward {
                    ",ucr"
                } else {
                    ""
                }
            ),
            other => other.name().to_string(),
        }
    }

    /// The display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            CoordinatorKind::Baseline => "baseline",
            CoordinatorKind::OcpOnly => "ocp-only",
            CoordinatorKind::PrefetchersOnly => "prefetchers-only",
            CoordinatorKind::Naive => "naive",
            CoordinatorKind::Fixed { .. } => "fixed",
            CoordinatorKind::Hpac => "hpac",
            CoordinatorKind::Mab => "mab",
            CoordinatorKind::Tlp => "tlp",
            CoordinatorKind::Athena => "athena",
            CoordinatorKind::AthenaWith(_) => "athena*",
        }
    }
}

/// The Athena configuration the harness uses by default.
///
/// It is Table 3's configuration with one deviation: the exploration rate ε is raised from
/// 0.0 to 0.05. The paper's runs are 150–500 M instructions long (tens of thousands of
/// epochs), which gives a zero-ε agent enough workload-induced state variation to explore;
/// our reproduction runs are roughly three orders of magnitude shorter, so a small explicit
/// exploration rate is needed to visit all four actions. The deviation is recorded in
/// DESIGN.md §1.
pub fn default_athena_config() -> AthenaConfig {
    AthenaConfig {
        epsilon: 0.05,
        ..AthenaConfig::default()
    }
}

/// A full single-core system configuration: cache design plus mechanism choices.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The simulator (core, caches, DRAM) parameters.
    pub sim: SimConfig,
    /// Prefetchers, in attach order (L1D prefetchers first by convention).
    pub prefetchers: Vec<PrefetcherKind>,
    /// The off-chip predictor, if the design includes one.
    pub ocp: Option<OcpKind>,
}

impl SystemConfig {
    /// CD1: OCP + one L2C prefetcher (the paper's default design).
    pub fn cd1(l2c: PrefetcherKind, ocp: OcpKind) -> Self {
        Self {
            sim: SimConfig::golden_cove_like(),
            prefetchers: vec![l2c],
            ocp: Some(ocp),
        }
    }

    /// CD2: OCP + one L1D prefetcher.
    pub fn cd2(l1d: PrefetcherKind, ocp: OcpKind) -> Self {
        Self {
            sim: SimConfig::golden_cove_like(),
            prefetchers: vec![l1d],
            ocp: Some(ocp),
        }
    }

    /// CD3: OCP + two L2C prefetchers.
    pub fn cd3(l2c_a: PrefetcherKind, l2c_b: PrefetcherKind, ocp: OcpKind) -> Self {
        Self {
            sim: SimConfig::golden_cove_like(),
            prefetchers: vec![l2c_a, l2c_b],
            ocp: Some(ocp),
        }
    }

    /// CD4: OCP + one L1D prefetcher + one L2C prefetcher.
    pub fn cd4(l1d: PrefetcherKind, l2c: PrefetcherKind, ocp: OcpKind) -> Self {
        Self {
            sim: SimConfig::golden_cove_like(),
            prefetchers: vec![l1d, l2c],
            ocp: Some(ocp),
        }
    }

    /// CD3 without an OCP (the prefetcher-only generalisability study, §7.6).
    pub fn prefetchers_only(l2c_a: PrefetcherKind, l2c_b: PrefetcherKind) -> Self {
        Self {
            sim: SimConfig::golden_cove_like(),
            prefetchers: vec![l2c_a, l2c_b],
            ocp: None,
        }
    }

    /// Returns a copy with a different main-memory bandwidth (GB/s per core).
    pub fn with_bandwidth(mut self, gbps: f64) -> Self {
        self.sim = self.sim.with_bandwidth(gbps);
        self
    }

    /// Returns a copy with a different OCP request issue latency (cycles).
    pub fn with_ocp_issue_latency(mut self, cycles: u64) -> Self {
        self.sim = self.sim.with_ocp_issue_latency(cycles);
        self
    }

    /// Human-readable description, e.g. `CD1<popet, pythia>`.
    pub fn describe(&self) -> String {
        let prefetchers: Vec<&str> = self.prefetchers.iter().map(|p| p.name()).collect();
        match &self.ocp {
            Some(ocp) => format!("<{}, {}>", ocp.name(), prefetchers.join("+")),
            None => format!("<{}>", prefetchers.join("+")),
        }
    }

    /// A seed-derivation fingerprint covering *every* parameter of the configuration,
    /// including the simulator knobs that [`SystemConfig::describe`] elides (bandwidth, OCP
    /// issue latency, …), so sensitivity-sweep variants of the same cache design derive
    /// distinct job seeds.
    ///
    /// The `SimConfig` contribution hashes its `Debug` representation on purpose: a field
    /// added to the config later is covered automatically, where an explicit field list
    /// would silently omit it and let two semantically different configs share a seed. The
    /// trade-off is that derived seeds are stable within a revision of the code, not across
    /// revisions that change the config's shape — acceptable, because a config-shape change
    /// changes what a cell *means*.
    pub(crate) fn hash_into(&self, hasher: &mut SeedHasher) {
        hasher.write_str(&self.describe());
        hasher.write_str(&format!("{:?}", self.sim));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_designs_have_the_right_shape() {
        let cd1 = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
        assert_eq!(cd1.prefetchers.len(), 1);
        assert!(cd1.ocp.is_some());
        let cd4 = SystemConfig::cd4(PrefetcherKind::Ipcp, PrefetcherKind::Pythia, OcpKind::Popet);
        assert_eq!(cd4.prefetchers.len(), 2);
        assert_eq!(cd4.describe(), "<popet, ipcp+pythia>");
        let no_ocp = SystemConfig::prefetchers_only(PrefetcherKind::Sms, PrefetcherKind::Pythia);
        assert!(no_ocp.ocp.is_none());
    }

    #[test]
    fn every_kind_builds() {
        for p in PrefetcherKind::ALL {
            let built = p.build();
            assert_eq!(built.name(), p.name());
            assert!(built.max_degree() >= 1, "{}", p.name());
            assert!(built.degree() >= 1, "{}", p.name());
            assert!(built.degree() <= built.max_degree(), "{}", p.name());
        }
        for o in OcpKind::ALL {
            assert_eq!(o.build().name(), o.name());
        }
        for c in [
            CoordinatorKind::Baseline,
            CoordinatorKind::Naive,
            CoordinatorKind::Hpac,
            CoordinatorKind::Mab,
            CoordinatorKind::Tlp,
            CoordinatorKind::Athena,
        ] {
            let _ = c.build();
        }
    }

    #[test]
    fn paper_prefetchers_sit_at_their_levels() {
        for p in PrefetcherKind::ALL {
            let expected = match p {
                PrefetcherKind::Ipcp | PrefetcherKind::Berti => CacheLevel::L1d,
                _ => CacheLevel::L2c,
            };
            assert_eq!(p.build().level(), expected, "{}", p.name());
        }
    }

    #[test]
    fn athena_with_describe_carries_hyperparameters() {
        let cfg = default_athena_config().with_hyperparameters(0.2, 0.6, 0.05, 0.12);
        let a = CoordinatorKind::AthenaWith(cfg.clone());
        let b = CoordinatorKind::AthenaWith(cfg.with_hyperparameters(0.9, 0.6, 0.05, 0.12));
        assert_eq!(a.describe(), "athena*(a0.2,g0.6,e0.05,t0.12,f4,ucr)");
        assert_ne!(
            a.describe(),
            b.describe(),
            "grid points stay distinguishable"
        );
        assert_eq!(CoordinatorKind::Athena.describe(), "athena");
    }

    #[test]
    fn config_fingerprint_separates_sweep_variants() {
        let a = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
        let b = a.clone().with_bandwidth(1.6);
        assert_eq!(a.describe(), b.describe());
        let mut ha = SeedHasher::new();
        a.hash_into(&mut ha);
        let mut hb = SeedHasher::new();
        b.hash_into(&mut hb);
        assert_ne!(ha.finish(), hb.finish());
    }
}
