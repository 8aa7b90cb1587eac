//! Static coordination policies: the Naive combination and arbitrary fixed combinations.

use athena_sim::{CoordinationDecision, Coordinator, EpochStats, PrefetcherInfo};

/// The "Naive" combination: every attached mechanism enabled at full aggressiveness in every
/// epoch, with no coordination at all.
#[derive(Debug, Clone, Default)]
pub struct NaiveAll {
    max_degrees: Vec<u32>,
}

impl NaiveAll {
    /// Creates the Naive policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Coordinator for NaiveAll {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn filters_l1d_prefetches(&self) -> bool {
        false
    }

    fn attach(&mut self, prefetchers: &[PrefetcherInfo]) {
        self.max_degrees = prefetchers.iter().map(|p| p.max_degree).collect();
    }

    fn on_epoch_end(&mut self, _stats: &EpochStats) -> CoordinationDecision {
        CoordinationDecision::all_on(&self.max_degrees)
    }
}

/// A fixed combination of mechanisms: the OCP and each prefetcher are statically enabled or
/// disabled for the whole run.
///
/// The harness uses this to realise the single-mechanism baselines (e.g. POPET-only,
/// Pythia-only), the four static points of the StaticBest oracle, and the static
/// combinations of the case study (Figure 17).
#[derive(Debug, Clone)]
pub struct FixedCombo {
    enable_ocp: bool,
    enable_prefetchers: Vec<bool>,
    max_degrees: Vec<u32>,
    /// When `enable_prefetchers` is shorter than the attached prefetcher list, this value is
    /// used for the remaining prefetchers.
    default_prefetcher_enable: bool,
}

impl FixedCombo {
    /// A combination that enables the OCP iff `ocp` and every prefetcher iff `prefetchers`.
    pub fn new(ocp: bool, prefetchers: bool) -> Self {
        Self {
            enable_ocp: ocp,
            enable_prefetchers: Vec::new(),
            max_degrees: Vec::new(),
            default_prefetcher_enable: prefetchers,
        }
    }

    /// A combination with a per-prefetcher enable mask (in attach order).
    pub fn with_mask(ocp: bool, mask: Vec<bool>) -> Self {
        Self {
            enable_ocp: ocp,
            enable_prefetchers: mask,
            max_degrees: Vec::new(),
            default_prefetcher_enable: false,
        }
    }

    /// Everything off: the no-prefetching, no-OCP baseline.
    pub fn baseline() -> Self {
        Self::new(false, false)
    }

    /// OCP only.
    pub fn ocp_only() -> Self {
        Self::new(true, false)
    }

    /// Prefetchers only.
    pub fn prefetchers_only() -> Self {
        Self::new(false, true)
    }

    /// Everything on (equivalent to [`NaiveAll`]).
    pub fn both() -> Self {
        Self::new(true, true)
    }
}

impl Coordinator for FixedCombo {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn filters_l1d_prefetches(&self) -> bool {
        false
    }

    fn attach(&mut self, prefetchers: &[PrefetcherInfo]) {
        self.max_degrees = prefetchers.iter().map(|p| p.max_degree).collect();
        while self.enable_prefetchers.len() < prefetchers.len() {
            self.enable_prefetchers.push(self.default_prefetcher_enable);
        }
        self.enable_prefetchers.truncate(prefetchers.len());
    }

    fn initial_decision(&mut self, _prefetchers: &[PrefetcherInfo]) -> CoordinationDecision {
        self.on_epoch_end(&EpochStats::default())
    }

    fn on_epoch_end(&mut self, _stats: &EpochStats) -> CoordinationDecision {
        CoordinationDecision {
            enable_ocp: self.enable_ocp,
            prefetcher_enable: self.enable_prefetchers.clone(),
            prefetcher_degree: self.max_degrees.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_sim::CacheLevel;

    fn infos(n: usize) -> Vec<PrefetcherInfo> {
        (0..n)
            .map(|_| PrefetcherInfo {
                name: "p",
                level: CacheLevel::L2c,
                max_degree: 4,
            })
            .collect()
    }

    #[test]
    fn naive_enables_everything() {
        let mut n = NaiveAll::new();
        n.attach(&infos(2));
        let d = n.on_epoch_end(&EpochStats::default());
        assert!(d.enable_ocp);
        assert_eq!(d.prefetcher_enable, vec![true, true]);
        assert_eq!(d.prefetcher_degree, vec![4, 4]);
    }

    #[test]
    fn fixed_combo_constructors() {
        let mut b = FixedCombo::baseline();
        b.attach(&infos(1));
        let d = b.on_epoch_end(&EpochStats::default());
        assert!(!d.enable_ocp);
        assert_eq!(d.prefetcher_enable, vec![false]);

        let mut o = FixedCombo::ocp_only();
        o.attach(&infos(1));
        assert!(o.on_epoch_end(&EpochStats::default()).enable_ocp);

        let mut p = FixedCombo::prefetchers_only();
        p.attach(&infos(2));
        let d = p.on_epoch_end(&EpochStats::default());
        assert!(!d.enable_ocp);
        assert_eq!(d.prefetcher_enable, vec![true, true]);
    }

    #[test]
    fn mask_selects_individual_prefetchers() {
        let mut m = FixedCombo::with_mask(true, vec![true, false]);
        m.attach(&infos(2));
        let d = m.on_epoch_end(&EpochStats::default());
        assert_eq!(d.prefetcher_enable, vec![true, false]);
    }

    #[test]
    fn mask_is_padded_and_truncated_to_attachments() {
        let mut m = FixedCombo::with_mask(false, vec![true, true, true]);
        m.attach(&infos(1));
        let d = m.on_epoch_end(&EpochStats::default());
        assert_eq!(d.prefetcher_enable, vec![true]);
    }
}
