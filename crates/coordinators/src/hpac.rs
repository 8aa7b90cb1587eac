//! HPAC — Hierarchical Prefetcher Aggressiveness Control (Ebrahimi et al., MICRO 2009),
//! adapted to also gate the off-chip predictor as described in the paper's methodology
//! (§6.2.2).
//!
//! HPAC compares per-epoch feature values (prefetcher accuracy, OCP accuracy, main-memory
//! bandwidth usage, prefetch-induced pollution) against statically tuned thresholds and
//! moves each prefetcher up or down a fixed ladder of aggressiveness levels; prefetchers are
//! disabled entirely at the bottom rung. The OCP is disabled when its accuracy is poor or
//! when the memory bus is saturated and the OCP contributes a significant share of traffic.
//! The thresholds below were tuned by grid search on the 20-workload tuning set (mirroring
//! the paper's methodology); they are exposed so sensitivity studies can vary them.

use athena_sim::{CoordinationDecision, Coordinator, EpochStats, PrefetcherInfo};

/// Statically tuned thresholds of the HPAC adaptation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HpacThresholds {
    /// Prefetcher accuracy below which aggressiveness is reduced.
    pub accuracy_low: f64,
    /// Prefetcher accuracy above which aggressiveness may be increased.
    pub accuracy_high: f64,
    /// Bandwidth usage above which the system is considered congested.
    pub bandwidth_high: f64,
    /// Pollution fraction above which prefetching is considered harmful.
    pub pollution_high: f64,
    /// OCP accuracy below which the OCP is disabled.
    pub ocp_accuracy_low: f64,
    /// Bandwidth usage above which a low-value OCP is also disabled.
    pub ocp_bandwidth_high: f64,
}

impl Default for HpacThresholds {
    fn default() -> Self {
        Self {
            accuracy_low: 0.40,
            accuracy_high: 0.75,
            bandwidth_high: 0.85,
            pollution_high: 0.25,
            ocp_accuracy_low: 0.55,
            ocp_bandwidth_high: 0.97,
        }
    }
}

/// The HPAC coordination policy.
#[derive(Debug, Clone)]
pub struct Hpac {
    thresholds: HpacThresholds,
    max_degrees: Vec<u32>,
    /// Aggressiveness level per prefetcher: 0 = disabled, `max_degree` = fully aggressive.
    levels: Vec<u32>,
    enable_ocp: bool,
}

impl Hpac {
    /// Creates HPAC with the default (grid-search-tuned) thresholds.
    pub fn new() -> Self {
        Self::with_thresholds(HpacThresholds::default())
    }

    /// Creates HPAC with explicit thresholds (sensitivity studies).
    pub fn with_thresholds(thresholds: HpacThresholds) -> Self {
        Self {
            thresholds,
            max_degrees: Vec::new(),
            levels: Vec::new(),
            enable_ocp: true,
        }
    }

    /// The thresholds in use.
    pub fn thresholds(&self) -> &HpacThresholds {
        &self.thresholds
    }
}

impl Default for Hpac {
    fn default() -> Self {
        Self::new()
    }
}

impl Coordinator for Hpac {
    fn name(&self) -> &'static str {
        "hpac"
    }

    fn filters_l1d_prefetches(&self) -> bool {
        false
    }

    fn attach(&mut self, prefetchers: &[PrefetcherInfo]) {
        self.max_degrees = prefetchers.iter().map(|p| p.max_degree).collect();
        // Start in the middle of the aggressiveness ladder.
        self.levels = self.max_degrees.iter().map(|&m| (m / 2).max(1)).collect();
    }

    fn on_epoch_end(&mut self, stats: &EpochStats) -> CoordinationDecision {
        let t = &self.thresholds;
        let accuracy = stats.prefetcher_accuracy();
        let bandwidth = stats.bandwidth_usage();
        let pollution = stats.cache_pollution();
        let prefetching_was_active = stats.prefetches_issued > 0;

        for (level, &max) in self.levels.iter_mut().zip(self.max_degrees.iter()) {
            if prefetching_was_active {
                let harmful = (accuracy < t.accuracy_low
                    && (bandwidth > t.bandwidth_high || pollution > t.pollution_high))
                    || (pollution > t.pollution_high && bandwidth > t.bandwidth_high);
                let wasteful = accuracy < t.accuracy_low;
                if harmful {
                    *level = level.saturating_sub(2);
                } else if wasteful {
                    *level = level.saturating_sub(1);
                } else if accuracy > t.accuracy_high && bandwidth < t.bandwidth_high {
                    *level = (*level + 1).min(max);
                }
            } else {
                // Nothing was issued (e.g. the prefetcher was disabled last epoch): probe
                // again at the lowest aggressiveness so accuracy can be re-measured.
                *level = (*level).max(1).min(max);
            }
        }

        // OCP gating: drop it when it is inaccurate, or when the bus is saturated and the
        // OCP is responsible for a non-trivial share of the traffic.
        let ocp_was_active = stats.ocp_predictions > 0;
        if ocp_was_active {
            let ocp_acc = stats.ocp_accuracy();
            let ocp_share = stats.ocp_bandwidth_share();
            self.enable_ocp = !(ocp_acc < t.ocp_accuracy_low
                || (bandwidth > t.ocp_bandwidth_high && ocp_share > 0.10));
        } else {
            self.enable_ocp = true;
        }

        CoordinationDecision {
            enable_ocp: self.enable_ocp,
            prefetcher_enable: self.levels.iter().map(|&l| l > 0).collect(),
            prefetcher_degree: self.levels.iter().map(|&l| l.max(1)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use athena_sim::CacheLevel;

    fn infos() -> Vec<PrefetcherInfo> {
        vec![PrefetcherInfo {
            name: "pythia",
            level: CacheLevel::L2c,
            max_degree: 4,
        }]
    }

    fn epoch(accuracy: f64, bandwidth: f64, pollution: f64) -> EpochStats {
        EpochStats {
            instructions: 2048,
            cycles: 4096,
            prefetches_issued: 100,
            prefetches_useful: (accuracy * 100.0) as u64,
            dram_busy_cycles: (bandwidth * 4096.0) as u64,
            llc_misses: 100,
            pollution_misses: (pollution * 100.0) as u64,
            ocp_predictions: 50,
            ocp_correct: 45,
            dram_demand_requests: 50,
            dram_prefetch_requests: 40,
            dram_ocp_requests: 10,
            ..Default::default()
        }
    }

    #[test]
    fn inaccurate_polluting_prefetcher_is_throttled_down_to_disable() {
        let mut h = Hpac::new();
        h.attach(&infos());
        let mut d = CoordinationDecision::all_on(&[4]);
        for _ in 0..6 {
            d = h.on_epoch_end(&epoch(0.1, 0.95, 0.6));
        }
        assert_eq!(d.prefetcher_enable, vec![false]);
    }

    #[test]
    fn accurate_prefetcher_is_ramped_up() {
        let mut h = Hpac::new();
        h.attach(&infos());
        let mut d = CoordinationDecision::all_on(&[4]);
        for _ in 0..6 {
            d = h.on_epoch_end(&epoch(0.9, 0.3, 0.0));
        }
        assert_eq!(d.prefetcher_enable, vec![true]);
        assert_eq!(d.prefetcher_degree, vec![4]);
    }

    #[test]
    fn inaccurate_ocp_is_disabled() {
        let mut h = Hpac::new();
        h.attach(&infos());
        let mut e = epoch(0.8, 0.5, 0.0);
        e.ocp_correct = 10; // 20% accuracy
        let d = h.on_epoch_end(&e);
        assert!(!d.enable_ocp);
    }

    #[test]
    fn accurate_ocp_stays_enabled_even_under_bandwidth_pressure() {
        let mut h = Hpac::new();
        h.attach(&infos());
        let mut e = epoch(0.2, 0.9, 0.4);
        e.ocp_correct = 48;
        e.dram_ocp_requests = 2;
        e.dram_demand_requests = 70;
        let d = h.on_epoch_end(&e);
        assert!(d.enable_ocp);
    }

    #[test]
    fn disabled_prefetcher_gets_probed_again() {
        let mut h = Hpac::new();
        h.attach(&infos());
        for _ in 0..6 {
            h.on_epoch_end(&epoch(0.05, 0.95, 0.7));
        }
        // An epoch with no prefetches issued (it was disabled): HPAC re-enables at degree 1.
        let quiet = EpochStats {
            instructions: 2048,
            cycles: 4096,
            ..Default::default()
        };
        let d = h.on_epoch_end(&quiet);
        assert_eq!(d.prefetcher_enable, vec![true]);
        assert_eq!(d.prefetcher_degree, vec![1]);
    }
}
