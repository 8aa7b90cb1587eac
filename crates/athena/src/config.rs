//! Athena's configuration: hyperparameters, reward weights, state features and the ablation
//! knobs, defaulting to the values found by the paper's automated design-space exploration
//! (Table 3).

use crate::features::Feature;

/// Weights of the reward constituents (Table 2 / Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardWeights {
    /// Weight of the per-epoch cycle count (correlated).
    pub lambda_cycle: f64,
    /// Weight of the per-epoch LLC miss count (correlated).
    pub lambda_llc_misses: f64,
    /// Weight of the per-epoch average LLC miss latency (correlated).
    pub lambda_llc_miss_latency: f64,
    /// Weight of the per-epoch load count (uncorrelated).
    pub lambda_loads: f64,
    /// Weight of the per-epoch mispredicted-branch count (uncorrelated).
    pub lambda_mispredicted_branches: f64,
}

impl RewardWeights {
    /// The λ weights as a fixed-order array `[cycle, llc_misses, llc_miss_latency, loads,
    /// mispredicted_branches]` — the serialisation order used by the tuning subsystem's
    /// on-disk configs and leaderboards.
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.lambda_cycle,
            self.lambda_llc_misses,
            self.lambda_llc_miss_latency,
            self.lambda_loads,
            self.lambda_mispredicted_branches,
        ]
    }

    /// The inverse of [`RewardWeights::as_array`].
    pub fn from_array(values: [f64; 5]) -> Self {
        Self {
            lambda_cycle: values[0],
            lambda_llc_misses: values[1],
            lambda_llc_miss_latency: values[2],
            lambda_loads: values[3],
            lambda_mispredicted_branches: values[4],
        }
    }
}

impl Default for RewardWeights {
    /// The DSE-selected weights of Table 3: λcycle = 1.6, λLLCm = 0, λLLCt = 0,
    /// λload = 0.6, λMBr = 1.0.
    fn default() -> Self {
        Self {
            lambda_cycle: 1.6,
            lambda_llc_misses: 0.0,
            lambda_llc_miss_latency: 0.0,
            lambda_loads: 0.6,
            lambda_mispredicted_branches: 1.0,
        }
    }
}

/// Full configuration of an [`crate::AthenaAgent`].
#[derive(Debug, Clone, PartialEq)]
pub struct AthenaConfig {
    /// SARSA learning rate α.
    pub alpha: f64,
    /// SARSA discount factor γ.
    pub gamma: f64,
    /// ε-greedy exploration rate.
    pub epsilon: f64,
    /// Confidence normaliser τ of the Q-value-driven aggressiveness control (Algorithm 1).
    pub tau: f64,
    /// State features used to build the QVStore index, in order.
    pub features: Vec<Feature>,
    /// Reward constituent weights.
    pub reward_weights: RewardWeights,
    /// Whether the uncorrelated reward component is subtracted (the paper's composite
    /// reward). Disabling this reproduces the "IPC-only"-style reward of prior work for the
    /// ablation study (§7.5.2).
    pub use_uncorrelated_reward: bool,
    /// Number of QVStore planes.
    pub planes: usize,
    /// Rows per plane.
    pub rows_per_plane: usize,
    /// Quantisation step of the 8-bit per-plane Q-values.
    pub q_step: f64,
    /// Seed of the agent's internal pseudo-random generator (ε-greedy exploration).
    pub seed: u64,
}

impl Default for AthenaConfig {
    /// Table 3's final configuration: α = 0.6, γ = 0.6, ε = 0.0, τ = 0.12, the four selected
    /// features, and the default reward weights.
    fn default() -> Self {
        Self {
            alpha: 0.6,
            gamma: 0.6,
            epsilon: 0.0,
            tau: 0.12,
            features: vec![
                Feature::PrefetcherAccuracy,
                Feature::OcpAccuracy,
                Feature::BandwidthUsage,
                Feature::CachePollution,
            ],
            reward_weights: RewardWeights::default(),
            use_uncorrelated_reward: true,
            planes: 8,
            rows_per_plane: 64,
            q_step: 0.05,
            seed: 0x4174_6865_6e61,
        }
    }
}

impl AthenaConfig {
    /// The "Stateless Athena" ablation configuration (§7.5.2): no state features and an
    /// IPC-change-only reward, mirroring prior state-agnostic RL controllers.
    pub fn stateless() -> Self {
        Self {
            features: Vec::new(),
            use_uncorrelated_reward: false,
            reward_weights: RewardWeights {
                lambda_cycle: 1.6,
                lambda_llc_misses: 0.0,
                lambda_llc_miss_latency: 0.0,
                lambda_loads: 0.0,
                lambda_mispredicted_branches: 0.0,
            },
            ..Self::default()
        }
    }

    /// A copy of this configuration with a different feature set (ablation studies).
    pub fn with_features(mut self, features: Vec<Feature>) -> Self {
        self.features = features;
        self
    }

    /// A copy of this configuration with the uncorrelated reward enabled or disabled.
    pub fn with_uncorrelated_reward(mut self, enabled: bool) -> Self {
        self.use_uncorrelated_reward = enabled;
        self
    }

    /// A copy of this configuration with different SARSA hyperparameters.
    pub fn with_hyperparameters(mut self, alpha: f64, gamma: f64, epsilon: f64, tau: f64) -> Self {
        self.alpha = alpha;
        self.gamma = gamma;
        self.epsilon = epsilon;
        self.tau = tau;
        self
    }

    /// A copy of this configuration with different reward weights.
    pub fn with_reward_weights(mut self, weights: RewardWeights) -> Self {
        self.reward_weights = weights;
        self
    }

    /// The storage overhead implied by this configuration (Table 4).
    pub fn storage_overhead(&self) -> StorageOverhead {
        StorageOverhead {
            qvstore_bytes: self.planes * self.rows_per_plane * crate::agent::Action::COUNT,
            accuracy_tracker_bytes: 512,
            pollution_tracker_bytes: 512,
        }
    }
}

/// Per-structure storage accounting (Table 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageOverhead {
    /// QVStore bytes (planes × rows × actions × 8 bits).
    pub qvstore_bytes: usize,
    /// Prefetcher-accuracy Bloom filter bytes: the paper's budget; the simulator counts the
    /// feature exactly instead.
    pub accuracy_tracker_bytes: usize,
    /// Pollution Bloom filter bytes: the paper's budget, likewise.
    pub pollution_tracker_bytes: usize,
}

impl StorageOverhead {
    /// Total storage in bytes.
    pub fn total_bytes(&self) -> usize {
        self.qvstore_bytes + self.accuracy_tracker_bytes + self.pollution_tracker_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let c = AthenaConfig::default();
        assert_eq!(c.alpha, 0.6);
        assert_eq!(c.gamma, 0.6);
        assert_eq!(c.epsilon, 0.0);
        assert_eq!(c.tau, 0.12);
        assert_eq!(c.features.len(), 4);
        assert_eq!(c.reward_weights.lambda_cycle, 1.6);
        assert_eq!(c.reward_weights.lambda_loads, 0.6);
        assert_eq!(c.reward_weights.lambda_mispredicted_branches, 1.0);
        assert!(c.use_uncorrelated_reward);
    }

    #[test]
    fn storage_matches_table4() {
        let o = AthenaConfig::default().storage_overhead();
        assert_eq!(o.qvstore_bytes, 2048);
        assert_eq!(o.accuracy_tracker_bytes, 512);
        assert_eq!(o.pollution_tracker_bytes, 512);
        assert_eq!(o.total_bytes(), 3072); // 3 KB per core
    }

    #[test]
    fn stateless_config_has_no_features_and_ipc_only_reward() {
        let c = AthenaConfig::stateless();
        assert!(c.features.is_empty());
        assert!(!c.use_uncorrelated_reward);
        assert_eq!(c.reward_weights.lambda_mispredicted_branches, 0.0);
    }

    #[test]
    fn reward_weights_round_trip_through_the_array_form() {
        let w = RewardWeights::default();
        assert_eq!(RewardWeights::from_array(w.as_array()), w);
        assert_eq!(w.as_array(), [1.6, 0.0, 0.0, 0.6, 1.0]);
    }

    #[test]
    fn builders_compose() {
        let c = AthenaConfig::default()
            .with_features(vec![Feature::BandwidthUsage])
            .with_uncorrelated_reward(false)
            .with_hyperparameters(0.3, 0.5, 0.1, 0.2);
        assert_eq!(c.features, vec![Feature::BandwidthUsage]);
        assert!(!c.use_uncorrelated_reward);
        assert_eq!(c.alpha, 0.3);
        assert_eq!(c.tau, 0.2);
    }
}
