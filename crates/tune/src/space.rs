//! Declarative design spaces over [`AthenaConfig`].
//!
//! A [`DesignSpace`] names, for every explorable dimension of the agent configuration,
//! a grid of values: the four SARSA hyperparameters (α, γ,
//! ε, τ), a set of candidate reward-weight vectors, and a set of candidate state-feature
//! subsets drawn from `athena_core::Feature`'s Table 1 candidates. Everything the space
//! does not explore is taken from a base configuration, so a candidate differs from the
//! paper's Table 3 point only where the space says it may.

use athena_core::{AthenaConfig, Feature, RewardWeights};
use rand::rngs::StdRng;
use rand::Rng;

/// One scalar dimension of a design space: a finite grid of values, sampled uniformly and
/// enumerated exhaustively.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace(pub Vec<f64>);

impl ParamSpace {
    /// A grid with a single point (a dimension held fixed).
    pub fn fixed(value: f64) -> Self {
        ParamSpace(vec![value])
    }

    /// Draws one value.
    ///
    /// # Panics
    ///
    /// Panics on an empty grid — it describes no design at all.
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        assert!(!self.0.is_empty(), "empty grid has nothing to sample");
        self.0[rng.gen_range(0..self.0.len())]
    }

    /// The grid values.
    pub fn grid(&self) -> &[f64] {
        &self.0
    }
}

/// A declarative design space over [`AthenaConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Values for fields the space does not explore (planes, rows, quantisation step, the
    /// agent seed, …). The paper's Table 3 point with the reproduction's ε deviation —
    /// [`athena_engine::default_athena_config`] — is the usual choice.
    pub base: AthenaConfig,
    /// SARSA learning rate α.
    pub alpha: ParamSpace,
    /// SARSA discount factor γ.
    pub gamma: ParamSpace,
    /// ε-greedy exploration rate.
    pub epsilon: ParamSpace,
    /// Aggressiveness-control confidence normaliser τ.
    pub tau: ParamSpace,
    /// Candidate reward-weight vectors (Table 2's λ constituents).
    pub reward_weights: Vec<RewardWeights>,
    /// Candidate state-feature subsets (drawn from Table 1's seven candidates).
    pub feature_sets: Vec<Vec<Feature>>,
}

impl DesignSpace {
    /// The full exploration space modelled on the paper's DSE (§6 / Table 3): α and γ on
    /// 0.1-step grids, a small ε/τ neighbourhood, four reward-weight vectors and the
    /// ablation ladder of feature subsets.
    pub fn paper_default() -> Self {
        let base = athena_engine::default_athena_config();
        let tenths =
            |from: u64, to: u64| -> Vec<f64> { (from..=to).map(|i| i as f64 / 10.0).collect() };
        Self {
            alpha: ParamSpace(tenths(1, 9)),
            gamma: ParamSpace(tenths(1, 9)),
            epsilon: ParamSpace(vec![0.0, 0.01, 0.05, 0.1]),
            tau: ParamSpace(vec![0.06, 0.12, 0.24]),
            reward_weights: vec![
                RewardWeights::default(),
                // IPC-change-only (prior-work style).
                RewardWeights::from_array([1.6, 0.0, 0.0, 0.0, 0.0]),
                // Heavier uncorrelated terms.
                RewardWeights::from_array([1.6, 0.0, 0.0, 1.0, 1.0]),
                // LLC-aware correlated terms.
                RewardWeights::from_array([1.0, 0.5, 0.5, 0.6, 1.0]),
            ],
            feature_sets: feature_ladder(),
            base,
        }
    }

    /// A reduced space for smoke tests and `tune --quick`: six grid points around the
    /// paper's selected configuration, fully enumerable.
    pub fn quick() -> Self {
        let base = athena_engine::default_athena_config();
        Self {
            alpha: ParamSpace(vec![0.2, 0.6, 0.9]),
            gamma: ParamSpace(vec![0.3, 0.6]),
            epsilon: ParamSpace::fixed(base.epsilon),
            tau: ParamSpace::fixed(base.tau),
            reward_weights: vec![base.reward_weights],
            feature_sets: vec![base.features.clone()],
            base,
        }
    }

    /// Builds the candidate configuration for one point of the space.
    fn build(
        &self,
        alpha: f64,
        gamma: f64,
        epsilon: f64,
        tau: f64,
        weights: RewardWeights,
        features: Vec<Feature>,
    ) -> AthenaConfig {
        AthenaConfig {
            alpha,
            gamma,
            epsilon,
            tau,
            reward_weights: weights,
            features,
            ..self.base.clone()
        }
    }

    /// Draws one candidate uniformly from the space. A pure function of the RNG state, so
    /// a seeded sampling pass is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is empty (see [`ParamSpace::sample`]).
    pub fn sample(&self, rng: &mut StdRng) -> AthenaConfig {
        assert!(!self.reward_weights.is_empty(), "no reward-weight vectors");
        assert!(!self.feature_sets.is_empty(), "no feature sets");
        let alpha = self.alpha.sample(rng);
        let gamma = self.gamma.sample(rng);
        let epsilon = self.epsilon.sample(rng);
        let tau = self.tau.sample(rng);
        let weights = self.reward_weights[rng.gen_range(0..self.reward_weights.len())];
        let features = self.feature_sets[rng.gen_range(0..self.feature_sets.len())].clone();
        self.build(alpha, gamma, epsilon, tau, weights, features)
    }

    /// Number of distinct candidates an enumeration visits.
    pub fn size(&self) -> usize {
        self.alpha.grid().len()
            * self.gamma.grid().len()
            * self.epsilon.grid().len()
            * self.tau.grid().len()
            * self.reward_weights.len()
            * self.feature_sets.len()
    }

    /// Enumerates every candidate in a fixed nested order (α outermost, feature set
    /// innermost).
    pub fn enumerate(&self) -> Vec<AthenaConfig> {
        let mut out = Vec::with_capacity(self.size());
        for &alpha in self.alpha.grid() {
            for &gamma in self.gamma.grid() {
                for &epsilon in self.epsilon.grid() {
                    for &tau in self.tau.grid() {
                        for weights in &self.reward_weights {
                            for features in &self.feature_sets {
                                out.push(self.build(
                                    alpha,
                                    gamma,
                                    epsilon,
                                    tau,
                                    *weights,
                                    features.clone(),
                                ));
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// The ablation ladder of feature subsets (Figure 18's steps) plus the full Table 1 set.
fn feature_ladder() -> Vec<Vec<Feature>> {
    let order = Feature::all_candidates();
    let mut sets: Vec<Vec<Feature>> = (1..=4).map(|n| order[..n].to_vec()).collect();
    sets.push(order.to_vec());
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn quick_space_enumerates_six_candidates() {
        let space = DesignSpace::quick();
        assert_eq!(space.size(), 6);
        let all = space.enumerate();
        assert_eq!(all.len(), 6);
        // Everything but α/γ comes from the base.
        for cfg in &all {
            assert_eq!(cfg.epsilon, space.base.epsilon);
            assert_eq!(cfg.features, space.base.features);
            assert_eq!(cfg.seed, space.base.seed);
        }
        assert!(all.iter().any(|c| c.alpha == 0.9 && c.gamma == 0.3));
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed_and_stays_inside_the_space() {
        let space = DesignSpace::paper_default();
        let draw = |seed: u64| -> Vec<AthenaConfig> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32).map(|_| space.sample(&mut rng)).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        for cfg in draw(7) {
            assert!(space.alpha.grid().contains(&cfg.alpha));
            assert!(space.gamma.grid().contains(&cfg.gamma));
            assert!(space.reward_weights.contains(&cfg.reward_weights));
            assert!(space.feature_sets.contains(&cfg.features));
        }
    }

    #[test]
    fn paper_space_matches_its_advertised_shape() {
        let space = DesignSpace::paper_default();
        assert_eq!(space.size(), 9 * 9 * 4 * 3 * 4 * 5);
        assert_eq!(space.feature_sets.len(), 5);
        assert_eq!(space.feature_sets[3], space.base.features);
        assert_eq!(space.feature_sets[4].len(), 7);
    }
}
