//! The Athena agent: SARSA-based coordination of prefetchers and the off-chip predictor,
//! plus Q-value-driven prefetcher aggressiveness control (§4, §5 of the paper).

use athena_sim::{
    CoordinationDecision, Coordinator, CoordinatorTelemetry, EpochStats, PrefetcherInfo,
};

use crate::config::AthenaConfig;
use crate::features::FeatureVector;
use crate::qvstore::QvStore;
use crate::reward::CompositeReward;

/// Athena's coordination actions (§4.2): which of the two speculation mechanisms to enable
/// during the next epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Disable both the prefetcher(s) and the OCP.
    EnableNone,
    /// Enable only the OCP.
    EnableOcp,
    /// Enable only the prefetcher(s).
    EnablePrefetcher,
    /// Enable both mechanisms.
    EnableBoth,
}

impl Action {
    /// Number of actions (the QVStore's column count).
    pub const COUNT: usize = 4;

    /// All actions, indexed by their QVStore column.
    pub const ALL: [Action; Action::COUNT] = [
        Action::EnableNone,
        Action::EnableOcp,
        Action::EnablePrefetcher,
        Action::EnableBoth,
    ];

    /// The QVStore column of this action.
    pub fn index(&self) -> usize {
        match self {
            Action::EnableNone => 0,
            Action::EnableOcp => 1,
            Action::EnablePrefetcher => 2,
            Action::EnableBoth => 3,
        }
    }

    /// The action stored in QVStore column `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Action::COUNT`.
    pub fn from_index(index: usize) -> Self {
        Action::ALL[index]
    }

    /// Whether this action enables the off-chip predictor.
    pub fn enables_ocp(&self) -> bool {
        matches!(self, Action::EnableOcp | Action::EnableBoth)
    }

    /// Whether this action enables the prefetcher(s).
    pub fn enables_prefetcher(&self) -> bool {
        matches!(self, Action::EnablePrefetcher | Action::EnableBoth)
    }
}

/// The Athena RL agent. Implements [`Coordinator`]; one instance coordinates one core.
#[derive(Debug, Clone)]
pub struct AthenaAgent {
    config: AthenaConfig,
    qvstore: QvStore,
    reward: CompositeReward,
    prefetchers: Vec<PrefetcherInfo>,

    /// (state, action) chosen at the end of the previous epoch, pending its SARSA update.
    previous: Option<(u32, Action)>,
    /// Telemetry of the previous epoch, for reward deltas.
    previous_stats: Option<EpochStats>,
    rng_state: u64,

    /// Histogram of chosen actions, indexed by [`Action::index`] (used by the case-study
    /// experiment and for diagnostics).
    action_histogram: [u64; Action::COUNT],
}

impl AthenaAgent {
    /// Creates an agent from its configuration.
    pub fn new(config: AthenaConfig) -> Self {
        let qvstore = QvStore::new(
            config.planes,
            config.rows_per_plane,
            Action::COUNT,
            config.q_step,
        );
        let reward = CompositeReward::new(config.reward_weights, config.use_uncorrelated_reward);
        let seed = config.seed.max(1);
        Self {
            config,
            qvstore,
            reward,
            prefetchers: Vec::new(),
            previous: None,
            previous_stats: None,
            rng_state: seed,
            action_histogram: [0; Action::COUNT],
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AthenaConfig {
        &self.config
    }

    /// Read access to the QVStore (diagnostics and tests).
    pub fn qvstore(&self) -> &QvStore {
        &self.qvstore
    }

    /// Histogram of actions chosen so far, in [`Action::ALL`] order.
    pub fn action_histogram(&self) -> [u64; Action::COUNT] {
        self.action_histogram
    }

    /// Fraction of epochs in which each action was chosen, in [`Action::ALL`] order.
    pub fn action_distribution(&self) -> [f64; Action::COUNT] {
        let total: u64 = self.action_histogram.iter().sum();
        let mut dist = [0.0; Action::COUNT];
        if total > 0 {
            for (d, &c) in dist.iter_mut().zip(self.action_histogram.iter()) {
                *d = c as f64 / total as f64;
            }
        }
        dist
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// ε-greedy action selection over the QVStore for `state`.
    fn select_action(&mut self, state: u32) -> Action {
        let explore_roll = (self.next_rand() % 10_000) as f64 / 10_000.0;
        if explore_roll < self.config.epsilon {
            let a = (self.next_rand() as usize) % Action::COUNT;
            return Action::from_index(a);
        }
        Action::from_index(self.qvstore.best_action(state))
    }

    /// Q-value-driven prefetch-degree control (Algorithm 1): the confidence in the selected
    /// action, measured as its Q-value margin over the average of the alternatives and
    /// normalised by τ, scales each prefetcher's degree between 1 and its maximum.
    fn select_prefetch_degree(&self, state: u32, selected: Action, max_degree: u32) -> u32 {
        let qs = self.qvstore.q_values(state);
        let q_best = qs[selected.index()];
        let others: Vec<f64> = qs
            .iter()
            .enumerate()
            .filter(|&(a, _)| a != selected.index())
            .map(|(_, &q)| q)
            .collect();
        let avg = others.iter().sum::<f64>() / others.len() as f64;
        let delta_q = q_best - avg;
        let ratio = (delta_q / self.config.tau).clamp(0.0, 1.0);
        let degree = (ratio * f64::from(max_degree)).floor() as u32;
        degree.clamp(1, max_degree)
    }

    fn decision_for(&self, state: u32, action: Action) -> CoordinationDecision {
        let prefetcher_enable = vec![action.enables_prefetcher(); self.prefetchers.len()];
        let prefetcher_degree = self
            .prefetchers
            .iter()
            .map(|p| {
                if action.enables_prefetcher() {
                    self.select_prefetch_degree(state, action, p.max_degree)
                } else {
                    1
                }
            })
            .collect();
        CoordinationDecision {
            enable_ocp: action.enables_ocp(),
            prefetcher_enable,
            prefetcher_degree,
        }
    }
}

impl Coordinator for AthenaAgent {
    fn name(&self) -> &'static str {
        "athena"
    }

    fn filters_l1d_prefetches(&self) -> bool {
        false
    }

    fn attach(&mut self, prefetchers: &[PrefetcherInfo]) {
        self.prefetchers = prefetchers.to_vec();
    }

    fn on_epoch_end(&mut self, stats: &EpochStats) -> CoordinationDecision {
        // 1. Build the new state from this epoch's telemetry.
        let state = FeatureVector::from_stats(&self.config.features, stats).packed();

        // 2. Select the next action (ε-greedy).
        let next_action = self.select_action(state);
        self.action_histogram[next_action.index()] += 1;

        // 3. Compute the composite reward for the previous action and apply the SARSA
        //    update Q(S_t, A_t) ← ... using (S_{t+1}, A_{t+1}) = (state, next_action).
        if let (Some((prev_state, prev_action)), Some(prev_stats)) =
            (self.previous, self.previous_stats.as_ref())
        {
            let r = self.reward.reward(prev_stats, stats);
            self.qvstore.sarsa_update(
                prev_state,
                prev_action.index(),
                r,
                state,
                next_action.index(),
                self.config.alpha,
                self.config.gamma,
            );
        }

        self.previous = Some((state, next_action));
        self.previous_stats = Some(*stats);

        // 4. Translate the action into a coordination decision (including Algorithm 1's
        //    degree selection).
        self.decision_for(state, next_action)
    }

    fn telemetry(&self) -> Option<CoordinatorTelemetry> {
        let summary = self.qvstore.summary();
        Some(CoordinatorTelemetry {
            epsilon: self.config.epsilon,
            updates: self.qvstore.updates(),
            q_mean: summary.q_mean,
            q_min: summary.q_min,
            q_max: summary.q_max,
            action_histogram: self.action_histogram.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Feature;
    use athena_sim::CacheLevel;

    fn info() -> Vec<PrefetcherInfo> {
        vec![PrefetcherInfo {
            name: "pythia",
            level: CacheLevel::L2c,
            max_degree: 4,
        }]
    }

    fn exploring_config() -> AthenaConfig {
        AthenaConfig::default().with_hyperparameters(0.6, 0.6, 0.10, 0.12)
    }

    /// A tiny synthetic environment: the epoch cycle count depends on which mechanisms the
    /// agent enabled during that epoch.
    struct ToyEnv {
        prefetcher_penalty: i64,
        ocp_benefit: i64,
        noise: u64,
    }

    impl ToyEnv {
        fn epoch(&mut self, decision: &CoordinationDecision, index: u64) -> EpochStats {
            let base = 8000i64;
            let mut cycles = base;
            if decision.prefetcher_enable.iter().any(|&e| e) {
                cycles += self.prefetcher_penalty;
            }
            if decision.enable_ocp {
                cycles -= self.ocp_benefit;
            }
            // Small deterministic noise so consecutive epochs are not perfectly identical.
            self.noise = self.noise.wrapping_mul(6364136223846793005).wrapping_add(1);
            cycles += (self.noise % 200) as i64 - 100;
            EpochStats {
                epoch_index: index,
                instructions: 2048,
                cycles: cycles.max(1000) as u64,
                loads: 500,
                branches: 200,
                branch_mispredicts: 10,
                llc_misses: 50,
                prefetches_issued: if decision.prefetcher_enable.iter().any(|&e| e) {
                    60
                } else {
                    0
                },
                prefetches_useful: 10,
                ocp_predictions: if decision.enable_ocp { 40 } else { 0 },
                ocp_correct: 35,
                dram_busy_cycles: 3000,
                dram_demand_requests: 40,
                dram_prefetch_requests: 50,
                dram_ocp_requests: 5,
                ..Default::default()
            }
        }
    }

    fn run_env(agent: &mut AthenaAgent, env: &mut ToyEnv, epochs: u64) -> CoordinationDecision {
        let mut decision = CoordinationDecision::all_on(&[4]);
        for i in 0..epochs {
            let stats = env.epoch(&decision, i);
            decision = agent.on_epoch_end(&stats);
        }
        decision
    }

    #[test]
    fn action_indices_round_trip() {
        for (i, a) in Action::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
            assert_eq!(Action::from_index(i), *a);
        }
        assert!(Action::EnableBoth.enables_ocp());
        assert!(Action::EnableBoth.enables_prefetcher());
        assert!(!Action::EnableOcp.enables_prefetcher());
        assert!(!Action::EnableNone.enables_ocp());
    }

    #[test]
    fn decision_shape_matches_attached_prefetchers() {
        let mut agent = AthenaAgent::new(AthenaConfig::default());
        agent.attach(&[
            PrefetcherInfo {
                name: "ipcp",
                level: CacheLevel::L1d,
                max_degree: 4,
            },
            PrefetcherInfo {
                name: "pythia",
                level: CacheLevel::L2c,
                max_degree: 4,
            },
        ]);
        let d = agent.on_epoch_end(&EpochStats::default());
        assert_eq!(d.prefetcher_enable.len(), 2);
        assert_eq!(d.prefetcher_degree.len(), 2);
        for &deg in &d.prefetcher_degree {
            assert!((1..=4).contains(&deg));
        }
    }

    #[test]
    fn learns_to_disable_a_harmful_prefetcher() {
        let mut agent = AthenaAgent::new(exploring_config());
        agent.attach(&info());
        let mut env = ToyEnv {
            prefetcher_penalty: 2500,
            ocp_benefit: 800,
            noise: 7,
        };
        run_env(&mut agent, &mut env, 3000);
        // Over the last part of the run, the prefetcher-enabling actions should be rare.
        let dist = agent.action_distribution();
        let prefetch_fraction =
            dist[Action::EnablePrefetcher.index()] + dist[Action::EnableBoth.index()];
        let ocp_fraction = dist[Action::EnableOcp.index()] + dist[Action::EnableBoth.index()];
        assert!(
            prefetch_fraction < 0.5,
            "harmful prefetcher should be disabled most of the time: {dist:?}"
        );
        assert!(
            ocp_fraction > 0.25,
            "beneficial OCP should be enabled frequently: {dist:?}"
        );
    }

    #[test]
    fn learns_to_enable_a_beneficial_prefetcher() {
        let mut agent = AthenaAgent::new(exploring_config());
        agent.attach(&info());
        let mut env = ToyEnv {
            prefetcher_penalty: -2500, // prefetching helps
            ocp_benefit: 300,
            noise: 13,
        };
        run_env(&mut agent, &mut env, 3000);
        let dist = agent.action_distribution();
        let prefetch_fraction =
            dist[Action::EnablePrefetcher.index()] + dist[Action::EnableBoth.index()];
        assert!(
            prefetch_fraction > 0.5,
            "beneficial prefetcher should be enabled most of the time: {dist:?}"
        );
    }

    #[test]
    fn degree_rises_with_confidence() {
        let mut agent = AthenaAgent::new(AthenaConfig::default());
        agent.attach(&info());
        // Manually reinforce EnableBoth heavily in a fixed state so its Q-value margin grows.
        let state = 0u32;
        for _ in 0..200 {
            agent.qvstore.sarsa_update(
                state,
                Action::EnableBoth.index(),
                1.0,
                state,
                Action::EnableBoth.index(),
                0.6,
                0.6,
            );
        }
        let degree = agent.select_prefetch_degree(state, Action::EnableBoth, 4);
        assert_eq!(
            degree, 4,
            "a large Q margin should select full aggressiveness"
        );
        // A fresh agent (no margin) should be conservative.
        let fresh = AthenaAgent::new(AthenaConfig::default());
        let d0 = fresh.select_prefetch_degree(state, Action::EnableBoth, 4);
        assert_eq!(d0, 1);
    }

    #[test]
    fn stateless_athena_still_produces_valid_decisions() {
        let mut agent = AthenaAgent::new(AthenaConfig::stateless());
        agent.attach(&info());
        let mut env = ToyEnv {
            prefetcher_penalty: 1000,
            ocp_benefit: 500,
            noise: 3,
        };
        let d = run_env(&mut agent, &mut env, 500);
        assert_eq!(d.prefetcher_enable.len(), 1);
    }

    #[test]
    fn feature_ablation_configs_run() {
        for features in [
            vec![],
            vec![Feature::PrefetcherAccuracy],
            vec![Feature::PrefetcherAccuracy, Feature::OcpAccuracy],
            vec![
                Feature::PrefetcherAccuracy,
                Feature::OcpAccuracy,
                Feature::BandwidthUsage,
                Feature::CachePollution,
            ],
        ] {
            let mut agent =
                AthenaAgent::new(AthenaConfig::default().with_features(features.clone()));
            agent.attach(&info());
            let d = agent.on_epoch_end(&EpochStats::default());
            assert_eq!(d.prefetcher_enable.len(), 1, "features={features:?}");
        }
    }

    #[test]
    fn telemetry_snapshot_reflects_agent_state() {
        let mut agent = AthenaAgent::new(exploring_config());
        agent.attach(&info());
        let mut env = ToyEnv {
            prefetcher_penalty: 1000,
            ocp_benefit: 500,
            noise: 11,
        };
        run_env(&mut agent, &mut env, 100);
        let t = agent.telemetry().expect("athena is a learning coordinator");
        assert_eq!(t.epsilon, agent.config().epsilon);
        assert_eq!(t.updates, agent.qvstore().updates());
        assert!(t.updates > 0, "100 epochs must have applied SARSA updates");
        assert_eq!(t.action_histogram.iter().sum::<u64>(), 100);
        assert!(t.q_min <= t.q_mean && t.q_mean <= t.q_max);
    }

    #[test]
    fn action_histogram_counts_every_epoch() {
        let mut agent = AthenaAgent::new(AthenaConfig::default());
        agent.attach(&info());
        for i in 0..50u64 {
            let stats = EpochStats {
                epoch_index: i,
                instructions: 2048,
                cycles: 4096,
                ..Default::default()
            };
            agent.on_epoch_end(&stats);
        }
        assert_eq!(agent.action_histogram().iter().sum::<u64>(), 50);
        let dist = agent.action_distribution();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
