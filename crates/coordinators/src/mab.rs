//! MAB — the Micro-Armed Bandit controller (Gerogiannis & Torrellas, MICRO 2023), adapted to
//! coordinate an OCP alongside the prefetchers (§6.2.3 of the Athena paper).
//!
//! MAB is state-agnostic: each *arm* is one combination of enable bits (OCP × each
//! prefetcher), and a discounted upper-confidence-bound (D-UCB) rule balances exploiting the
//! arm with the best recent reward (epoch IPC) against exploring arms whose estimates have
//! decayed. Discounting lets the bandit follow workload phase changes.

use athena_sim::{CoordinationDecision, Coordinator, EpochStats, PrefetcherInfo};

/// Discount factor applied to past observations each epoch.
const DISCOUNT: f64 = 0.99;
/// Exploration coefficient of the UCB term.
const EXPLORATION: f64 = 0.5;

/// The MAB (discounted UCB) coordination policy.
#[derive(Debug, Clone)]
pub struct Mab {
    max_degrees: Vec<u32>,
    /// Discounted reward sum per arm.
    reward_sum: Vec<f64>,
    /// Discounted pull count per arm.
    pull_count: Vec<f64>,
    /// Arm chosen for the epoch that is currently executing.
    current_arm: usize,
    /// Discounted total number of pulls.
    total_pulls: f64,
    /// Running IPC scale so rewards stay roughly in [0, 1] across workloads.
    ipc_scale: f64,
}

impl Mab {
    /// Creates a MAB controller (arms are defined once prefetchers are attached).
    pub fn new() -> Self {
        Self {
            max_degrees: Vec::new(),
            reward_sum: Vec::new(),
            pull_count: Vec::new(),
            current_arm: 0,
            total_pulls: 0.0,
            ipc_scale: 1.0,
        }
    }

    /// Number of arms (2^(1 + number of prefetchers)).
    pub fn arms(&self) -> usize {
        self.reward_sum.len()
    }

    fn arm_decision(&self, arm: usize) -> CoordinationDecision {
        let enable_ocp = arm & 1 != 0;
        let prefetcher_enable: Vec<bool> = (0..self.max_degrees.len())
            .map(|i| arm & (1 << (i + 1)) != 0)
            .collect();
        CoordinationDecision {
            enable_ocp,
            prefetcher_enable,
            prefetcher_degree: self.max_degrees.clone(),
        }
    }

    fn select_arm(&self) -> usize {
        // Pull any never-tried arm first.
        if let Some(arm) = self.pull_count.iter().position(|&c| c < 1e-9) {
            return arm;
        }
        let log_total = self.total_pulls.max(1.0).ln();
        let mut best = 0;
        let mut best_score = f64::MIN;
        for arm in 0..self.arms() {
            let mean = self.reward_sum[arm] / self.pull_count[arm];
            let bonus = EXPLORATION * (log_total / self.pull_count[arm]).sqrt();
            let score = mean + bonus;
            if score > best_score {
                best_score = score;
                best = arm;
            }
        }
        best
    }
}

impl Default for Mab {
    fn default() -> Self {
        Self::new()
    }
}

impl Coordinator for Mab {
    fn name(&self) -> &'static str {
        "mab"
    }

    fn filters_l1d_prefetches(&self) -> bool {
        false
    }

    fn attach(&mut self, prefetchers: &[PrefetcherInfo]) {
        self.max_degrees = prefetchers.iter().map(|p| p.max_degree).collect();
        let arms = 1usize << (1 + prefetchers.len());
        self.reward_sum = vec![0.0; arms];
        self.pull_count = vec![0.0; arms];
        // Start from the all-enabled arm, like the Naive combination.
        self.current_arm = arms - 1;
    }

    fn on_epoch_end(&mut self, stats: &EpochStats) -> CoordinationDecision {
        if self.reward_sum.is_empty() {
            // No attach() happened (OCP-only system with zero prefetchers still has 2 arms).
            self.reward_sum = vec![0.0; 2];
            self.pull_count = vec![0.0; 2];
            self.current_arm = 1;
        }

        // Reward of the arm that just ran: the epoch's IPC, normalised by a slowly adapting
        // scale so the UCB bonus stays comparable across workloads.
        let ipc = stats.ipc();
        self.ipc_scale = 0.99 * self.ipc_scale + 0.01 * ipc.max(0.01);
        let reward = (ipc / (2.0 * self.ipc_scale)).min(1.5);

        // Discount all arms, then credit the executed arm.
        for v in &mut self.reward_sum {
            *v *= DISCOUNT;
        }
        for c in &mut self.pull_count {
            *c *= DISCOUNT;
        }
        self.total_pulls = self.total_pulls * DISCOUNT + 1.0;
        self.reward_sum[self.current_arm] += reward;
        self.pull_count[self.current_arm] += 1.0;

        self.current_arm = self.select_arm();
        self.arm_decision(self.current_arm)
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

    fn epoch_with_ipc(ipc: f64) -> EpochStats {
        EpochStats {
            instructions: 2048,
            cycles: (2048.0 / ipc) as u64,
            ..Default::default()
        }
    }

    #[test]
    fn arm_count_matches_mechanism_count() {
        let mut m = Mab::new();
        m.attach(&infos(1));
        assert_eq!(m.arms(), 4);
        let mut m2 = Mab::new();
        m2.attach(&infos(2));
        assert_eq!(m2.arms(), 8);
    }

    #[test]
    fn every_arm_is_tried_at_least_once() {
        let mut m = Mab::new();
        m.attach(&infos(1));
        let mut seen = std::collections::HashSet::new();
        let mut d = CoordinationDecision::all_on(&[4]);
        for _ in 0..20 {
            seen.insert((d.enable_ocp, d.prefetcher_enable.clone()));
            d = m.on_epoch_end(&epoch_with_ipc(1.0));
            let _ = &d;
        }
        assert!(
            seen.len() >= 4,
            "all four arms should be explored: {seen:?}"
        );
    }

    #[test]
    fn converges_to_the_best_arm() {
        let mut m = Mab::new();
        m.attach(&infos(1));
        // Environment: prefetcher hurts (halves IPC), OCP helps (adds 30%).
        let mut d = CoordinationDecision::all_on(&[4]);
        let mut chosen_last_phase = Vec::new();
        for i in 0..3000 {
            let mut ipc = 1.0;
            if d.prefetcher_enable.iter().any(|&e| e) {
                ipc *= 0.5;
            }
            if d.enable_ocp {
                ipc *= 1.3;
            }
            d = m.on_epoch_end(&epoch_with_ipc(ipc));
            if i >= 2500 {
                chosen_last_phase.push((d.enable_ocp, d.prefetcher_enable[0]));
            }
        }
        let good = chosen_last_phase
            .iter()
            .filter(|&&(ocp, pf)| ocp && !pf)
            .count();
        assert!(
            good * 2 > chosen_last_phase.len(),
            "OCP-only should dominate late choices: {good}/{}",
            chosen_last_phase.len()
        );
    }

    #[test]
    fn adapts_after_a_phase_change() {
        let mut m = Mab::new();
        m.attach(&infos(1));
        let mut d = CoordinationDecision::all_on(&[4]);
        // Phase 1: prefetching helps.
        for _ in 0..1500 {
            let ipc = if d.prefetcher_enable[0] { 1.5 } else { 1.0 };
            d = m.on_epoch_end(&epoch_with_ipc(ipc));
        }
        // Phase 2: prefetching hurts badly.
        let mut pf_choices = 0;
        let n = 2000;
        for i in 0..n {
            let ipc = if d.prefetcher_enable[0] { 0.4 } else { 1.0 };
            d = m.on_epoch_end(&epoch_with_ipc(ipc));
            if i > n / 2 && d.prefetcher_enable[0] {
                pf_choices += 1;
            }
        }
        assert!(
            pf_choices < n / 4,
            "the discounted bandit should abandon the prefetcher after the phase change: {pf_choices}"
        );
    }

    #[test]
    fn works_without_any_prefetcher() {
        let mut m = Mab::new();
        m.attach(&[]);
        let d = m.on_epoch_end(&epoch_with_ipc(1.0));
        assert!(d.prefetcher_enable.is_empty());
        assert_eq!(m.arms(), 2);
    }
}
