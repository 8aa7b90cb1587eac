//! QVStore — Athena's partitioned, multi-hash Q-value storage (§5.1, Figure 6).
//!
//! The store is organised as `k` independent *planes*. Each plane holds a small table of
//! 8-bit quantised partial Q-values indexed by an independent hash of the state vector. The
//! Q-value of a state-action pair is the sum of the partial values read from every plane;
//! SARSA updates are applied to every plane in equal shares. Hashing the same state into
//! multiple planes balances generalisation (similar states collide in some planes and share
//! value) against resolution (dissimilar states are de-aliased by the other hashes), while
//! keeping each plane small enough for single-cycle access.

/// Summary statistics over a [`QvStore`]'s contents (the telemetry layer's Q-value view).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QvSummary {
    /// Expected Q-value of a uniformly random state-action pair: each plane contributes its
    /// mean partial value, so the sum of per-plane means is the exact expectation under
    /// uniform row hashing.
    pub q_mean: f64,
    /// Lower bound on any representable Q-value: the sum of each plane's minimum partial.
    pub q_min: f64,
    /// Upper bound on any representable Q-value: the sum of each plane's maximum partial.
    pub q_max: f64,
}

/// The partitioned Q-value store.
#[derive(Debug, Clone)]
pub struct QvStore {
    /// The quantised partial Q-values, plane-major then row-major: the entry of
    /// `(plane, row, action)` sits at [`QvStore::slot`]. One allocation per store.
    values: Vec<i8>,
    planes: usize,
    rows_per_plane: usize,
    actions: usize,
    q_step: f64,
    updates: u64,
}

impl QvStore {
    /// Creates a QVStore with `planes` planes of `rows_per_plane` rows and `actions` columns.
    /// `q_step` is the quantisation step of each 8-bit partial value.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `q_step` is not positive.
    pub fn new(planes: usize, rows_per_plane: usize, actions: usize, q_step: f64) -> Self {
        assert!(
            planes > 0 && rows_per_plane > 0 && actions > 0,
            "dimensions must be non-zero"
        );
        assert!(q_step > 0.0, "q_step must be positive");
        Self {
            values: vec![0; planes * rows_per_plane * actions],
            planes,
            rows_per_plane,
            actions,
            q_step,
            updates: 0,
        }
    }

    /// The paper's configuration: 8 planes × 64 rows × 4 actions, 8-bit entries.
    pub fn athena_sized() -> Self {
        Self::new(8, 64, 4, 0.05)
    }

    /// Number of planes.
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// Number of actions (columns per row).
    pub fn actions(&self) -> usize {
        self.actions
    }

    /// Total storage in bytes (one byte per entry).
    pub fn storage_bytes(&self) -> usize {
        self.values.len()
    }

    /// Number of SARSA updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Summary statistics over the stored values (one full pass over the table — a few
    /// thousand bytes; meant to be sampled at telemetry-window granularity, not per access).
    pub fn summary(&self) -> QvSummary {
        let mut s = QvSummary::default();
        let entries_per_plane = self.rows_per_plane * self.actions;
        for plane in self.values.chunks_exact(entries_per_plane) {
            let mut sum = 0i64;
            let mut min = i8::MAX;
            let mut max = i8::MIN;
            for &v in plane {
                sum += i64::from(v);
                min = min.min(v);
                max = max.max(v);
            }
            s.q_mean += sum as f64 / entries_per_plane as f64 * self.q_step;
            s.q_min += f64::from(min) * self.q_step;
            s.q_max += f64::from(max) * self.q_step;
        }
        s
    }

    /// The index into `values` of `(plane, row, action)`.
    fn slot(&self, plane: usize, row: usize, action: usize) -> usize {
        (plane * self.rows_per_plane + row) * self.actions + action
    }

    /// The hash of `state` for plane `plane`, producing a row index.
    fn row_index(&self, plane: usize, state: u32) -> usize {
        // Independent hashes per plane: multiply by a per-plane odd constant and fold.
        let seeds: [u64; 8] = [
            0x9e37_79b9_7f4a_7c15,
            0xc2b2_ae3d_27d4_eb4f,
            0x1656_67b1_9e37_79f9,
            0xd6e8_feb8_6659_fd93,
            0xa076_1d64_78bd_642f,
            0xe703_7ed1_a0b4_28db,
            0x8ebc_6af0_9c88_c6e3,
            0x5895_58cb_3423_a05d,
        ];
        let seed = seeds[plane % seeds.len()].wrapping_add(plane as u64);
        let h = (u64::from(state) ^ (u64::from(state) << 23)).wrapping_mul(seed);
        ((h >> 24) as usize) % self.rows_per_plane
    }

    /// Reads the Q-value of `(state, action)` by summing the partial values of every plane.
    pub fn q_value(&self, state: u32, action: usize) -> f64 {
        assert!(action < self.actions, "action {action} out of range");
        (0..self.planes)
            .map(|p| {
                f64::from(self.values[self.slot(p, self.row_index(p, state), action)]) * self.q_step
            })
            .sum()
    }

    /// Reads the Q-values of every action in `state`.
    pub fn q_values(&self, state: u32) -> Vec<f64> {
        (0..self.actions).map(|a| self.q_value(state, a)).collect()
    }

    /// The action with the highest Q-value in `state` (ties broken toward the highest
    /// action index, which corresponds to the most-enabling coordination action).
    pub fn best_action(&self, state: u32) -> usize {
        let qs = self.q_values(state);
        let mut best = 0;
        for (a, &q) in qs.iter().enumerate() {
            if q >= qs[best] {
                best = a;
            }
        }
        best
    }

    /// Applies the SARSA update
    /// `Q(s,a) ← Q(s,a) + α [r + γ Q(s',a') − Q(s,a)]`
    /// distributing the correction equally across planes (§5.1).
    // The SARSA transition (s, a, r, s', a') plus the two learning rates is inherently
    // seven values; bundling them into a struct would only obscure the textbook form.
    #[allow(clippy::too_many_arguments)]
    pub fn sarsa_update(
        &mut self,
        state: u32,
        action: usize,
        reward: f64,
        next_state: u32,
        next_action: usize,
        alpha: f64,
        gamma: f64,
    ) {
        assert!(action < self.actions && next_action < self.actions);
        let q_sa = self.q_value(state, action);
        let q_next = self.q_value(next_state, next_action);
        let delta = alpha * (reward + gamma * q_next - q_sa);
        let per_plane = delta / self.planes as f64;
        for p in 0..self.planes {
            let slot = self.slot(p, self.row_index(p, state), action);
            let old = f64::from(self.values[slot]) * self.q_step;
            let new = old + per_plane;
            let quantised = (new / self.q_step).round().clamp(-128.0, 127.0) as i8;
            self.values[slot] = quantised;
        }
        self.updates += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizing_is_2kb() {
        let s = QvStore::athena_sized();
        assert_eq!(s.storage_bytes(), 2048);
        assert_eq!(s.planes(), 8);
        assert_eq!(s.actions(), 4);
    }

    #[test]
    fn summary_tracks_learning() {
        let mut s = QvStore::athena_sized();
        let fresh = s.summary();
        assert_eq!(fresh, QvSummary::default());
        for _ in 0..50 {
            s.sarsa_update(7, 2, 1.0, 7, 2, 0.6, 0.6);
        }
        let learned = s.summary();
        assert!(learned.q_mean > 0.0, "positive learning raises the mean");
        assert!(learned.q_max >= s.q_value(7, 2) - 1e-9, "max bounds any Q");
        assert!(learned.q_min <= 0.0);
    }

    #[test]
    fn fresh_store_is_zero() {
        let s = QvStore::athena_sized();
        for a in 0..4 {
            assert_eq!(s.q_value(0x1234, a), 0.0);
        }
    }

    #[test]
    fn positive_rewards_raise_the_rewarded_action() {
        let mut s = QvStore::athena_sized();
        for _ in 0..50 {
            s.sarsa_update(7, 2, 1.0, 7, 2, 0.6, 0.6);
        }
        assert!(s.q_value(7, 2) > 0.5);
        assert_eq!(s.best_action(7), 2);
        // The other actions in the same state stay untouched.
        assert_eq!(s.q_value(7, 0), 0.0);
        assert_eq!(s.q_value(7, 1), 0.0);
    }

    #[test]
    fn negative_rewards_lower_the_action() {
        let mut s = QvStore::athena_sized();
        for _ in 0..50 {
            s.sarsa_update(9, 3, -1.0, 9, 3, 0.6, 0.6);
        }
        assert!(s.q_value(9, 3) < -0.5);
        assert_ne!(s.best_action(9), 3);
    }

    #[test]
    fn convergence_toward_reward_over_one_minus_gamma() {
        // Repeated SARSA updates with a constant reward r and the same (s, a) drive the
        // Q-value toward r / (1 - gamma). The 8-bit per-plane quantisation stalls the ascent
        // once the per-plane correction drops below half a step, so the value lands a little
        // below the analytic fixed point but must get most of the way there and never
        // overshoot.
        let mut s = QvStore::new(8, 64, 4, 0.01);
        for _ in 0..500 {
            s.sarsa_update(3, 1, 0.5, 3, 1, 0.3, 0.6);
        }
        let expected = 0.5 / (1.0 - 0.6);
        let q = s.q_value(3, 1);
        assert!(q > 0.7 * expected, "q={q} expected to approach {expected}");
        assert!(q <= expected + 0.05, "q={q} must not overshoot {expected}");
    }

    #[test]
    fn quantisation_saturates_instead_of_wrapping() {
        let mut s = QvStore::new(2, 8, 4, 0.05);
        for _ in 0..10_000 {
            s.sarsa_update(1, 0, 100.0, 1, 0, 0.9, 0.0);
        }
        // Max per plane is 127 * 0.05 = 6.35; with two planes the ceiling is 12.7.
        assert!(s.q_value(1, 0) <= 12.7 + 1e-9);
        for _ in 0..10_000 {
            s.sarsa_update(1, 0, -100.0, 1, 0, 0.9, 0.0);
        }
        assert!(s.q_value(1, 0) >= -12.8 - 1e-9);
    }

    #[test]
    fn different_states_are_mostly_independent() {
        let mut s = QvStore::athena_sized();
        for _ in 0..100 {
            s.sarsa_update(0xAAAA, 1, 1.0, 0xAAAA, 1, 0.6, 0.0);
        }
        // A very different state should see little of that learning (some aliasing through
        // shared planes is expected and intentional, but it must not dominate).
        assert!(s.q_value(0x5555, 1).abs() < s.q_value(0xAAAA, 1) / 2.0);
    }

    #[test]
    fn ties_break_toward_the_most_enabling_action() {
        let s = QvStore::athena_sized();
        assert_eq!(s.best_action(42), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_action_panics() {
        let s = QvStore::athena_sized();
        let _ = s.q_value(0, 4);
    }
}
