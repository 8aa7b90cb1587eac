//! Pythia — a customizable hardware prefetcher using online reinforcement learning (Bera et
//! al., MICRO 2021), reproduced in simplified form.
//!
//! Pythia treats prefetching itself as an RL problem: the *state* is a program feature
//! vector (here: the load PC combined with the most recent line delta, and the page offset
//! combined with a short delta-history signature), the *actions* are prefetch offsets (plus
//! "do not prefetch"), and the *reward* reflects whether an issued prefetch turned out to be
//! accurate. Q-values live in two hashed vaults whose partial values are summed, mirroring
//! the original design's feature vaults, and are updated online from prefetch-usefulness
//! feedback delivered by the memory hierarchy.

use athena_sim::fastmap::FxHashMap;
use athena_sim::{AccessEvent, CacheLevel, PrefetchRequest, Prefetcher};

const LINE: u64 = 64;
/// Candidate prefetch offsets (in cache lines). Index 0 means "do not prefetch".
const ACTIONS: [i64; 13] = [0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, -1, -2];
const VAULT_SIZE: usize = 1 << 10;
const ALPHA: f32 = 0.15;
const EPSILON_NUM: u64 = 1; // explore with probability 1/32
const EPSILON_DEN: u64 = 32;
/// Reward for an accurate prefetch (demanded while resident).
const REWARD_ACCURATE: f32 = 20.0;
/// Penalty for an inaccurate prefetch (evicted unused).
const REWARD_INACCURATE: f32 = -14.0;
/// Small reward for correctly choosing not to prefetch when the access hit anyway.
const REWARD_NO_PREFETCH_HIT: f32 = 2.0;
/// Penalty for not prefetching when the access missed.
const REWARD_NO_PREFETCH_MISS: f32 = -4.0;
const INFLIGHT_CAP: usize = 1 << 14;

#[derive(Debug, Clone, Copy)]
struct StateSig {
    vault1_index: usize,
    vault2_index: usize,
}

/// The Pythia RL prefetcher (L2C).
#[derive(Debug, Clone)]
pub struct Pythia {
    vault1: Vec<[f32; ACTIONS.len()]>,
    vault2: Vec<[f32; ACTIONS.len()]>,
    /// Outstanding prefetches: line -> (state, action index) awaiting a reward.
    inflight: FxHashMap<u64, (StateSig, usize)>,
    last_line_by_page: FxHashMap<u64, u64>,
    delta_history_sig: u64,
    rng_state: u64,
    degree: u32,
    max_degree: u32,
    issued: u64,
    rewarded_accurate: u64,
    rewarded_inaccurate: u64,
}

impl Pythia {
    /// Creates a Pythia prefetcher with its default configuration.
    pub fn new() -> Self {
        Self {
            vault1: vec![[0.0; ACTIONS.len()]; VAULT_SIZE],
            vault2: vec![[0.0; ACTIONS.len()]; VAULT_SIZE],
            inflight: FxHashMap::default(),
            last_line_by_page: FxHashMap::default(),
            delta_history_sig: 0,
            rng_state: 0x243f_6a88_85a3_08d3,
            degree: 4,
            max_degree: 4,
            issued: 0,
            rewarded_accurate: 0,
            rewarded_inaccurate: 0,
        }
    }

    /// Number of prefetches rewarded as accurate so far (for tests and diagnostics).
    pub fn accurate_feedback(&self) -> u64 {
        self.rewarded_accurate
    }

    /// Number of prefetches rewarded as inaccurate so far.
    pub fn inaccurate_feedback(&self) -> u64 {
        self.rewarded_inaccurate
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn state_of(&self, pc: u64, line: u64, delta: i64) -> StateSig {
        let page_offset = line & 63;
        let f1 = (pc >> 2) ^ ((delta as u64) << 7) ^ (pc << 3);
        let f2 = page_offset ^ (self.delta_history_sig << 6) ^ (self.delta_history_sig >> 9);
        StateSig {
            vault1_index: (f1 as usize) % VAULT_SIZE,
            vault2_index: (f2 as usize) % VAULT_SIZE,
        }
    }

    fn q(&self, s: &StateSig, a: usize) -> f32 {
        self.vault1[s.vault1_index][a] + self.vault2[s.vault2_index][a]
    }

    fn update(&mut self, s: &StateSig, a: usize, reward: f32) {
        let q = self.q(s, a);
        let delta = ALPHA * (reward - q);
        self.vault1[s.vault1_index][a] += delta / 2.0;
        self.vault2[s.vault2_index][a] += delta / 2.0;
    }

    /// Every action with its Q-value, best first; ties keep action order (stable sort).
    fn best_actions(&self, s: &StateSig) -> [(usize, f32); ACTIONS.len()] {
        let mut scored: [(usize, f32); ACTIONS.len()] = std::array::from_fn(|a| (a, self.q(s, a)));
        scored.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap_or(std::cmp::Ordering::Equal));
        scored
    }
}

impl Default for Pythia {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Pythia {
    fn name(&self) -> &'static str {
        "pythia"
    }

    fn level(&self) -> CacheLevel {
        CacheLevel::L2c
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let line = ev.addr / LINE;
        let page = ev.addr >> 12;
        let delta = match self.last_line_by_page.get(&page) {
            Some(&prev) => line as i64 - prev as i64,
            None => 0,
        };
        if self.last_line_by_page.len() >= 4096 {
            self.last_line_by_page.clear();
        }
        self.last_line_by_page.insert(page, line);
        self.delta_history_sig = ((self.delta_history_sig << 5) ^ ((delta as u64) & 0x3f)) & 0xffff;

        let state = self.state_of(ev.pc, line, delta);

        // epsilon-greedy action selection.
        let explore = self.next_rand() % EPSILON_DEN < EPSILON_NUM;
        let ranked = self.best_actions(&state);
        let mut chosen = [0usize; ACTIONS.len()];
        let mut n_chosen = 0;
        if explore {
            chosen[0] = (self.next_rand() as usize) % ACTIONS.len();
            n_chosen = 1;
        } else {
            for &(a, q) in ranked.iter().take(self.degree as usize) {
                if ACTIONS[a] != 0 && q > 0.0 || ranked[0].0 == a {
                    chosen[n_chosen] = a;
                    n_chosen += 1;
                }
            }
        }

        for &a in &chosen[..n_chosen] {
            let offset = ACTIONS[a];
            if offset == 0 {
                // Chose "no prefetch": reward immediately based on whether the demand hit.
                let r = if ev.hit {
                    REWARD_NO_PREFETCH_HIT
                } else {
                    REWARD_NO_PREFETCH_MISS
                };
                self.update(&state, a, r);
                continue;
            }
            let target = line as i64 + offset;
            if target <= 0 {
                continue;
            }
            let target_line = target as u64;
            out.push(PrefetchRequest::new(target_line * LINE));
            self.issued += 1;
            if self.inflight.len() < INFLIGHT_CAP {
                self.inflight.insert(target_line * LINE, (state, a));
            }
        }
    }

    fn on_prefetch_hit(&mut self, line_addr: u64) {
        if let Some((state, action)) = self.inflight.remove(&line_addr) {
            self.rewarded_accurate += 1;
            self.update(&state, action, REWARD_ACCURATE);
        }
    }

    fn on_prefetch_evicted_unused(&mut self, line_addr: u64) {
        if let Some((state, action)) = self.inflight.remove(&line_addr) {
            self.rewarded_inaccurate += 1;
            self.update(&state, action, REWARD_INACCURATE);
        }
    }

    fn max_degree(&self) -> u32 {
        self.max_degree
    }

    fn degree(&self) -> u32 {
        self.degree
    }

    fn set_degree(&mut self, degree: u32) {
        self.degree = degree.clamp(1, self.max_degree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u64, addr: u64, hit: bool) -> AccessEvent {
        AccessEvent {
            pc,
            addr,
            cycle: 0,
            hit,
            first_use_of_prefetch: false,
            is_store: false,
        }
    }

    /// Drives Pythia on a streaming pattern, feeding back "accurate" for any prefetch that
    /// matches a line later demanded.
    fn run_stream(p: &mut Pythia, n: u64) -> (u64, u64) {
        let mut outstanding: Vec<u64> = Vec::new();
        let mut useful = 0u64;
        let mut issued = 0u64;
        for i in 0..n {
            let addr = 0x100_0000 + i * 64;
            // Deliver feedback for prefetches that predicted this address.
            if let Some(pos) = outstanding.iter().position(|&a| a == addr) {
                outstanding.remove(pos);
                p.on_prefetch_hit(addr);
                useful += 1;
            }
            let mut out = Vec::new();
            p.on_access(&ev(0x400, addr, false), &mut out);
            for r in out {
                issued += 1;
                if outstanding.len() < 64 {
                    outstanding.push(r.addr);
                } else {
                    // Evicted unused.
                    let old = outstanding.remove(0);
                    p.on_prefetch_evicted_unused(old);
                    outstanding.push(r.addr);
                }
            }
        }
        (issued, useful)
    }

    #[test]
    fn learns_to_prefetch_a_stream() {
        let mut p = Pythia::new();
        let (_issued, useful) = run_stream(&mut p, 4000);
        assert!(
            useful > 500,
            "after training, sequential prefetches should regularly be useful: {useful}"
        );
        assert!(p.accurate_feedback() > p.inaccurate_feedback());
    }

    #[test]
    fn learns_to_back_off_on_random_traffic() {
        let mut p = Pythia::new();
        // Random accesses where every prefetch is eventually evicted unused.
        let mut x = 0xdead_beefu64;
        let mut early_issued = 0u64;
        let mut late_issued = 0u64;
        for i in 0..12_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = (x >> 10) % (1 << 32);
            let mut out = Vec::new();
            p.on_access(&ev(0x400 + (x % 4) * 8, addr, false), &mut out);
            for r in &out {
                // Every prefetch is useless.
                p.on_prefetch_evicted_unused(r.addr);
            }
            if i < 2000 {
                early_issued += out.len() as u64;
            } else if i >= 10_000 {
                late_issued += out.len() as u64;
            }
        }
        assert!(
            late_issued * 2 < early_issued.max(1) * 3,
            "negative rewards should reduce prefetch volume: early={early_issued} late={late_issued}"
        );
    }

    #[test]
    fn degree_bounds_prefetches_per_trigger() {
        let mut p = Pythia::new();
        p.set_degree(1);
        let mut out = Vec::new();
        for i in 0..200u64 {
            out.clear();
            p.on_access(&ev(0x400, 0x200_0000 + i * 64, false), &mut out);
            assert!(
                out.len() <= 1,
                "degree 1 must cap prefetches, got {}",
                out.len()
            );
        }
    }

    #[test]
    fn feedback_for_unknown_lines_is_ignored() {
        let mut p = Pythia::new();
        p.on_prefetch_hit(0x1234_0000);
        p.on_prefetch_evicted_unused(0x5678_0000);
        assert_eq!(p.accurate_feedback(), 0);
        assert_eq!(p.inaccurate_feedback(), 0);
    }
}
