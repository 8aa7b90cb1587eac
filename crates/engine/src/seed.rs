//! Deterministic per-job seed derivation.
//!
//! Every [`crate::Job`] carries a seed that is a pure function of the *identity* of its
//! simulation cell — experiment name, workload (or mix), system configuration, coordination
//! policy and instruction budget — and never of scheduling state (worker id, submission
//! order, wall-clock). Two consequences:
//!
//! * results are bit-identical whether a batch runs on one worker or sixteen, and whether
//!   jobs are submitted in enumeration order or shuffled;
//! * re-running a single failed cell in isolation reproduces the original run exactly,
//!   because nothing about the rest of the batch feeds into its seed.
//!
//! The hash is the workspace's one word-at-a-time hash ([`athena_store::hash64`]) over
//! length-delimited parts, finished through a SplitMix64 avalanche so that near-identical
//! cell identities (e.g. `fig12c` at 6 vs 18 cycles of OCP issue latency) land far apart in
//! seed space.

use athena_store::{hash64, HASH_START};

/// A tiny streaming hasher for seed derivation: [`athena_store::hash64`] over parts,
/// SplitMix64 finalisation.
///
/// Every part is one `hash64` call, which folds the part's length in after its bytes, so
/// parts are length-delimited: `("ab", "c")` and `("a", "bc")` hash differently.
///
/// ```
/// use athena_engine::SeedHasher;
///
/// let mut h = SeedHasher::new();
/// h.write_str("fig7");
/// h.write_str("410.bwaves-1963B");
/// h.write_u64(400_000);
/// let seed = h.finish();
/// assert_ne!(seed, 0);
/// ```
#[derive(Debug, Clone)]
pub struct SeedHasher {
    state: u64,
}

impl SeedHasher {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Self { state: HASH_START }
    }

    /// Feeds one part of raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.state = hash64(self.state, bytes);
    }

    /// Feeds a string part.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a 64-bit integer part (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Returns the derived seed. The hasher can keep absorbing parts afterwards.
    pub fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

impl Default for SeedHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 finalisation step: a strong avalanche over the raw hash state.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hashes string parts in order, the way a cell identity is fed in.
    fn seed_of(parts: &[&str]) -> u64 {
        let mut h = SeedHasher::new();
        for p in parts {
            h.write_str(p);
        }
        h.finish()
    }

    #[test]
    fn seeds_are_stable_across_calls() {
        assert_eq!(
            seed_of(&["fig7", "w1", "cfg"]),
            seed_of(&["fig7", "w1", "cfg"])
        );
    }

    #[test]
    fn seeds_separate_nearby_identities() {
        let a = seed_of(&["fig12c", "w1", "6-cycles"]);
        let b = seed_of(&["fig12c", "w1", "18-cycles"]);
        assert_ne!(a, b);
        // The avalanche should flip roughly half the bits, not just a few.
        assert!((a ^ b).count_ones() >= 16);
    }

    #[test]
    fn parts_are_length_delimited() {
        assert_ne!(seed_of(&["ab", "c"]), seed_of(&["a", "bc"]));
        assert_ne!(seed_of(&["ab"]), seed_of(&["ab", ""]));
    }

    #[test]
    fn u64_parts_participate() {
        let mut a = SeedHasher::new();
        a.write_str("x");
        a.write_u64(400_000);
        let mut b = SeedHasher::new();
        b.write_str("x");
        b.write_u64(40_000);
        assert_ne!(a.finish(), b.finish());
    }
}
