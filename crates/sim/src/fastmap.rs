//! A fast, deterministic hasher for the simulator's and mechanisms' address-keyed tables.
//!
//! The hierarchy's pollution and provenance trackers and its page filter, the prefetchers'
//! tables and TTP's tag mirror key sets and maps by simulated addresses or PCs on every
//! access. `std`'s default SipHash is keyed for HashDoS resistance the simulator does not
//! need (the keys are simulated addresses, not attacker input) and costs a large fraction
//! of each probe. This is the classic `FxHash` multiply-rotate scheme instead: a fixed
//! (unseeded) function, so runs stay bit-deterministic, roughly 5× cheaper per `u64` key.
//!
//! [`FxHasher::finish`] rotates the product before the table sees it. The table picks a
//! bucket from the hash's low bits, and `key * SEED` keeps the key's trailing zeros: a
//! line address has six, a page address twelve. Unrotated, such keys start their probes
//! in one bucket out of 64 (or 4096) and pile up; rotated, the low bits come from the
//! product's well-mixed top.
//!
//! Determinism note: hash-map *iteration order* still depends on capacity growth history,
//! so no simulator code may let that order reach a result; the maps are used for
//! insert/remove/contains, and the one mechanism that iterates (Berti's delta table) sorts
//! with a total order first. The `sim`, `prefetchers` and `ocp` crates' `clippy.toml`
//! disallow `std`'s `HashMap`/`HashSet`, so these aliases are the only hash containers there.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher (FxHash) with a rotating finish; not HashDoS-resistant, which
/// is fine for simulated addresses.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash.rotate_left(5) ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Bits 38..63 of the product become the low bits the table indexes with.
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` producing [`FxHasher`]s (stateless, so every map hashes identically).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_across_instances() {
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(hash(0xdead_beef), hash(0xdead_beef));
        assert_ne!(hash(1), hash(2));
    }

    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        // 1024 line addresses: without the rotating finish their hashes keep six zero low
        // bits and share 16 of the 1024 values the low ten bits can take.
        let low_bits: std::collections::BTreeSet<u64> = (0..1024u64)
            .map(|line| {
                let mut h = FxHasher::default();
                h.write_u64(line * 64);
                h.finish() & 1023
            })
            .collect();
        assert!(low_bits.len() > 512, "{} distinct", low_bits.len());
    }

    #[test]
    fn map_and_set_behave_like_std() {
        let mut m: FxHashMap<u64, usize> = FxHashMap::default();
        assert_eq!(m.insert(42, 1), None);
        assert_eq!(m.insert(42, 2), Some(1));
        assert_eq!(m.remove(&42), Some(2));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.remove(&7));
        assert!(!s.remove(&7));
    }
}
