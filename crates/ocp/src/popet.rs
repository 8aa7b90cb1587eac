//! POPET — the perceptron-based off-chip predictor from Hermes (Bera et al., MICRO 2022).
//!
//! POPET hashes several program features of a load (PC, PC ⊕ cache-line offset within the
//! page, PC ⊕ byte offset, PC ⊕ first-access-to-page, and a short control-flow history) into
//! per-feature weight tables. The weights of the indexed entries are summed; if the sum
//! exceeds an activation threshold, the load is predicted to go off-chip. Training nudges the
//! indexed weights toward the observed outcome whenever the prediction was wrong or the sum
//! was not confident enough.

use athena_sim::{CacheLevel, LoadContext, OffChipPredictor};

const TABLE_BITS: usize = 11;
const TABLE_SIZE: usize = 1 << TABLE_BITS;
const NUM_FEATURES: usize = 5;
const WEIGHT_MAX: i8 = 31;
const WEIGHT_MIN: i8 = -32;
/// Prediction threshold: predict off-chip when the summed weight is at least this.
const ACTIVATION_THRESHOLD: i32 = 2;
/// Training threshold: keep training while |sum| is below this, even when correct.
const TRAINING_THRESHOLD: i32 = 14;

/// The POPET hashed-perceptron off-chip predictor.
#[derive(Debug, Clone)]
pub struct Popet {
    /// One weight table per feature. Weights stay in `WEIGHT_MIN..=WEIGHT_MAX`, so a byte
    /// holds each; sums are taken in `i32`.
    tables: Box<[[i8; TABLE_SIZE]; NUM_FEATURES]>,
    predictions: u64,
    positive_predictions: u64,
}

impl Popet {
    /// Creates a POPET predictor with the configuration used in the Hermes paper (five
    /// features, ~4 KB of weight storage).
    pub fn new() -> Self {
        Self {
            tables: Box::new([[0; TABLE_SIZE]; NUM_FEATURES]),
            predictions: 0,
            positive_predictions: 0,
        }
    }

    /// Total predictions made so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Number of predictions that were "off-chip".
    pub fn positive_predictions(&self) -> u64 {
        self.positive_predictions
    }

    fn feature_indices(ctx: &LoadContext) -> [usize; NUM_FEATURES] {
        let pc = ctx.pc >> 2;
        let mask = (TABLE_SIZE - 1) as u64;
        [
            (pc & mask) as usize,
            ((pc ^ u64::from(ctx.line_offset_in_page) << 5) & mask) as usize,
            ((pc ^ u64::from(ctx.byte_offset)) & mask) as usize,
            ((pc ^ (u64::from(ctx.first_access_to_page) << 9) ^ (pc >> 7)) & mask) as usize,
            ((ctx.recent_pc_hash ^ pc.rotate_left(13)) & mask) as usize,
        ]
    }

    fn sum(&self, idx: &[usize; NUM_FEATURES]) -> i32 {
        self.tables
            .iter()
            .zip(idx.iter())
            .map(|(t, &i)| i32::from(t[i]))
            .sum()
    }
}

impl Default for Popet {
    fn default() -> Self {
        Self::new()
    }
}

impl OffChipPredictor for Popet {
    fn name(&self) -> &'static str {
        "popet"
    }

    fn predict(&mut self, ctx: &LoadContext) -> bool {
        self.predictions += 1;
        let idx = Self::feature_indices(ctx);
        let off_chip = self.sum(&idx) >= ACTIVATION_THRESHOLD;
        if off_chip {
            self.positive_predictions += 1;
        }
        off_chip
    }

    fn confidence(&mut self, ctx: &LoadContext) -> f32 {
        let idx = Self::feature_indices(ctx);
        let sum = self.sum(&idx);
        // Map the perceptron sum into [0, 1] around the activation threshold.
        let x = (sum - ACTIVATION_THRESHOLD) as f32 / TRAINING_THRESHOLD as f32;
        (0.5 + 0.5 * x).clamp(0.0, 1.0)
    }

    fn train(&mut self, ctx: &LoadContext, went_off_chip: bool) {
        let idx = Self::feature_indices(ctx);
        let sum = self.sum(&idx);
        let predicted = sum >= ACTIVATION_THRESHOLD;
        if predicted != went_off_chip || sum.abs() < TRAINING_THRESHOLD {
            let delta = if went_off_chip { 1 } else { -1 };
            for (table, &i) in self.tables.iter_mut().zip(idx.iter()) {
                table[i] = (table[i] + delta).clamp(WEIGHT_MIN, WEIGHT_MAX);
            }
        }
    }

    fn on_fill(&mut self, _line_addr: u64, _level: CacheLevel) {}
    fn on_evict(&mut self, _line_addr: u64, _level: CacheLevel) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pc: u64, addr: u64, first: bool) -> LoadContext {
        LoadContext {
            pc,
            addr,
            line_offset_in_page: ((addr & 4095) / 64) as u8,
            byte_offset: (addr & 63) as u8,
            first_access_to_page: first,
            recent_pc_hash: pc.rotate_left(7),
        }
    }

    #[test]
    fn learns_an_always_off_chip_pc() {
        let mut p = Popet::new();
        for i in 0..200u64 {
            let c = ctx(0x400, 0x1000_0000 + i * 4096, true);
            p.predict(&c);
            p.train(&c, true);
        }
        let mut correct = 0;
        for i in 200..300u64 {
            let c = ctx(0x400, 0x1000_0000 + i * 4096, true);
            if p.predict(&c) {
                correct += 1;
            }
        }
        assert!(
            correct > 90,
            "should have learned the off-chip PC, got {correct}"
        );
    }

    #[test]
    fn learns_an_always_on_chip_pc() {
        let mut p = Popet::new();
        for i in 0..200u64 {
            let c = ctx(0x800, 0x20_0000 + (i % 16) * 64, false);
            p.predict(&c);
            p.train(&c, false);
        }
        let mut wrong = 0;
        for i in 0..100u64 {
            let c = ctx(0x800, 0x20_0000 + (i % 16) * 64, false);
            if p.predict(&c) {
                wrong += 1;
            }
        }
        assert!(
            wrong < 10,
            "should not predict off-chip for a cache-resident PC: {wrong}"
        );
    }

    #[test]
    fn distinguishes_two_pcs_with_opposite_behaviour() {
        let mut p = Popet::new();
        for i in 0..500u64 {
            let miss_ctx = ctx(0x400, 0x1000_0000 + i * 4096, true);
            p.train(&miss_ctx, true);
            let hit_ctx = ctx(0xf00, 0x30_0000 + (i % 8) * 64, false);
            p.train(&hit_ctx, false);
        }
        let mut acc = 0;
        for i in 0..100u64 {
            if p.predict(&ctx(0x400, 0x2000_0000 + i * 4096, true)) {
                acc += 1;
            }
            if !p.predict(&ctx(0xf00, 0x30_0000 + (i % 8) * 64, false)) {
                acc += 1;
            }
        }
        assert!(
            acc > 170,
            "per-PC separation should be strong, got {acc}/200"
        );
    }

    #[test]
    fn confidence_tracks_prediction() {
        let mut p = Popet::new();
        for i in 0..300u64 {
            let c = ctx(0x400, 0x1000_0000 + i * 4096, true);
            p.train(&c, true);
        }
        let c = ctx(0x400, 0x9000_0000, true);
        assert!(p.confidence(&c) > 0.5);
        let mut q = Popet::new();
        for i in 0..300u64 {
            let c = ctx(0x600, 0x40_0000 + (i % 4) * 64, false);
            q.train(&c, false);
        }
        assert!(q.confidence(&ctx(0x600, 0x40_0000, false)) < 0.5);
    }

    /// The predictor as it was before its weights were narrowed to bytes: one `i32` table
    /// per feature, clamped to the same bounds.
    struct WideReference {
        tables: Vec<Vec<i32>>,
    }

    impl WideReference {
        fn sum(&self, idx: &[usize; NUM_FEATURES]) -> i32 {
            self.tables.iter().zip(idx.iter()).map(|(t, &i)| t[i]).sum()
        }

        fn predict(&self, ctx: &LoadContext) -> bool {
            self.sum(&Popet::feature_indices(ctx)) >= ACTIVATION_THRESHOLD
        }

        fn confidence(&self, ctx: &LoadContext) -> f32 {
            let sum = self.sum(&Popet::feature_indices(ctx));
            let x = (sum - ACTIVATION_THRESHOLD) as f32 / TRAINING_THRESHOLD as f32;
            (0.5 + 0.5 * x).clamp(0.0, 1.0)
        }

        fn train(&mut self, ctx: &LoadContext, went_off_chip: bool) {
            let idx = Popet::feature_indices(ctx);
            let sum = self.sum(&idx);
            let predicted = sum >= ACTIVATION_THRESHOLD;
            if predicted != went_off_chip || sum.abs() < TRAINING_THRESHOLD {
                let delta = if went_off_chip { 1 } else { -1 };
                for (table, &i) in self.tables.iter_mut().zip(idx.iter()) {
                    table[i] =
                        (table[i] + delta).clamp(i32::from(WEIGHT_MIN), i32::from(WEIGHT_MAX));
                }
            }
        }
    }

    /// Random contexts from two families, built so that training drives weights to both
    /// clamps. A "noise" family (two PCs) labels each of 16 control-flow hashes by the
    /// hash's parity, pulling those shared hash weights far apart; the main family (one
    /// PC) labels by first-access-to-page, so its two first-access weights must outweigh
    /// that spread and saturate, one at each bound.
    fn saturating_sample(r: u64) -> (LoadContext, bool) {
        let hash = r % 16;
        let noise = (r >> 4) % 10 < 7;
        let (pc, first) = if noise {
            (0x8000 + ((r >> 8) & 1) * 4, false)
        } else {
            (0x1000, (r >> 8) & 1 == 1)
        };
        let ctx = LoadContext {
            pc,
            addr: 0,
            line_offset_in_page: ((r >> 9) % 4) as u8,
            byte_offset: ((r >> 11) % 4) as u8,
            first_access_to_page: first,
            recent_pc_hash: hash,
        };
        let went_off_chip = if noise { hash & 1 == 0 } else { first };
        (ctx, went_off_chip)
    }

    #[test]
    fn byte_weights_match_wide_weights() {
        let mut bytes = Popet::new();
        let mut wide = WideReference {
            tables: vec![vec![0; TABLE_SIZE]; NUM_FEATURES],
        };
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..100_000 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (c, went_off_chip) = saturating_sample(seed >> 24);
            assert_eq!(bytes.predict(&c), wide.predict(&c), "step {step}");
            assert_eq!(
                bytes.confidence(&c).to_bits(),
                wide.confidence(&c).to_bits(),
                "step {step}"
            );
            bytes.train(&c, went_off_chip);
            wide.train(&c, went_off_chip);
        }
        for (narrow, wide) in bytes.tables.iter().zip(&wide.tables) {
            assert!(narrow
                .iter()
                .map(|&w| i32::from(w))
                .eq(wide.iter().copied()));
        }
        let weights = || wide.tables.iter().flatten().copied();
        assert_eq!(weights().max(), Some(i32::from(WEIGHT_MAX)));
        assert_eq!(weights().min(), Some(i32::from(WEIGHT_MIN)));
    }

    #[test]
    fn weights_saturate() {
        let mut p = Popet::new();
        let c = ctx(0x400, 0x1000_0000, true);
        for _ in 0..10_000 {
            p.train(&c, true);
        }
        // After saturation, a single opposite training step must not flip the prediction.
        p.train(&c, false);
        assert!(p.predict(&c));
    }
}
