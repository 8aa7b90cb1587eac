//! TTP — a tag-tracking off-chip predictor (Jalili & Erez, HPCA 2022; also used as a
//! comparison point in Hermes).
//!
//! TTP mirrors which cache-line tags are currently resident on chip by observing fill and
//! eviction notifications from the last-level cache. A load whose line is not present in the
//! mirror is predicted to go off-chip. The mirror is deliberately large (the paper budgets
//! metadata comparable to the L2 capacity), which is why Athena's evaluation treats TTP as
//! the expensive-but-accurate end of the OCP spectrum.

use athena_sim::fastmap::FxHashSet;
use athena_sim::{CacheLevel, LoadContext, OffChipPredictor};

const LINE: u64 = 64;
/// Upper bound on tracked tags, to keep memory bounded on pathological traces. 64 K lines
/// mirrors a 4 MiB footprint, comfortably larger than the simulated LLC slice.
const TRACK_CAP: usize = 1 << 16;

/// The tag-tracking off-chip predictor.
#[derive(Debug, Clone, Default)]
pub struct Ttp {
    resident: FxHashSet<u64>,
    predictions: u64,
    off_chip_predictions: u64,
}

impl Ttp {
    /// Creates an empty tag tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lines currently believed to be on chip.
    pub fn tracked_lines(&self) -> usize {
        self.resident.len()
    }

    /// Total predictions made.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Predictions that said "off-chip".
    pub fn off_chip_predictions(&self) -> u64 {
        self.off_chip_predictions
    }
}

impl OffChipPredictor for Ttp {
    fn name(&self) -> &'static str {
        "ttp"
    }

    fn predict(&mut self, ctx: &LoadContext) -> bool {
        self.predictions += 1;
        let line = ctx.addr & !(LINE - 1);
        let off = !self.resident.contains(&line);
        if off {
            self.off_chip_predictions += 1;
        }
        off
    }

    fn confidence(&mut self, ctx: &LoadContext) -> f32 {
        let line = ctx.addr & !(LINE - 1);
        if self.resident.contains(&line) {
            0.0
        } else {
            1.0
        }
    }

    fn train(&mut self, _ctx: &LoadContext, _went_off_chip: bool) {
        // TTP is trained purely by residency tracking (fills and evictions).
    }

    fn on_fill(&mut self, line_addr: u64, level: CacheLevel) {
        if level == CacheLevel::Llc {
            if self.resident.len() >= TRACK_CAP {
                self.resident.clear();
            }
            self.resident.insert(line_addr & !(LINE - 1));
        }
    }

    fn on_evict(&mut self, line_addr: u64, level: CacheLevel) {
        if level == CacheLevel::Llc {
            self.resident.remove(&(line_addr & !(LINE - 1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(addr: u64) -> LoadContext {
        LoadContext {
            pc: 0x400,
            addr,
            line_offset_in_page: 0,
            byte_offset: 0,
            first_access_to_page: false,
            recent_pc_hash: 0,
        }
    }

    #[test]
    fn unseen_lines_are_predicted_off_chip() {
        let mut t = Ttp::new();
        assert!(t.predict(&ctx(0x1000)));
        assert_eq!(t.off_chip_predictions(), 1);
    }

    #[test]
    fn filled_lines_are_predicted_on_chip_until_evicted() {
        let mut t = Ttp::new();
        t.on_fill(0x2000, CacheLevel::Llc);
        assert!(!t.predict(&ctx(0x2010)), "same line, different byte");
        t.on_evict(0x2000, CacheLevel::Llc);
        assert!(t.predict(&ctx(0x2000)));
    }

    #[test]
    fn non_llc_notifications_are_ignored() {
        let mut t = Ttp::new();
        t.on_fill(0x3000, CacheLevel::L1d);
        t.on_fill(0x3000, CacheLevel::L2c);
        assert_eq!(t.tracked_lines(), 0);
        assert!(t.predict(&ctx(0x3000)));
    }

    #[test]
    fn confidence_is_binary() {
        let mut t = Ttp::new();
        t.on_fill(0x4000, CacheLevel::Llc);
        assert_eq!(t.confidence(&ctx(0x4000)), 0.0);
        assert_eq!(t.confidence(&ctx(0x8000)), 1.0);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut t = Ttp::new();
        for i in 0..(TRACK_CAP as u64 + 100) {
            t.on_fill(i * 64, CacheLevel::Llc);
        }
        assert!(t.tracked_lines() <= TRACK_CAP);
    }
}
