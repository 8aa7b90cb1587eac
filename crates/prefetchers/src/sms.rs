//! SMS — Spatial Memory Streaming (Somogyi et al., ISCA 2006), reproduced in simplified form.
//!
//! SMS observes which cache lines inside a spatial *region* (2 KiB here) a code path touches
//! after its first access to that region (the *footprint*), indexed by the trigger `(PC,
//! region offset)`. When the same trigger touches a new region, SMS replays the recorded
//! footprint as prefetches, capturing spatially correlated but non-strided patterns.

use athena_sim::fastmap::FxHashMap;
use athena_sim::{AccessEvent, CacheLevel, PrefetchRequest, Prefetcher};

const LINE: u64 = 64;
const REGION_BYTES: u64 = 2048;
const REGION_LINES: u64 = REGION_BYTES / LINE; // 32
const ACTIVE_GENERATIONS: usize = 64;
const PATTERN_TABLE_CAP: usize = 4096;

#[derive(Debug, Clone, Copy)]
struct ActiveGeneration {
    region: u64,
    trigger_key: u64,
    footprint: u32,
    accesses: u32,
}

/// The SMS prefetcher (L2C).
#[derive(Debug, Clone)]
pub struct Sms {
    /// Regions currently being observed (accumulation phase).
    active: Vec<Option<ActiveGeneration>>,
    /// Learned footprints: (pc, trigger offset) -> line bitmap within the region.
    patterns: FxHashMap<u64, u32>,
    degree: u32,
    max_degree: u32,
}

impl Sms {
    /// Creates an SMS prefetcher. The maximum degree (16) caps how many footprint lines are
    /// replayed per trigger.
    pub fn new() -> Self {
        Self {
            active: vec![None; ACTIVE_GENERATIONS],
            patterns: FxHashMap::default(),
            degree: 16,
            max_degree: 16,
        }
    }

    /// Number of learned footprints (diagnostics and tests).
    pub fn learned_patterns(&self) -> usize {
        self.patterns.len()
    }

    fn trigger_key(pc: u64, offset: u64) -> u64 {
        (pc << 6) ^ offset
    }

    fn slot_for(&self, region: u64) -> usize {
        (region as usize) % self.active.len()
    }
}

impl Default for Sms {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Sms {
    fn name(&self) -> &'static str {
        "sms"
    }

    fn level(&self) -> CacheLevel {
        CacheLevel::L2c
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let line = ev.addr / LINE;
        let region = ev.addr / REGION_BYTES;
        let region_base_line = region * REGION_LINES;
        let offset = line - region_base_line;
        let slot = self.slot_for(region);

        match self.active[slot] {
            Some(ref mut generation) if generation.region == region => {
                // Accumulation: add this line to the active footprint.
                generation.footprint |= 1 << offset;
                generation.accesses += 1;
            }
            other => {
                // A new region replaces whatever generation occupied the slot; commit the
                // evicted generation's footprint to the pattern table first.
                if let Some(old) = other {
                    if old.accesses >= 2 {
                        if self.patterns.len() >= PATTERN_TABLE_CAP {
                            self.patterns.clear();
                        }
                        self.patterns.insert(old.trigger_key, old.footprint);
                    }
                }
                let key = Self::trigger_key(ev.pc, offset);
                self.active[slot] = Some(ActiveGeneration {
                    region,
                    trigger_key: key,
                    footprint: 1 << offset,
                    accesses: 1,
                });
                // Prediction: replay the learned footprint for this trigger, if any.
                if let Some(&footprint) = self.patterns.get(&key) {
                    let mut issued = 0u32;
                    for bit in 0..REGION_LINES {
                        if issued >= self.degree {
                            break;
                        }
                        if bit != offset && footprint & (1 << bit) != 0 {
                            out.push(PrefetchRequest::new((region_base_line + bit) * LINE));
                            issued += 1;
                        }
                    }
                }
            }
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

    fn ev(pc: u64, addr: u64) -> AccessEvent {
        AccessEvent {
            pc,
            addr,
            cycle: 0,
            hit: false,
            first_use_of_prefetch: false,
            is_store: false,
        }
    }

    /// Touch a fixed footprint (lines 0, 3, 7, 9) in the given region, triggered by `pc`.
    fn touch_footprint(p: &mut Sms, pc: u64, region_base: u64, out: &mut Vec<PrefetchRequest>) {
        for &l in &[0u64, 3, 7, 9] {
            p.on_access(&ev(pc, region_base + l * 64), out);
        }
    }

    #[test]
    fn replays_a_learned_footprint_in_a_new_region() {
        let mut p = Sms::new();
        let mut out = Vec::new();
        // Visit many regions with the same footprint and same trigger PC. Regions are spaced
        // so they map to different active slots and force commits.
        for r in 0..80u64 {
            touch_footprint(&mut p, 0x400, r * 2048 + 0x100_0000, &mut out);
        }
        assert!(p.learned_patterns() > 0);
        // A fresh region triggered by the same PC at offset 0 should replay lines 3, 7, 9.
        out.clear();
        let base = 0x900_0000;
        p.on_access(&ev(0x400, base), &mut out);
        let prefetched: Vec<u64> = out.iter().map(|r| (r.addr - base) / 64).collect();
        assert!(prefetched.contains(&3), "prefetched={prefetched:?}");
        assert!(prefetched.contains(&7));
        assert!(prefetched.contains(&9));
    }

    #[test]
    fn degree_caps_replayed_lines() {
        let mut p = Sms::new();
        let mut out = Vec::new();
        // Dense footprints: touch every even line of each region.
        for r in 0..80u64 {
            for l in (0..32u64).step_by(2) {
                p.on_access(&ev(0x500, r * 2048 + 0x200_0000 + l * 64), &mut out);
            }
        }
        p.set_degree(4);
        out.clear();
        p.on_access(&ev(0x500, 0xa00_0000), &mut out);
        assert!(
            out.len() <= 4,
            "degree must cap footprint replay, got {}",
            out.len()
        );
    }

    #[test]
    fn unknown_trigger_produces_no_prefetch() {
        let mut p = Sms::new();
        let mut out = Vec::new();
        p.on_access(&ev(0x999, 0x5000_0000), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn prefetches_stay_inside_the_region() {
        let mut p = Sms::new();
        let mut out = Vec::new();
        for r in 0..80u64 {
            touch_footprint(&mut p, 0x400, r * 2048 + 0x300_0000, &mut out);
        }
        out.clear();
        let base = 0xb00_0000u64;
        p.on_access(&ev(0x400, base + 9 * 64), &mut out);
        for req in &out {
            assert!(req.addr / 2048 == (base + 9 * 64) / 2048);
        }
    }
}
