//! SPP+PPF — Signature Path Prefetcher (Kim et al., MICRO 2016) with the Perceptron-based
//! Prefetch Filter (Bhatia et al., ISCA 2019), reproduced in simplified form.
//!
//! SPP tracks, per 4 KiB page, a compressed *signature* of the recent delta history and
//! learns which delta usually follows each signature. On every trigger it walks the
//! signature path speculatively ("lookahead"), multiplying per-step confidences, and
//! proposes prefetches while the path confidence stays above a threshold. PPF is a
//! perceptron that inspects every proposal (features: signature, delta, depth, trigger PC)
//! and vetoes the ones that historically turned out useless.

use athena_sim::fastmap::FxHashMap;
use athena_sim::{AccessEvent, CacheLevel, PrefetchRequest, Prefetcher};

const LINE: u64 = 64;
const PAGE_LINES: i64 = 64;
const SIGNATURE_TABLE_CAP: usize = 2048;
const PAGE_TABLE_CAP: usize = 1024;
const LOOKAHEAD_CONFIDENCE_THRESHOLD: f32 = 0.30;
const PPF_TABLE_SIZE: usize = 1 << 10;
const PPF_THRESHOLD: i32 = 0;
const PPF_WEIGHT_MAX: i32 = 31;
const INFLIGHT_CAP: usize = 1 << 14;

#[derive(Debug, Clone, Copy, Default)]
struct PageEntry {
    signature: u16,
    last_offset: i64,
    valid: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct PatternEntry {
    delta: i64,
    count: u32,
    total: u32,
}

#[derive(Debug, Clone, Copy)]
struct PpfFeatures {
    signature: u16,
    delta: i64,
    depth: u32,
    pc: u64,
}

/// The SPP+PPF prefetcher (L2C).
#[derive(Debug, Clone)]
pub struct SppPpf {
    pages: FxHashMap<u64, PageEntry>,
    patterns: FxHashMap<u16, PatternEntry>,
    /// Perceptron weight tables, one per feature.
    ppf_sig: Vec<i32>,
    ppf_delta: Vec<i32>,
    ppf_depth: Vec<i32>,
    ppf_pc: Vec<i32>,
    /// Outstanding prefetches awaiting usefulness feedback: line addr -> features.
    inflight: FxHashMap<u64, PpfFeatures>,
    degree: u32,
    max_degree: u32,
}

impl SppPpf {
    /// Creates an SPP+PPF prefetcher with its default lookahead depth (8).
    pub fn new() -> Self {
        Self {
            pages: FxHashMap::default(),
            patterns: FxHashMap::default(),
            ppf_sig: vec![1; PPF_TABLE_SIZE],
            ppf_delta: vec![1; PPF_TABLE_SIZE],
            ppf_depth: vec![1; PPF_TABLE_SIZE],
            ppf_pc: vec![1; PPF_TABLE_SIZE],
            inflight: FxHashMap::default(),
            degree: 8,
            max_degree: 8,
        }
    }

    fn sign_update(signature: u16, delta: i64) -> u16 {
        ((signature << 3) ^ ((delta as u16) & 0x3f)) & 0x0fff
    }

    fn ppf_indices(f: &PpfFeatures) -> (usize, usize, usize, usize) {
        (
            f.signature as usize % PPF_TABLE_SIZE,
            ((f.delta + 64) as usize) % PPF_TABLE_SIZE,
            (f.depth as usize * 97) % PPF_TABLE_SIZE,
            ((f.pc >> 2) as usize) % PPF_TABLE_SIZE,
        )
    }

    fn ppf_score(&self, f: &PpfFeatures) -> i32 {
        let (a, b, c, d) = Self::ppf_indices(f);
        self.ppf_sig[a] + self.ppf_delta[b] + self.ppf_depth[c] + self.ppf_pc[d]
    }

    fn ppf_train(&mut self, f: &PpfFeatures, useful: bool) {
        let (a, b, c, d) = Self::ppf_indices(f);
        let adjust = |w: &mut i32| {
            *w = if useful {
                (*w + 1).min(PPF_WEIGHT_MAX)
            } else {
                (*w - 1).max(-PPF_WEIGHT_MAX)
            };
        };
        adjust(&mut self.ppf_sig[a]);
        adjust(&mut self.ppf_delta[b]);
        adjust(&mut self.ppf_depth[c]);
        adjust(&mut self.ppf_pc[d]);
    }
}

impl Default for SppPpf {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for SppPpf {
    fn name(&self) -> &'static str {
        "spp+ppf"
    }

    fn level(&self) -> CacheLevel {
        CacheLevel::L2c
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let line = ev.addr / LINE;
        let page = ev.addr >> 12;
        let offset = (line & 63) as i64;

        if self.pages.len() >= PAGE_TABLE_CAP && !self.pages.contains_key(&page) {
            self.pages.clear();
        }
        let entry = self.pages.entry(page).or_default();

        // Train the pattern table with the observed delta under the previous signature.
        if entry.valid {
            let delta = offset - entry.last_offset;
            if delta != 0 {
                if self.patterns.len() >= SIGNATURE_TABLE_CAP
                    && !self.patterns.contains_key(&entry.signature)
                {
                    self.patterns.clear();
                }
                let pat = self.patterns.entry(entry.signature).or_default();
                pat.total += 1;
                if pat.delta == delta {
                    pat.count += 1;
                } else if pat.count == 0 {
                    pat.delta = delta;
                    pat.count = 1;
                } else {
                    pat.count -= 1;
                }
                entry.signature = Self::sign_update(entry.signature, delta);
            }
        }
        entry.last_offset = offset;
        entry.valid = true;

        // Lookahead: walk the signature path while confidence holds.
        let mut signature = entry.signature;
        let mut current_offset = offset;
        let mut confidence = 1.0f32;
        let base_line = line - (line & 63);
        for depth in 1..=self.degree {
            let Some(pat) = self.patterns.get(&signature) else {
                break;
            };
            if pat.total == 0 || pat.count == 0 {
                break;
            }
            let step_conf = pat.count as f32 / pat.total as f32;
            confidence *= step_conf;
            if confidence < LOOKAHEAD_CONFIDENCE_THRESHOLD {
                break;
            }
            let next_offset = current_offset + pat.delta;
            if !(0..PAGE_LINES).contains(&next_offset) {
                break;
            }
            let target_line = base_line + next_offset as u64;
            let features = PpfFeatures {
                signature,
                delta: pat.delta,
                depth,
                pc: ev.pc,
            };
            if self.ppf_score(&features) >= PPF_THRESHOLD {
                let addr = target_line * LINE;
                out.push(PrefetchRequest::new(addr));
                if self.inflight.len() < INFLIGHT_CAP {
                    self.inflight.insert(addr, features);
                }
            }
            signature = Self::sign_update(signature, pat.delta);
            current_offset = next_offset;
        }
    }

    fn on_prefetch_hit(&mut self, line_addr: u64) {
        if let Some(f) = self.inflight.remove(&line_addr) {
            self.ppf_train(&f, true);
        }
    }

    fn on_prefetch_evicted_unused(&mut self, line_addr: u64) {
        if let Some(f) = self.inflight.remove(&line_addr) {
            self.ppf_train(&f, false);
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

    #[test]
    fn sequential_page_walk_triggers_lookahead() {
        let mut p = SppPpf::new();
        let mut issued = 0usize;
        let mut out = Vec::new();
        // Walk several pages sequentially so the +1 signature path becomes confident.
        for page in 0..8u64 {
            for l in 0..60u64 {
                out.clear();
                p.on_access(&ev(0x400, page * 4096 + l * 64), &mut out);
                issued += out.len();
            }
        }
        assert!(
            issued > 100,
            "confident +1 path should issue lookahead prefetches: {issued}"
        );
        // The last trigger should have prefetched lines ahead of the current offset.
        assert!(out.iter().all(|r| r.addr > 7 * 4096 + 59 * 64));
    }

    #[test]
    fn lookahead_depth_is_bounded_by_degree() {
        let mut p = SppPpf::new();
        p.set_degree(2);
        let mut out = Vec::new();
        for page in 0..4u64 {
            for l in 0..60u64 {
                out.clear();
                p.on_access(&ev(0x400, 0x100_0000 + page * 4096 + l * 64), &mut out);
                assert!(out.len() <= 2);
            }
        }
    }

    #[test]
    fn prefetches_stay_within_the_page() {
        let mut p = SppPpf::new();
        let mut out = Vec::new();
        for page in 0..4u64 {
            for l in 0..64u64 {
                p.on_access(&ev(0x400, page * 4096 + l * 64), &mut out);
            }
        }
        for r in &out {
            let trigger_page_start = r.addr & !4095;
            assert!(r.addr >= trigger_page_start && r.addr < trigger_page_start + 4096);
        }
    }

    #[test]
    fn ppf_learns_to_veto_useless_paths() {
        let mut p = SppPpf::new();
        let mut out = Vec::new();
        // Train a confident pattern, then mark every prefetch useless; the filter should cut
        // the issue rate substantially.
        let mut early = 0usize;
        let mut late = 0usize;
        for round in 0..40u64 {
            for page in 0..4u64 {
                for l in 0..60u64 {
                    out.clear();
                    p.on_access(&ev(0x400, (round * 4 + page) * 4096 + l * 64), &mut out);
                    for r in &out {
                        p.on_prefetch_evicted_unused(r.addr);
                    }
                    if round < 5 {
                        early += out.len();
                    } else if round >= 35 {
                        late += out.len();
                    }
                }
            }
        }
        assert!(
            late < early / 2,
            "PPF should suppress a path whose prefetches are always useless: early={early} late={late}"
        );
    }

    #[test]
    fn random_accesses_build_no_confident_path() {
        let mut p = SppPpf::new();
        let mut out = Vec::new();
        let mut x = 3u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.on_access(&ev(0x400, (x >> 7) % (1 << 30)), &mut out);
        }
        assert!(
            out.len() < 400,
            "random traffic should rarely pass the confidence threshold: {}",
            out.len()
        );
    }
}
