//! IPCP — Bouquet of Instruction Pointers: an L1D prefetcher that classifies each load PC
//! into one of three classes and prefetches with the class-appropriate strategy.
//!
//! Classes (following Pakalapati & Panda, ISCA 2020, in simplified form):
//!
//! * **CS (constant stride)** — the PC exhibits a stable line stride; prefetch `degree`
//!   strides ahead.
//! * **CPLX (complex)** — the PC's stride varies but recent delta signatures repeat;
//!   prefetch using the delta predicted by a signature table.
//! * **GS (global stream)** — the PC participates in a dense forward/backward stream across
//!   PCs within a region; prefetch the next lines in the stream direction.

use athena_sim::fastmap::FxHashMap;
use athena_sim::{AccessEvent, CacheLevel, PrefetchRequest, Prefetcher};

const LINE: u64 = 64;
const REGION_BYTES: u64 = 2048;
const IP_TABLE_CAP: usize = 1024;

#[derive(Debug, Clone, Copy, Default)]
struct IpEntry {
    last_line: u64,
    last_stride: i64,
    stride_confidence: u8,
    /// Signature of recent strides for the CPLX class.
    signature: u16,
}

#[derive(Debug, Clone, Copy, Default)]
struct RegionEntry {
    region: u64,
    dense_count: u8,
    last_line: u64,
    forward: bool,
}

/// The IPCP prefetcher (L1D).
#[derive(Debug, Clone)]
pub struct Ipcp {
    ip_table: FxHashMap<u64, IpEntry>,
    /// CPLX delta predictor: signature -> (predicted stride, confidence).
    cplx_table: FxHashMap<u16, (i64, u8)>,
    /// Small set of recently observed regions for global-stream detection.
    regions: Vec<RegionEntry>,
    degree: u32,
    max_degree: u32,
}

impl Ipcp {
    /// Creates an IPCP prefetcher with the paper's default aggressiveness (degree 4).
    pub fn new() -> Self {
        Self {
            ip_table: FxHashMap::default(),
            cplx_table: FxHashMap::default(),
            regions: vec![RegionEntry::default(); 16],
            degree: 4,
            max_degree: 4,
        }
    }

    fn update_global_stream(&mut self, line: u64) -> Option<(bool, u8)> {
        let region = (line * LINE) / REGION_BYTES;
        let slot = (region as usize) % self.regions.len();
        let entry = &mut self.regions[slot];
        if entry.region != region {
            *entry = RegionEntry {
                region,
                dense_count: 1,
                last_line: line,
                forward: true,
            };
            return None;
        }
        if line > entry.last_line {
            entry.forward = true;
        } else if line < entry.last_line {
            entry.forward = false;
        }
        entry.last_line = line;
        entry.dense_count = entry.dense_count.saturating_add(1);
        if entry.dense_count >= 4 {
            Some((entry.forward, entry.dense_count))
        } else {
            None
        }
    }
}

impl Default for Ipcp {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Ipcp {
    fn name(&self) -> &'static str {
        "ipcp"
    }

    fn level(&self) -> CacheLevel {
        CacheLevel::L1d
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let line = ev.addr / LINE;
        if self.ip_table.len() >= IP_TABLE_CAP && !self.ip_table.contains_key(&ev.pc) {
            self.ip_table.clear();
        }
        let entry = self.ip_table.entry(ev.pc).or_default();
        let mut class_cs: Option<i64> = None;
        let mut class_cplx: Option<i64> = None;

        if entry.last_line != 0 {
            let stride = line as i64 - entry.last_line as i64;
            if stride != 0 {
                // Constant-stride training.
                if stride == entry.last_stride {
                    entry.stride_confidence = (entry.stride_confidence + 1).min(3);
                } else {
                    entry.stride_confidence = entry.stride_confidence.saturating_sub(1);
                }
                // CPLX: learn stride under the current signature, then rotate the signature.
                let sig = entry.signature;
                let slot = self.cplx_table.entry(sig).or_insert((stride, 0));
                if slot.0 == stride {
                    slot.1 = (slot.1 + 1).min(3);
                } else if slot.1 == 0 {
                    slot.0 = stride;
                } else {
                    slot.1 -= 1;
                }
                entry.signature = ((sig << 3) ^ (stride as u16 & 0x3f)) & 0x0fff;
                entry.last_stride = stride;

                if entry.stride_confidence >= 2 {
                    class_cs = Some(stride);
                } else if let Some(&(pred, conf)) = self.cplx_table.get(&entry.signature) {
                    if conf >= 2 {
                        class_cplx = Some(pred);
                    }
                }
            }
        }
        entry.last_line = line;

        let degree = u64::from(self.degree);
        if let Some(stride) = class_cs {
            for d in 1..=degree as i64 {
                let target = line as i64 + stride * d;
                if target > 0 {
                    out.push(PrefetchRequest::new(target as u64 * LINE));
                }
            }
            return;
        }
        if let Some(stride) = class_cplx {
            for d in 1..=(degree as i64).min(2) {
                let target = line as i64 + stride * d;
                if target > 0 {
                    out.push(PrefetchRequest::new(target as u64 * LINE));
                }
            }
            return;
        }
        if let Some((forward, _density)) = self.update_global_stream(line) {
            for d in 1..=degree {
                let target = if forward {
                    line + d
                } else {
                    line.saturating_sub(d)
                };
                if target > 0 {
                    out.push(PrefetchRequest::new(target * LINE));
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

    #[test]
    fn constant_stride_pc_prefetches_ahead() {
        let mut p = Ipcp::new();
        let mut out = Vec::new();
        for i in 0..10u64 {
            out.clear();
            p.on_access(&ev(0x400, 0x10_0000 + i * 128), &mut out);
        }
        assert!(!out.is_empty());
        // 128-byte stride = 2 lines; the first prefetch is 2 lines ahead of the last access.
        let last = 0x10_0000 + 9 * 128;
        assert_eq!(out[0].addr, (last / 64 + 2) * 64);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn degree_limits_prefetch_count() {
        let mut p = Ipcp::new();
        p.set_degree(2);
        let mut out = Vec::new();
        for i in 0..10u64 {
            out.clear();
            p.on_access(&ev(0x400, 0x20_0000 + i * 64), &mut out);
        }
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn dense_region_without_per_pc_stride_uses_global_stream() {
        let mut p = Ipcp::new();
        let mut out = Vec::new();
        let mut produced = 0;
        // Different PCs walk the same region forward: no per-PC stride exists, but the
        // global stream class should kick in.
        for i in 0..32u64 {
            out.clear();
            p.on_access(&ev(0x400 + i * 4, 0x40_0000 + i * 64), &mut out);
            produced += out.len();
        }
        assert!(
            produced > 0,
            "global stream class should have produced prefetches"
        );
        if let Some(last) = out.last() {
            assert!(last.addr > 0x40_0000);
        }
    }

    #[test]
    fn irregular_stream_is_mostly_quiet() {
        let mut p = Ipcp::new();
        let mut out = Vec::new();
        let mut x = 0x9e37_79b9u64;
        let mut produced = 0;
        for _ in 0..300 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.clear();
            p.on_access(&ev(0x400 + (x % 8) * 4, (x >> 8) % (1 << 28)), &mut out);
            produced += out.len();
        }
        assert!(
            produced < 300,
            "irregular accesses should not trigger full-degree prefetching every time: {produced}"
        );
    }
}
