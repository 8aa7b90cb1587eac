//! Classic per-PC stride prefetcher (reference prediction table).

use athena_sim::fastmap::FxHashMap;
use athena_sim::{AccessEvent, CacheLevel, PrefetchRequest, Prefetcher};

const LINE: i64 = 64;
const TABLE_CAP: usize = 1024;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// A reference-prediction-table stride prefetcher: it learns, per load PC, the byte stride
/// between consecutive accesses and prefetches ahead once the stride repeats.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    level: CacheLevel,
    table: FxHashMap<u64, Entry>,
    degree: u32,
    max_degree: u32,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher attached at `level`.
    pub fn new(level: CacheLevel) -> Self {
        Self {
            level,
            table: FxHashMap::default(),
            degree: 4,
            max_degree: 4,
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn level(&self) -> CacheLevel {
        self.level
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        if self.table.len() >= TABLE_CAP && !self.table.contains_key(&ev.pc) {
            self.table.clear();
        }
        let entry = self.table.entry(ev.pc).or_default();
        if entry.last_addr != 0 {
            let stride = ev.addr as i64 - entry.last_addr as i64;
            if stride != 0 {
                if stride == entry.stride {
                    entry.confidence = (entry.confidence + 1).min(3);
                } else {
                    entry.confidence = entry.confidence.saturating_sub(1);
                    if entry.confidence == 0 {
                        entry.stride = stride;
                    }
                }
            }
        }
        entry.last_addr = ev.addr;

        if entry.confidence >= 2 && entry.stride != 0 {
            // Prefetch whole lines ahead; skip degenerate sub-line strides that stay within
            // the current line.
            let stride = if entry.stride.abs() < LINE {
                if entry.stride > 0 {
                    LINE
                } else {
                    -LINE
                }
            } else {
                entry.stride
            };
            for d in 1..=i64::from(self.degree) {
                let target = ev.addr as i64 + stride * d;
                if target > 0 {
                    out.push(PrefetchRequest::new(target as u64));
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
    fn learns_a_constant_stride() {
        let mut p = StridePrefetcher::new(CacheLevel::L2c);
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            p.on_access(&ev(0x400, 0x10_0000 + i * 256), &mut out);
        }
        assert!(!out.is_empty());
        assert_eq!(out[0].addr, 0x10_0000 + 7 * 256 + 256);
    }

    #[test]
    fn different_pcs_do_not_interfere() {
        let mut p = StridePrefetcher::new(CacheLevel::L2c);
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            p.on_access(&ev(0x400, 0x10_0000 + i * 128), &mut out);
            p.on_access(&ev(0x500, 0x90_0000 + i * 4096), &mut out);
        }
        // The last trigger (pc 0x500) should prefetch with its own 4096 stride.
        assert!(out.iter().any(|r| r.addr == 0x90_0000 + 7 * 4096 + 4096));
    }

    #[test]
    fn random_addresses_produce_few_prefetches() {
        let mut p = StridePrefetcher::new(CacheLevel::L2c);
        let mut out = Vec::new();
        let mut x = 0x1234_5678u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.on_access(&ev(0x400, x % (1 << 30)), &mut out);
        }
        assert!(
            out.len() < 40,
            "random access stream should rarely trigger stride prefetches, got {}",
            out.len()
        );
    }

    #[test]
    fn sub_line_strides_are_promoted_to_line_strides() {
        let mut p = StridePrefetcher::new(CacheLevel::L1d);
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            p.on_access(&ev(0x400, 0x10_0000 + i * 8), &mut out);
        }
        assert!(!out.is_empty());
        // Prefetches jump by whole lines even though the access stride is 8 bytes.
        assert_eq!(out[0].addr, 0x10_0000 + 7 * 8 + 64);
    }
}
