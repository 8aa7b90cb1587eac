//! Berti — a timely local-delta L1D prefetcher (Navarro-Torres et al., MICRO 2022), in
//! simplified form.
//!
//! Berti learns, per load PC, which *local deltas* (distance between the current access and
//! earlier accesses by the same PC) would have produced timely and accurate prefetches, and
//! issues only the deltas whose historical coverage exceeds a confidence threshold. Compared
//! to IPCP it issues fewer but more accurate prefetches.

use athena_sim::fastmap::FxHashMap;
use athena_sim::{AccessEvent, CacheLevel, PrefetchRequest, Prefetcher};

const LINE: u64 = 64;
const HISTORY_LEN: usize = 16;
const DELTA_CANDIDATES: usize = 16;
const TABLE_CAP: usize = 512;
/// A delta must have covered at least this fraction of recent accesses to be used.
const COVERAGE_THRESHOLD: f32 = 0.35;
/// Number of accesses per PC between delta re-evaluations.
const EVAL_PERIOD: u32 = 32;

#[derive(Debug, Clone, Default)]
struct PcEntry {
    /// Recent line addresses accessed by this PC (most recent last).
    history: Vec<u64>,
    /// Candidate deltas and how many times each covered an access.
    delta_hits: FxHashMap<i64, u32>,
    accesses_since_eval: u32,
    total_accesses: u32,
    /// Deltas currently selected for prefetching, best first.
    best_deltas: Vec<i64>,
}

/// The Berti prefetcher (L1D).
#[derive(Debug, Clone)]
pub struct Berti {
    table: FxHashMap<u64, PcEntry>,
    degree: u32,
    max_degree: u32,
}

impl Berti {
    /// Creates a Berti prefetcher with its default aggressiveness (degree 4).
    pub fn new() -> Self {
        Self {
            table: FxHashMap::default(),
            degree: 4,
            max_degree: 4,
        }
    }
}

/// The (at most four) deltas whose coverage `hits / denom` reaches the threshold, best
/// first. The order is total — coverage descending, then delta ascending — so the choice
/// between equally-covered deltas does not depend on the order `hits` yields them in, which
/// for a hash map depends on its insertion and growth history.
fn select_deltas(hits: impl Iterator<Item = (i64, u32)>, denom: f32) -> Vec<i64> {
    let mut scored: Vec<(i64, f32)> = hits
        .map(|(d, hits)| (d, hits as f32 / denom))
        .filter(|&(_, cov)| cov >= COVERAGE_THRESHOLD)
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    scored.into_iter().map(|(d, _)| d).take(4).collect()
}

impl Default for Berti {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Berti {
    fn name(&self) -> &'static str {
        "berti"
    }

    fn level(&self) -> CacheLevel {
        CacheLevel::L1d
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let line = ev.addr / LINE;
        if self.table.len() >= TABLE_CAP && !self.table.contains_key(&ev.pc) {
            self.table.clear();
        }
        let entry = self.table.entry(ev.pc).or_default();

        // Training: which candidate deltas from history would have predicted this access?
        for &past in entry.history.iter().rev().take(DELTA_CANDIDATES) {
            let delta = line as i64 - past as i64;
            if delta != 0 && delta.abs() <= 64 {
                *entry.delta_hits.entry(delta).or_insert(0) += 1;
            }
        }
        entry.history.push(line);
        if entry.history.len() > HISTORY_LEN {
            entry.history.remove(0);
        }
        entry.total_accesses += 1;
        entry.accesses_since_eval += 1;

        // Periodically re-select the best deltas.
        if entry.accesses_since_eval >= EVAL_PERIOD {
            entry.best_deltas = select_deltas(
                entry.delta_hits.iter().map(|(&d, &hits)| (d, hits)),
                entry.accesses_since_eval as f32,
            );
            entry.delta_hits.clear();
            entry.accesses_since_eval = 0;
        }

        // Prediction: issue the selected deltas, limited by the current degree.
        for &delta in entry.best_deltas.iter().take(self.degree as usize) {
            let target = line as i64 + delta;
            if target > 0 {
                out.push(PrefetchRequest::new(target as u64 * LINE));
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
    fn learns_a_repeating_delta_after_evaluation() {
        let mut p = Berti::new();
        let mut out = Vec::new();
        for i in 0..80u64 {
            out.clear();
            p.on_access(&ev(0x400, 0x10_0000 + i * 64), &mut out);
        }
        assert!(!out.is_empty(), "a forward delta should be selected");
        // Every selected delta in a monotone stream points ahead of the last access, so all
        // prefetches land on lines the stream will demand soon.
        let last_line = (0x10_0000u64 + 79 * 64) / 64;
        for r in &out {
            let line = r.addr / 64;
            assert!(line > last_line && line <= last_line + 64, "line={line}");
        }
    }

    #[test]
    fn random_pattern_selects_no_deltas() {
        let mut p = Berti::new();
        let mut out = Vec::new();
        let mut x = 7u64;
        let mut produced = 0;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            out.clear();
            p.on_access(&ev(0x400, (x >> 5) % (1 << 30)), &mut out);
            produced += out.len();
        }
        assert!(
            produced < 20,
            "random accesses should rarely select a confident delta, got {produced}"
        );
    }

    #[test]
    fn degree_caps_emitted_deltas() {
        let mut p = Berti::new();
        p.set_degree(1);
        let mut out = Vec::new();
        // A pattern with two strong deltas (+1 and +2): alternate steps of 1 and 2 lines.
        let mut addr = 0x20_0000u64;
        for i in 0..100u64 {
            out.clear();
            addr += if i % 2 == 0 { 64 } else { 128 };
            p.on_access(&ev(0x500, addr), &mut out);
        }
        assert!(out.len() <= 1);
    }

    #[test]
    fn equally_covered_deltas_are_selected_deterministically() {
        // Six deltas above the threshold, four of them tied: the tiebreak, not the order
        // the delta table yields them in, must decide which four are kept.
        let hits = [
            (5, 20),
            (-3, 20),
            (2, 30),
            (7, 20),
            (1, 20),
            (9, 3),
            (4, 20),
        ];
        let forward = select_deltas(hits.iter().copied(), 32.0);
        let backward = select_deltas(hits.iter().rev().copied(), 32.0);
        assert_eq!(forward, vec![2, -3, 1, 4]);
        assert_eq!(forward, backward);
    }

    #[test]
    fn berti_is_more_selective_than_full_degree_every_access() {
        // Berti should not emit prefetches before it has evaluated coverage at least once.
        let mut p = Berti::new();
        let mut out = Vec::new();
        for i in 0..16u64 {
            p.on_access(&ev(0x600, 0x30_0000 + i * 64), &mut out);
        }
        assert!(
            out.is_empty(),
            "no prefetches before the first evaluation period"
        );
    }
}
