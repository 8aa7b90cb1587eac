//! Set-associative cache model with LRU and SHiP-style replacement, per-line prefetch
//! metadata and eviction reporting.
//!
//! The cache simulates contents exactly (tags, replacement state, dirty bits) so that
//! prefetch-induced pollution, prefetch usefulness and off-chip behaviour emerge from the
//! simulated workload rather than from analytical approximations.
//!
//! Line state is two flat arrays indexed by `set * ways + way`: the tags, and one 16-byte
//! `LineMeta` record per line holding everything else (ready cycle, LRU stamp, SHiP
//! signature, flag bits, RRIP value). The set scan reads only the tag array, a branch-free
//! equality sweep over adjacent words; a hit or a fill then touches that one record instead
//! of an entry in each of five arrays. The observable semantics — scan order,
//! first-match priority, LRU tie-breaking on the first minimum, RRIP aging, every
//! counter's update order — are those of the original per-line struct scan, which is what
//! keeps end-of-run statistics byte-identical (pinned by `tests/sim_oracle.rs`).
//!
//! LRU stamps are 32-bit. Victim choice compares only the stamps within one set, and those
//! are distinct, so before the clock would pass `u32::MAX` every set's stamps are replaced
//! by their ranks and the clock restarts at `ways`, above every rank: the order, and so
//! every decision, is unchanged. Only SHiP caches keep the signature table and line
//! signatures; an LRU cache never reads them.
//!
//! Ways fill in index order and no line is ever invalidated, so a per-set fill count says
//! which lines are valid: ways `0..filled[set]`. The tag sweep covers only those ways and
//! needs no per-way validity test, and nothing ever reads a way at or beyond the count.
//! That is what lets a new cache skip initialising its line arrays: a dropped cache hands
//! its arrays to a small per-thread spare list, and the next cache of the same geometry on
//! that thread takes them back as they are. Only the fill counts and, for a SHiP cache, the
//! signature table are reset. The paper's hierarchy holds about 1.7 MB of line state and a
//! short cell touches a small part of it, so initialising that state for every cell would
//! dominate the cell's set-up cost.

use crate::trace::LINE_SIZE;

/// Identifies a level of the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// First-level data cache.
    L1d,
    /// Private unified second-level cache.
    L2c,
    /// Shared last-level cache.
    Llc,
}

impl std::fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLevel::L1d => write!(f, "L1D"),
            CacheLevel::L2c => write!(f, "L2C"),
            CacheLevel::Llc => write!(f, "LLC"),
        }
    }
}

/// Replacement policy used by a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used.
    Lru,
    /// Signature-based Hit Predictor (SHiP)-style re-reference interval prediction. Lines
    /// whose PC signature rarely produces re-references are inserted with a distant
    /// re-reference prediction and are evicted first.
    Ship,
}

/// Static configuration of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name used in statistics output.
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Round-trip lookup latency in cycles.
    pub latency: u64,
    /// Number of miss-status holding registers (bounds outstanding misses).
    pub mshrs: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Number of sets implied by the capacity, associativity and 64-byte lines.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (LINE_SIZE * self.ways as u64)).max(1) as usize
    }
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The line was present (possibly still in flight).
    Hit {
        /// The line was brought in by a prefetch and this is the first demand touch.
        first_use_of_prefetch: bool,
        /// Cycle at which the line's data is (or was) actually available. For lines whose
        /// fill is still in flight — typically prefetches waiting on the DRAM bus — this is
        /// in the future and the demand must wait for it.
        ready_cycle: u64,
    },
    /// The line was absent.
    Miss,
}

impl LookupOutcome {
    /// Returns `true` for a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, LookupOutcome::Hit { .. })
    }
}

/// Description of a line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned address of the victim.
    pub line_addr: u64,
    /// Whether the victim was dirty (requires a writeback).
    pub dirty: bool,
    /// Whether the victim was brought in by a prefetch.
    pub was_prefetch: bool,
    /// Whether the victim was ever demanded while resident.
    pub was_used: bool,
    /// Whether the eviction was caused by a prefetch fill (i.e. the *new* line is a
    /// prefetch). Used for pollution accounting.
    pub evicted_by_prefetch: bool,
}

const SHIP_TABLE_SIZE: usize = 1 << 12;
const RRPV_MAX: u8 = 3;

// Per-line metadata flag bits (packed into one byte per line).
const F_DIRTY: u8 = 1 << 0;
/// Brought in by a prefetch and not yet demanded.
const F_PREFETCH: u8 = 1 << 1;
/// Demanded at least once while resident.
const F_USED: u8 = 1 << 2;

/// Everything a line holds besides its tag, packed so that a hit or a fill touches one
/// 16-byte record.
#[derive(Debug, Clone, Copy)]
struct LineMeta {
    /// Cycle at which the line's data is (or was) available.
    ready: u64,
    /// The cache clock at the line's last touch; replaced by its rank within the set when
    /// the clock restarts.
    lru: u32,
    /// SHiP signature of the filling PC (SHiP caches only).
    signature: u16,
    /// `F_*` bits.
    flags: u8,
    /// RRIP re-reference prediction value.
    rrpv: u8,
}

const _: () = assert!(std::mem::size_of::<LineMeta>() == 16);

/// Most dropped caches' arrays one thread keeps for reuse. A cell drops three caches per
/// simulated core; beyond this many the oldest arrays are freed.
const SPARE_CAP: usize = 32;

/// The state arrays of one cache: its per-set fill counts, its SHiP table and its two
/// per-line arrays (`sets * ways` long each). The per-line contents of a way at or beyond
/// its set's fill count are stale, and nothing reads them there.
struct CacheArrays {
    filled: Vec<u8>,
    ship_table: Vec<u8>,
    tags: Vec<u64>,
    meta: Vec<LineMeta>,
}

thread_local! {
    /// Arrays of caches dropped on this thread, oldest first.
    static SPARE_ARRAYS: std::cell::RefCell<Vec<CacheArrays>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl CacheArrays {
    /// Arrays for an empty cache of `sets` × `ways`: the most recently dropped ones of that
    /// geometry on this thread, or new ones when there are none. `ship` says whether the
    /// cache reads its SHiP table.
    fn take(sets: usize, ways: usize, ship: bool) -> Self {
        let lines = sets * ways;
        let mut arrays = SPARE_ARRAYS
            .try_with(|spare| {
                let mut spare = spare.borrow_mut();
                let pos = spare
                    .iter()
                    .rposition(|a| a.filled.len() == sets && a.tags.len() == lines)?;
                Some(spare.remove(pos))
            })
            .ok()
            .flatten()
            .unwrap_or_else(|| Self {
                filled: vec![0; sets],
                ship_table: vec![0; SHIP_TABLE_SIZE],
                tags: vec![0; lines],
                meta: vec![
                    LineMeta {
                        ready: 0,
                        lru: 0,
                        signature: 0,
                        flags: 0,
                        rrpv: 0,
                    };
                    lines
                ],
            });
        // The only reset: no way holds a line, and every SHiP counter starts weakly
        // re-referenced.
        arrays.filled.fill(0);
        if ship {
            arrays.ship_table.fill(1);
        }
        arrays
    }

    /// Keeps these arrays for the next cache of the same geometry on this thread.
    fn recycle(self) {
        // During thread teardown the list may already be gone; the arrays are then freed.
        let _ = SPARE_ARRAYS.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() == SPARE_CAP {
                spare.remove(0);
            }
            spare.push(self);
        });
    }
}

/// A set-associative cache with exact content simulation.
///
/// Line state lives in two flat arrays indexed by `set * ways + way`, the tags and one
/// packed metadata record per line — see the module docs for the layout rationale.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    level: CacheLevel,
    set_count: usize,
    ways: usize,
    /// `set_count - 1` when the set count is a power of two (the common case for every
    /// shipped configuration); the set index is then a mask and the tag a shift.
    set_mask: u64,
    /// `log2(set_count)` when the set count is a power of two.
    set_shift: u32,
    /// Whether the power-of-two fast path applies; otherwise division is used, producing
    /// the same `(set, tag)` values.
    pow2: bool,
    /// Whether the replacement policy is SHiP, the only one that reads signatures.
    ship: bool,
    /// Valid ways per set: ways `0..filled[set]` hold lines, the rest are empty.
    filled: Vec<u8>,
    // --- line state, indexed by set * ways + way ---
    tags: Vec<u64>,
    meta: Vec<LineMeta>,
    lru_clock: u32,
    /// SHiP signature outcome counters (2-bit saturating).
    ship_table: Vec<u8>,
    // Statistics.
    accesses: u64,
    hits: u64,
    misses: u64,
    prefetch_fills: u64,
    demand_fills: u64,
    useful_prefetches: u64,
    evicted_unused_prefetches: u64,
}

impl Cache {
    /// Creates an empty cache with the given configuration at the given level.
    ///
    /// # Panics
    ///
    /// If `config.ways` is 0 or more than 255 (the per-set fill count is a byte).
    pub fn new(config: CacheConfig, level: CacheLevel) -> Self {
        let ways = config.ways;
        assert!(
            (1..=u8::MAX as usize).contains(&ways),
            "cache {}: ways must be between 1 and {}, got {ways}",
            config.name,
            u8::MAX
        );
        let set_count = config.sets();
        let ship = config.replacement == Replacement::Ship;
        let CacheArrays {
            filled,
            ship_table,
            tags,
            meta,
        } = CacheArrays::take(set_count, ways, ship);
        let pow2 = set_count.is_power_of_two();
        Self {
            config,
            level,
            set_count,
            ways,
            set_mask: set_count as u64 - 1,
            set_shift: set_count.trailing_zeros(),
            pow2,
            ship,
            filled,
            tags,
            meta,
            lru_clock: 0,
            ship_table,
            accesses: 0,
            hits: 0,
            misses: 0,
            prefetch_fills: 0,
            demand_fills: 0,
            useful_prefetches: 0,
            evicted_unused_prefetches: 0,
        }
    }

    /// The level this cache sits at.
    pub fn level(&self) -> CacheLevel {
        self.level
    }

    /// The static configuration of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Round-trip lookup latency in cycles.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    #[inline]
    fn index_of(&self, line_addr: u64) -> (usize, u64) {
        let line = line_addr / LINE_SIZE;
        if self.pow2 {
            ((line & self.set_mask) as usize, line >> self.set_shift)
        } else {
            (
                (line % self.set_count as u64) as usize,
                line / self.set_count as u64,
            )
        }
    }

    /// Index of the first valid way in `set` whose tag matches, scanning ways in order.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.filled[set] as usize]
            .iter()
            .position(|&t| t == tag)
    }

    fn ship_index(pc: u64) -> usize {
        ((pc >> 2) ^ (pc >> 13)) as usize % SHIP_TABLE_SIZE
    }

    /// Advances the LRU clock by one and returns it, restarting it first if it would pass
    /// `u32::MAX`.
    #[inline]
    fn tick(&mut self) -> u32 {
        if self.lru_clock == u32::MAX {
            self.restart_clock();
        }
        self.lru_clock += 1;
        self.lru_clock
    }

    /// Replaces every set's LRU stamps with their ranks within the set (0 for the oldest)
    /// and restarts the clock at `ways`, above every rank. Victim choice reads only the
    /// order of the stamps within one set, which the ranks keep (equal stamps, which do not
    /// occur, would keep their way order), so no later decision changes.
    #[cold]
    #[inline(never)]
    fn restart_clock(&mut self) {
        let mut order: Vec<usize> = Vec::with_capacity(self.ways);
        for set in 0..self.set_count {
            let base = set * self.ways;
            let lines = &mut self.meta[base..base + self.filled[set] as usize];
            order.clear();
            order.extend(0..lines.len());
            order.sort_by_key(|&way| lines[way].lru);
            for (rank, &way) in order.iter().enumerate() {
                lines[way].lru = rank as u32;
            }
        }
        self.lru_clock = self.ways as u32;
    }

    /// Looks up `addr` as a demand access, updating replacement and prefetch-use metadata.
    /// Returns whether the access hit.
    pub fn lookup(&mut self, addr: u64) -> LookupOutcome {
        self.accesses += 1;
        let clock = self.tick();
        let line_addr = addr & !(LINE_SIZE - 1);
        let (set, tag) = self.index_of(line_addr);
        if let Some(way) = self.find_way(set, tag) {
            self.hits += 1;
            let m = &mut self.meta[set * self.ways + way];
            let first_use = m.flags & F_PREFETCH != 0 && m.flags & F_USED == 0;
            m.flags = (m.flags | F_USED) & !F_PREFETCH;
            m.lru = clock;
            m.rrpv = 0;
            let (signature, ready_cycle) = (m.signature, m.ready);
            if first_use {
                self.useful_prefetches += 1;
            }
            if self.ship {
                // SHiP: the signature that filled this line produced a re-reference.
                let sig = signature as usize % SHIP_TABLE_SIZE;
                self.ship_table[sig] = (self.ship_table[sig] + 1).min(3);
            }
            return LookupOutcome::Hit {
                first_use_of_prefetch: first_use,
                ready_cycle,
            };
        }
        self.misses += 1;
        LookupOutcome::Miss
    }

    /// Probes for `addr` without modifying any state. Used by tag-tracking predictors and
    /// tests.
    pub fn probe(&self, addr: u64) -> bool {
        let line_addr = addr & !(LINE_SIZE - 1);
        let (set, tag) = self.index_of(line_addr);
        self.find_way(set, tag).is_some()
    }

    /// Marks the line containing `addr` dirty if present (store hit).
    pub fn mark_dirty(&mut self, addr: u64) {
        let line_addr = addr & !(LINE_SIZE - 1);
        let (set, tag) = self.index_of(line_addr);
        if let Some(way) = self.find_way(set, tag) {
            self.meta[set * self.ways + way].flags |= F_DIRTY;
        }
    }

    /// Fills the line containing `addr`, evicting a victim if the set is full.
    ///
    /// `is_prefetch` marks the new line as a prefetch (not yet demanded); `pc` is the
    /// triggering instruction used for SHiP signatures; `ready_cycle` is when the fill's
    /// data actually arrives (demand hits before that cycle must wait for it). Returns the
    /// evicted line, if any valid line had to be replaced.
    pub fn fill(
        &mut self,
        addr: u64,
        is_prefetch: bool,
        pc: u64,
        ready_cycle: u64,
    ) -> Option<EvictedLine> {
        let line_addr = addr & !(LINE_SIZE - 1);
        let (set, tag) = self.index_of(line_addr);
        let clock = self.tick();

        if is_prefetch {
            self.prefetch_fills += 1;
        } else {
            self.demand_fills += 1;
        }

        // If already present just refresh metadata (e.g. a demand fill racing a prefetch).
        if let Some(way) = self.find_way(set, tag) {
            let m = &mut self.meta[set * self.ways + way];
            m.lru = clock;
            m.rrpv = if is_prefetch { 2 } else { 0 };
            m.ready = m.ready.min(ready_cycle);
            if !is_prefetch {
                m.flags = (m.flags | F_USED) & !F_PREFETCH;
            }
            return None;
        }

        // A fill evicts exactly when its set was already full.
        let full = self.filled[set] as usize == self.ways;
        let i = set * self.ways + self.choose_victim(set);
        let victim = if full {
            let f = self.meta[i].flags;
            Some(EvictedLine {
                line_addr: (self.tags[i] * self.set_count as u64 + set as u64) * LINE_SIZE,
                dirty: f & F_DIRTY != 0,
                was_prefetch: f & F_PREFETCH != 0,
                was_used: f & F_USED != 0,
                evicted_by_prefetch: is_prefetch,
            })
        } else {
            self.filled[set] += 1;
            None
        };

        if let Some(ev) = &victim {
            if ev.was_prefetch && !ev.was_used {
                self.evicted_unused_prefetches += 1;
                if self.ship {
                    // SHiP: the filling signature produced no re-reference.
                    let sig = self.meta[i].signature as usize % SHIP_TABLE_SIZE;
                    self.ship_table[sig] = self.ship_table[sig].saturating_sub(1);
                }
            }
        }

        let (signature, predicted_dead) = if self.ship {
            let signature = Self::ship_index(pc) as u16;
            (
                signature,
                self.ship_table[signature as usize % SHIP_TABLE_SIZE] == 0,
            )
        } else {
            (0, false)
        };
        self.tags[i] = tag;
        self.meta[i] = LineMeta {
            ready: ready_cycle,
            lru: clock,
            signature,
            flags: if is_prefetch { F_PREFETCH } else { F_USED },
            rrpv: if predicted_dead || is_prefetch {
                RRPV_MAX - 1
            } else {
                1
            },
        };
        victim
    }

    /// The way a fill into `set` takes: the first empty way while the set is not full,
    /// otherwise the replacement policy's victim.
    fn choose_victim(&mut self, set: usize) -> usize {
        let filled = self.filled[set] as usize;
        if filled < self.ways {
            return filled;
        }
        let lines = &mut self.meta[set * self.ways..(set + 1) * self.ways];
        match self.config.replacement {
            Replacement::Lru => {
                // First minimum wins, matching `Iterator::min_by_key` on the former
                // per-line struct scan.
                let mut best = 0usize;
                let mut best_lru = lines[0].lru;
                for (way, line) in lines.iter().enumerate().skip(1) {
                    if line.lru < best_lru {
                        best = way;
                        best_lru = line.lru;
                    }
                }
                best
            }
            Replacement::Ship => {
                // RRIP victim selection: evict a line with RRPV_MAX, aging until one exists.
                loop {
                    if let Some(idx) = lines.iter().position(|l| l.rrpv >= RRPV_MAX) {
                        return idx;
                    }
                    for l in lines.iter_mut() {
                        l.rrpv = (l.rrpv + 1).min(RRPV_MAX);
                    }
                }
            }
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.filled.iter().map(|&n| n as usize).sum()
    }

    /// Total lookups performed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Demand hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of prefetch fills performed.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Number of prefetched lines demanded at least once.
    pub fn useful_prefetches(&self) -> u64 {
        self.useful_prefetches
    }

    /// Number of prefetched lines evicted without ever being demanded.
    pub fn evicted_unused_prefetches(&self) -> u64 {
        self.evicted_unused_prefetches
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        CacheArrays {
            filled: std::mem::take(&mut self.filled),
            ship_table: std::mem::take(&mut self.ship_table),
            tags: std::mem::take(&mut self.tags),
            meta: std::mem::take(&mut self.meta),
        }
        .recycle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache(replacement: Replacement) -> Cache {
        Cache::new(
            CacheConfig {
                name: "T",
                size_bytes: 4 * LINE_SIZE * 2, // 2 sets, 4 ways
                ways: 4,
                latency: 3,
                mshrs: 4,
                replacement,
            },
            CacheLevel::L1d,
        )
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny_cache(Replacement::Lru);
        assert_eq!(c.lookup(0x1000), LookupOutcome::Miss);
        assert!(c.fill(0x1000, false, 0x400, 0).is_none());
        assert!(c.lookup(0x1000).is_hit());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = tiny_cache(Replacement::Lru);
        c.fill(0x1000, false, 0, 0);
        assert!(c.lookup(0x103f).is_hit());
        assert!(!c.lookup(0x1040).is_hit());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny_cache(Replacement::Lru);
        // Fill 4 ways of set 0 (stride = 2 lines because there are 2 sets).
        let stride = 2 * LINE_SIZE;
        for i in 0..4u64 {
            c.fill(i * stride, false, 0, 0);
        }
        // Touch lines 1..3 so line 0 is LRU.
        for i in 1..4u64 {
            assert!(c.lookup(i * stride).is_hit());
        }
        let ev = c.fill(4 * stride, false, 0, 0).expect("set was full");
        assert_eq!(ev.line_addr, 0);
        assert!(!c.probe(0));
        assert!(c.probe(4 * stride));
    }

    #[test]
    fn prefetch_first_use_is_reported_once() {
        let mut c = tiny_cache(Replacement::Lru);
        c.fill(0x2000, true, 0x77, 0);
        match c.lookup(0x2000) {
            LookupOutcome::Hit {
                first_use_of_prefetch,
                ..
            } => assert!(first_use_of_prefetch),
            LookupOutcome::Miss => panic!("expected hit"),
        }
        match c.lookup(0x2000) {
            LookupOutcome::Hit {
                first_use_of_prefetch,
                ..
            } => assert!(!first_use_of_prefetch),
            LookupOutcome::Miss => panic!("expected hit"),
        }
        assert_eq!(c.useful_prefetches(), 1);
    }

    #[test]
    fn eviction_reports_prefetch_metadata() {
        let mut c = tiny_cache(Replacement::Lru);
        let stride = 2 * LINE_SIZE;
        c.fill(0, true, 0, 0); // unused prefetch, will become LRU victim
        for i in 1..4u64 {
            c.fill(i * stride, false, 0, 0);
        }
        let ev = c.fill(4 * stride, true, 0, 0).expect("eviction");
        assert_eq!(ev.line_addr, 0);
        assert!(ev.was_prefetch);
        assert!(!ev.was_used);
        assert!(ev.evicted_by_prefetch);
        assert_eq!(c.evicted_unused_prefetches(), 1);
    }

    #[test]
    fn dirty_bit_follows_stores() {
        let mut c = tiny_cache(Replacement::Lru);
        let stride = 2 * LINE_SIZE;
        c.fill(0, false, 0, 0);
        c.mark_dirty(0x10);
        for i in 1..4u64 {
            c.fill(i * stride, false, 0, 0);
        }
        let ev = c.fill(4 * stride, false, 0, 0).expect("eviction");
        assert!(ev.dirty);
    }

    #[test]
    fn set_evicts_only_from_its_ways_th_distinct_fill() {
        let mut c = tiny_cache(Replacement::Lru);
        let stride = 2 * LINE_SIZE; // every line below maps to set 0
        for i in 0..4u64 {
            assert!(
                c.fill(i * stride, false, 0, 0).is_none(),
                "fill {i} evicted"
            );
            // Refilling a resident line takes no way.
            assert!(c.fill(i * stride, false, 0, 0).is_none());
            assert_eq!(c.occupancy(), i as usize + 1);
        }
        // Make way 2 the least recently used.
        for i in [0u64, 1, 3] {
            assert!(c.lookup(i * stride).is_hit());
        }
        let ev = c.fill(4 * stride, false, 0, 0).expect("fifth fill evicts");
        assert_eq!(ev.line_addr, 2 * stride);
        assert_eq!(c.occupancy(), 4);
        // The other set is untouched and still empty.
        assert!(c.fill(LINE_SIZE, false, 0, 0).is_none());
        assert_eq!(c.occupancy(), 5);
    }

    fn cache_with_ways(ways: usize) -> Cache {
        Cache::new(
            CacheConfig {
                name: "T",
                size_bytes: 4096 * LINE_SIZE,
                ways,
                latency: 1,
                mshrs: 1,
                replacement: Replacement::Lru,
            },
            CacheLevel::L1d,
        )
    }

    #[test]
    #[should_panic(expected = "cache T: ways must be between 1 and 255, got 0")]
    fn zero_ways_is_rejected() {
        cache_with_ways(0);
    }

    #[test]
    #[should_panic(expected = "cache T: ways must be between 1 and 255, got 256")]
    fn ways_beyond_the_fill_count_are_rejected() {
        cache_with_ways(256);
    }

    #[test]
    fn ship_replacement_still_bounds_occupancy() {
        let mut c = tiny_cache(Replacement::Ship);
        for i in 0..64u64 {
            c.fill(i * LINE_SIZE, i % 3 == 0, 0x400 + (i % 7), 0);
            c.lookup(i * LINE_SIZE);
        }
        assert!(c.occupancy() <= 8);
    }

    #[test]
    fn refill_of_resident_line_does_not_evict() {
        let mut c = tiny_cache(Replacement::Lru);
        c.fill(0x1000, true, 0, 0);
        assert!(c.fill(0x1000, false, 0, 0).is_none());
        // The demand refill clears the prefetch flag.
        match c.lookup(0x1000) {
            LookupOutcome::Hit {
                first_use_of_prefetch,
                ..
            } => assert!(!first_use_of_prefetch),
            _ => panic!("expected hit"),
        }
    }

    /// Replays a seeded mix of lookups, demand and prefetch fills and stores over 48 lines
    /// (six times what the tiny cache holds), returning every answer.
    fn replay_random_ops(c: &mut Cache, ops: usize, mut seed: u64) -> Vec<String> {
        let mut answers = Vec::with_capacity(ops);
        for _ in 0..ops {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = seed >> 33;
            let addr = (r % 48) * LINE_SIZE + (r >> 8) % LINE_SIZE;
            let pc = 0x400 + ((r >> 16) % 16) * 4;
            answers.push(match (r >> 24) % 4 {
                0 | 1 => format!("{:?}", c.lookup(addr)),
                2 => format!("{:?}", c.fill(addr, r >> 30 & 1 == 1, pc, r % 1000)),
                _ => {
                    c.mark_dirty(addr);
                    String::new()
                }
            });
        }
        answers.push(format!(
            "{} {} {} {} {}",
            c.hits(),
            c.misses(),
            c.prefetch_fills(),
            c.useful_prefetches(),
            c.evicted_unused_prefetches()
        ));
        answers
    }

    #[test]
    fn restarting_the_lru_clock_changes_no_answer() {
        const OPS: usize = 2_000;
        for replacement in [Replacement::Lru, Replacement::Ship] {
            for seed in 1..=4u64 {
                let mut fresh = tiny_cache(replacement);
                let mut wrapping = tiny_cache(replacement);
                // It restarts after 500 ticks, when the sets are full and their stamps are
                // no longer in way order.
                wrapping.lru_clock = u32::MAX - 500;
                assert_eq!(
                    replay_random_ops(&mut wrapping, OPS, seed),
                    replay_random_ops(&mut fresh, OPS, seed),
                    "{replacement:?}, seed {seed}"
                );
                assert!(
                    (wrapping.lru_clock as usize) < wrapping.ways + OPS,
                    "{replacement:?}: the clock did not restart ({})",
                    wrapping.lru_clock
                );
            }
        }
    }

    #[test]
    fn sets_calculation() {
        let cfg = CacheConfig {
            name: "x",
            size_bytes: 48 * 1024,
            ways: 12,
            latency: 5,
            mshrs: 16,
            replacement: Replacement::Lru,
        };
        assert_eq!(cfg.sets(), 64);
    }

    #[test]
    fn non_power_of_two_set_counts_still_index_correctly() {
        // 3 sets × 2 ways: exercises the division fallback of the set indexer.
        let mut c = Cache::new(
            CacheConfig {
                name: "odd",
                size_bytes: 3 * 2 * LINE_SIZE,
                ways: 2,
                latency: 1,
                mshrs: 2,
                replacement: Replacement::Lru,
            },
            CacheLevel::L1d,
        );
        assert_eq!(c.config().sets(), 3);
        for i in 0..9u64 {
            c.fill(i * LINE_SIZE, false, 0, 0);
        }
        for i in 3..9u64 {
            assert!(c.probe(i * LINE_SIZE), "line {i} should be resident");
        }
        assert_eq!(c.occupancy(), 6);
    }
}
