//! Property-based tests (proptest) on the core data structures and simulator invariants.

use std::collections::VecDeque;

use proptest::prelude::*;

use athena_repro::athena::{CompositeReward, QvStore, RewardWeights};
use athena_repro::prelude::{
    all_workloads, simulate, CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig, WorkloadSpec,
};
use athena_repro::sim::ring::{RecentPages, Ring, RECENT_PAGES};
use athena_repro::sim::{
    Cache, CacheConfig, CacheLevel, Dram, DramRequestKind, EpochStats, EvictedLine, LookupOutcome,
    Replacement, SimConfig, SimStats, Simulator, TraceRecord,
};
use athena_repro::workloads::{Pattern, TraceGenerator};

/// The cache designs the full-system properties range over — one per hot-path shape:
/// the paper's default L2C-prefetcher design, an L1D+L2C design, a two-L2C-prefetcher
/// design and a no-OCP design.
fn designs() -> Vec<SystemConfig> {
    vec![
        SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet),
        SystemConfig::cd4(PrefetcherKind::Ipcp, PrefetcherKind::Pythia, OcpKind::Popet),
        SystemConfig::cd3(PrefetcherKind::SppPpf, PrefetcherKind::Sms, OcpKind::Popet),
        SystemConfig::prefetchers_only(PrefetcherKind::Mlop, PrefetcherKind::Pythia),
    ]
}

/// Every coordination policy with a parameter-free constructor.
fn kinds() -> Vec<CoordinatorKind> {
    vec![
        CoordinatorKind::Baseline,
        CoordinatorKind::OcpOnly,
        CoordinatorKind::PrefetchersOnly,
        CoordinatorKind::Naive,
        CoordinatorKind::Fixed {
            ocp: true,
            prefetchers: false,
        },
        CoordinatorKind::Hpac,
        CoordinatorKind::Mab,
        CoordinatorKind::Tlp,
        CoordinatorKind::Athena,
    ]
}

fn pick_workload(idx: usize) -> WorkloadSpec {
    let all = all_workloads();
    all[idx % all.len()].clone()
}

/// Mirrors the engine's job construction: a fully-configured single-core simulator for
/// an arbitrary (design, coordinator) point, so properties can inspect the memory
/// hierarchy after the run (the `simulate` entry point only returns the statistics).
fn system_sim(design: &SystemConfig, kind: &CoordinatorKind) -> Simulator {
    let mut sim = Simulator::new(design.sim.clone());
    for p in &design.prefetchers {
        sim = sim.with_prefetcher(p.build());
    }
    if let Some(ocp) = &design.ocp {
        sim = sim.with_ocp(ocp.build());
    }
    sim.with_coordinator(kind.build())
}

/// The counter relations every finished run must satisfy, regardless of design,
/// coordinator or workload.
fn assert_stats_are_consistent(stats: &SimStats) {
    assert!(
        stats.prefetches_useful <= stats.prefetches_issued,
        "useful prefetches ({}) exceed issued ({})",
        stats.prefetches_useful,
        stats.prefetches_issued
    );
    assert!(
        stats.prefetches_late <= stats.prefetches_useful,
        "late prefetches ({}) exceed useful ({})",
        stats.prefetches_late,
        stats.prefetches_useful
    );
    assert!(
        stats.ocp_correct <= stats.ocp_predictions,
        "correct OCP predictions ({}) exceed predictions made ({})",
        stats.ocp_correct,
        stats.ocp_predictions
    );
    assert!(
        stats.loads_off_chip <= stats.loads,
        "off-chip loads ({}) exceed loads ({})",
        stats.loads_off_chip,
        stats.loads
    );
    assert!(
        stats.llc_misses <= stats.l2c_misses && stats.l2c_misses <= stats.l1d_misses,
        "demand misses must filter down the hierarchy (L1D {} >= L2C {} >= LLC {})",
        stats.l1d_misses,
        stats.l2c_misses,
        stats.llc_misses
    );
    assert!(
        stats.branch_mispredicts <= stats.branches,
        "mispredicts ({}) exceed branches ({})",
        stats.branch_mispredicts,
        stats.branches
    );
}

/// A cache of `sets` × `ways` lines; `sets` need not be a power of two.
fn cache_of(sets: usize, ways: usize, replacement: Replacement) -> Cache {
    Cache::new(
        CacheConfig {
            name: "prop",
            size_bytes: (sets * ways * 64) as u64,
            ways,
            latency: 4,
            mshrs: 8,
            replacement,
        },
        CacheLevel::L1d,
    )
}

/// One cache operation: `(kind, line, pc, ready_cycle)`, where kind 0 is a lookup, 1 a
/// demand fill, 2 a prefetch fill and 3 a store hit (`mark_dirty`).
type CacheOp = (u8, u64, u64, u64);

/// What a cache operation returned.
#[derive(Debug, PartialEq)]
enum CacheOpResult {
    Lookup(LookupOutcome),
    Fill(Option<EvictedLine>),
    MarkDirty,
}

/// After each op: its result, a probe of its address, every counter
/// (accesses, hits, misses, prefetch fills, useful and evicted-unused prefetches) and the
/// occupancy.
type CacheStep = (CacheOpResult, bool, [u64; 6], usize);

/// Drives `cache` through `ops`, recording what each op returned and the state it left.
fn replay_cache_ops(cache: &mut Cache, ops: &[CacheOp]) -> Vec<CacheStep> {
    ops.iter()
        .map(|&(kind, line, pc, ready)| {
            let addr = line * 64 + ready % 64;
            let result = match kind {
                0 => CacheOpResult::Lookup(cache.lookup(addr)),
                1 | 2 => CacheOpResult::Fill(cache.fill(addr, kind == 2, pc, ready)),
                _ => {
                    cache.mark_dirty(addr);
                    CacheOpResult::MarkDirty
                }
            };
            let counters = [
                cache.accesses(),
                cache.hits(),
                cache.misses(),
                cache.prefetch_fills(),
                cache.useful_prefetches(),
                cache.evicted_unused_prefetches(),
            ];
            (result, cache.probe(addr), counters, cache.occupancy())
        })
        .collect()
}

/// One simulated instruction for the window models: cycles until the front end fetches
/// the next instruction, and cycles from allocation to completion.
type WindowStep = (u64, u64);

/// The core's ROB and commit windows as `CoreEngine::step` kept them in `VecDeque`s before
/// the rings replaced them, reduced to the window arithmetic. Returns each instruction's
/// `(rob_free_cycle, retire)`.
fn deque_windows(rob_size: usize, commit_width: u32, steps: &[WindowStep]) -> Vec<(u64, u64)> {
    let commit_width = commit_width.max(1) as usize;
    let mut rob: VecDeque<u64> = VecDeque::with_capacity(rob_size);
    let mut recent_retires: VecDeque<u64> = VecDeque::with_capacity(commit_width);
    let (mut fetch, mut last_retire) = (0u64, 0u64);
    let mut out = Vec::with_capacity(steps.len());
    for &(gap, latency) in steps {
        let rob_free_cycle = if rob.len() >= rob_size {
            rob.pop_front().unwrap_or(0)
        } else {
            0
        };
        let alloc = fetch.max(rob_free_cycle);
        fetch = alloc + gap;
        let mut retire = (alloc + latency).max(last_retire);
        if recent_retires.len() >= commit_width {
            if let Some(&old) = recent_retires.front() {
                retire = retire.max(old + 1);
            }
            recent_retires.pop_front();
        }
        recent_retires.push_back(retire);
        last_retire = retire;
        rob.push_back(retire);
        out.push((rob_free_cycle, retire));
    }
    out
}

/// The same window arithmetic over the [`Ring`]s, exactly as `CoreEngine::step` uses them.
fn ring_windows(rob_size: usize, commit_width: u32, steps: &[WindowStep]) -> Vec<(u64, u64)> {
    let mut rob = Ring::new(rob_size);
    let mut recent_retires = Ring::new(commit_width as usize);
    let (mut fetch, mut last_retire) = (0u64, 0u64);
    let mut out = Vec::with_capacity(steps.len());
    for &(gap, latency) in steps {
        let rob_free_cycle = rob.oldest_if_full().unwrap_or(0);
        let alloc = fetch.max(rob_free_cycle);
        fetch = alloc + gap;
        let mut retire = (alloc + latency).max(last_retire);
        if let Some(old) = recent_retires.oldest_if_full() {
            retire = retire.max(old + 1);
        }
        recent_retires.push(retire);
        last_retire = retire;
        rob.push(retire);
        out.push((rob_free_cycle, retire));
    }
    out
}

/// The hierarchy's first-access-to-page filter as a scanned `VecDeque`, before
/// [`RecentPages`] replaced it.
fn deque_first_touches(pages: &[u64]) -> Vec<bool> {
    let mut recent: VecDeque<u64> = VecDeque::with_capacity(64);
    pages
        .iter()
        .map(|&page| {
            let first = !recent.contains(&page);
            if first {
                if recent.len() >= 64 {
                    recent.pop_front();
                }
                recent.push_back(page);
            }
            first
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ROB and commit rings reproduce the `VecDeque` windows they replaced, for the
    /// drawn configuration and for the corner sizes: a zero-sized ROB behaves as one entry,
    /// and a zero commit width as one.
    #[test]
    fn rob_and_commit_rings_match_the_deque_windows(
        steps in prop::collection::vec((0u64..4, 1u64..300), 1..400),
        rob_size in 0usize..48,
        commit_width in 0u32..8,
    ) {
        let configs = [
            (rob_size, commit_width),
            (0, 1),
            (1, 1),
            (0, commit_width),
            (rob_size, 1),
            (rob_size, 0),
        ];
        for (rob, width) in configs {
            let reference = deque_windows(rob, width, &steps);
            prop_assert_eq!(
                ring_windows(rob, width, &steps),
                reference,
                "rob_size={} commit_width={}", rob, width
            );
        }
    }

    /// The page filter answers every access as the scanned window did, over page streams
    /// that both revisit remembered pages and evict old ones.
    #[test]
    fn recent_pages_match_the_deque_filter(
        pages in prop::collection::vec(0u64..(RECENT_PAGES as u64 * 3 / 2), 1..2_000),
    ) {
        let pages: Vec<u64> = pages.iter().map(|p| p << 12).collect();
        let mut filter = RecentPages::default();
        let firsts: Vec<bool> = pages.iter().map(|&p| filter.touch(p)).collect();
        prop_assert_eq!(firsts, deque_first_touches(&pages));
    }

    /// Through the whole simulator, a zero-sized ROB and a zero commit width behave as
    /// one entry each.
    #[test]
    fn zero_window_sizes_simulate_as_one(seed in 0u64..1_000, n in 2_000u64..5_000) {
        let run = |rob_size: usize, commit_width: u32| {
            let mut config = SimConfig::tiny();
            config.core.rob_size = rob_size;
            config.core.commit_width = commit_width;
            let generator = TraceGenerator::new(
                Pattern::Stream { footprint: 1 << 22, loads_per_iter: 3 },
                seed,
            );
            Simulator::new(config).run(generator, n)
        };
        prop_assert_eq!(run(0, 4), run(1, 4));
        prop_assert_eq!(run(64, 0), run(64, 1));
    }

    /// The cache never holds more lines than its capacity, and a line that was just filled
    /// is always found by a probe.
    #[test]
    fn cache_occupancy_is_bounded_and_fills_are_visible(
        addrs in prop::collection::vec(0u64..(1 << 20), 1..300),
        ways in 1usize..8,
        sets_pow in 0u32..4,
    ) {
        let sets = 1usize << sets_pow;
        let mut cache = cache_of(sets, ways, Replacement::Lru);
        for (i, addr) in addrs.iter().enumerate() {
            cache.fill(*addr, i % 3 == 0, 0x400 + (i as u64 % 16), 0);
            prop_assert!(cache.probe(*addr), "freshly filled line must be resident");
            prop_assert!(cache.occupancy() <= ways * sets);
        }
    }

    /// Demand lookups after a fill hit until the line is evicted; the hit/miss counters add
    /// up to the number of lookups.
    #[test]
    fn cache_counters_are_consistent(
        addrs in prop::collection::vec(0u64..(1 << 16), 1..200),
    ) {
        let mut cache = cache_of(4, 4, Replacement::Lru);
        for addr in &addrs {
            cache.lookup(*addr);
            cache.fill(*addr, false, 0x400, 0);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), cache.accesses());
        prop_assert_eq!(cache.accesses(), addrs.len() as u64);
    }

    /// A cache built on the arrays a dropped cache of the same geometry left on its thread
    /// behaves exactly like a fresh cache on a new thread, op by op.
    #[test]
    fn recycled_cache_matches_a_fresh_one(
        sets in 1usize..7,
        ways in 1usize..7,
        ship in 0u8..2,
        first in prop::collection::vec((0u8..4, 0u64..96, 0u64..64, 0u64..1_000), 0..300),
        second in prop::collection::vec((0u8..4, 0u64..96, 0u64..64, 0u64..1_000), 1..300),
    ) {
        let replacement = if ship == 1 { Replacement::Ship } else { Replacement::Lru };
        let recycled = std::thread::scope(|s| {
            s.spawn(|| {
                let mut dropped = cache_of(sets, ways, replacement);
                replay_cache_ops(&mut dropped, &first);
                drop(dropped);
                replay_cache_ops(&mut cache_of(sets, ways, replacement), &second)
            })
            .join()
            .expect("recycled replay panicked")
        });
        let fresh = std::thread::scope(|s| {
            s.spawn(|| replay_cache_ops(&mut cache_of(sets, ways, replacement), &second))
                .join()
                .expect("fresh replay panicked")
        });
        prop_assert_eq!(recycled, fresh);
    }

    /// QVStore Q-values stay within the quantisation bounds no matter what rewards are fed
    /// in, and updates only ever touch the targeted action.
    #[test]
    fn qvstore_values_stay_bounded(
        updates in prop::collection::vec(
            (0u32..1 << 16, 0usize..4, -100.0f64..100.0),
            1..300
        ),
    ) {
        let mut store = QvStore::athena_sized();
        // Per-plane entries are i8, so the magnitude is bounded by 128 quantisation steps.
        let bound = 8.0 * 128.0 * 0.05 + 1e-9;
        for (state, action, reward) in updates {
            store.sarsa_update(state, action, reward, state, action, 0.6, 0.6);
            let q = store.q_value(state, action);
            prop_assert!(q.abs() <= bound, "q={q} exceeded the quantisation bound");
        }
    }

    /// The composite reward is exactly the correlated component minus the uncorrelated one.
    #[test]
    fn composite_reward_decomposes(
        prev_cycles in 1_000u64..100_000,
        cur_cycles in 1_000u64..100_000,
        prev_loads in 0u64..2_000,
        cur_loads in 0u64..2_000,
        prev_mbr in 0u64..200,
        cur_mbr in 0u64..200,
    ) {
        let reward = CompositeReward::new(RewardWeights::default(), true);
        let prev = EpochStats {
            instructions: 2048, cycles: prev_cycles, loads: prev_loads,
            branch_mispredicts: prev_mbr, ..Default::default()
        };
        let cur = EpochStats {
            instructions: 2048, cycles: cur_cycles, loads: cur_loads,
            branch_mispredicts: cur_mbr, ..Default::default()
        };
        let total = reward.reward(&prev, &cur);
        let decomposed = reward.correlated(&prev, &cur) - reward.uncorrelated(&prev, &cur);
        prop_assert!((total - decomposed).abs() < 1e-12);
    }

    /// DRAM completions are monotone per request issue time and respect the bus occupancy.
    #[test]
    fn dram_completions_respect_the_bus(
        addrs in prop::collection::vec(0u64..(1 << 24), 2..80),
    ) {
        let config = SimConfig::golden_cove_like();
        let mut dram = Dram::new(&config);
        let mut completions = Vec::new();
        for (i, addr) in addrs.iter().enumerate() {
            let done = dram.access(*addr, i as u64, DramRequestKind::Demand);
            prop_assert!(done > i as u64);
            completions.push(done);
        }
        let mut sorted = completions.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            prop_assert!(pair[1] - pair[0] >= config.dram_cycles_per_line());
        }
    }

    /// After a full-system run on an arbitrary (design, coordinator, workload) point,
    /// every cache level's counters balance: accesses = hits + misses, and occupancy
    /// never exceeds capacity. This leans on the SoA cache rewrite keeping the counter
    /// discipline of the original array-of-structs layout.
    #[test]
    fn cache_level_counters_balance_after_a_system_run(
        design_idx in 0usize..4,
        kind_idx in 0usize..9,
        workload_idx in 0usize..64,
        n in 4_000u64..9_000,
    ) {
        let design = designs()[design_idx].clone();
        let kind = kinds()[kind_idx].clone();
        let mut sim = system_sim(&design, &kind);
        let result = sim.run(pick_workload(workload_idx).trace(), n);
        prop_assert_eq!(result.instructions, n);
        for level in [CacheLevel::L1d, CacheLevel::L2c, CacheLevel::Llc] {
            let cache = sim.hierarchy().cache(level);
            prop_assert_eq!(
                cache.hits() + cache.misses(),
                cache.accesses(),
                "{:?}: hits + misses != accesses", level
            );
            let cfg = cache.config();
            prop_assert!(
                cache.occupancy() <= cfg.ways * cfg.sets(),
                "{:?}: occupancy {} exceeds capacity", level, cache.occupancy()
            );
        }
        assert_stats_are_consistent(&result.stats);
    }

    /// Per-epoch telemetry accumulates exactly to the run totals on arbitrary
    /// (design, coordinator, workload) points — the epoch stream and the end-of-run
    /// stats are two views of the same events, batched stepping notwithstanding.
    #[test]
    fn epoch_stats_accumulate_to_run_totals_for_any_system(
        design_idx in 0usize..4,
        kind_idx in 0usize..9,
        workload_idx in 0usize..64,
        n in 4_000u64..9_000,
    ) {
        let design = designs()[design_idx].clone();
        let kind = kinds()[kind_idx].clone();
        let result = simulate(&pick_workload(workload_idx), &design, kind, n);
        let mut acc = SimStats::default();
        for e in &result.epochs {
            acc.absorb_epoch(e);
        }
        // The one counter with no per-epoch source: unused DRAM prefetch fills are only
        // known at the end of the run (eviction time), so the hierarchy reports a run
        // total directly.
        acc.prefetch_fills_from_dram_unused = result.stats.prefetch_fills_from_dram_unused;
        prop_assert_eq!(acc, result.stats.clone(), "accumulated epochs != run totals");
        prop_assert_eq!(result.stats.instructions, n);
        prop_assert_eq!(result.stats.cycles, result.cycles);
    }

    /// `simulate()` is a pure function of its arguments: re-running the same cell gives
    /// byte-equal statistics, DRAM counters and epoch telemetry.
    #[test]
    fn simulate_is_deterministic_across_repeats(
        design_idx in 0usize..4,
        kind_idx in 0usize..9,
        workload_idx in 0usize..64,
        n in 3_000u64..7_000,
    ) {
        let design = designs()[design_idx].clone();
        let kind = kinds()[kind_idx].clone();
        let spec = pick_workload(workload_idx);
        let a = simulate(&spec, &design, kind.clone(), n);
        let b = simulate(&spec, &design, kind, n);
        prop_assert_eq!(a, b, "two runs of the same cell diverged");
    }

    /// Whole-run epoch accounting: epoch instructions and cycles sum to the run totals, and
    /// IPC is strictly positive for non-empty traces.
    #[test]
    fn simulator_epoch_accounting_adds_up(
        seed in 0u64..1_000,
        n in 3_000u64..12_000,
    ) {
        let generator = TraceGenerator::new(
            Pattern::HashProbe { footprint: 1 << 22, locality_pct: 30 },
            seed,
        );
        let mut sim = Simulator::new(SimConfig::tiny());
        let result = sim.run(generator, n);
        prop_assert_eq!(result.instructions, n);
        let epoch_instr: u64 = result.epochs.iter().map(|e| e.instructions).sum();
        let epoch_cycles: u64 = result.epochs.iter().map(|e| e.cycles).sum();
        prop_assert_eq!(epoch_instr, n);
        prop_assert_eq!(epoch_cycles, result.cycles);
        prop_assert!(result.ipc() > 0.0);
    }

    /// Trace generators are pure functions of (pattern, seed): equal seeds give equal
    /// traces, and the generator never emits a zero-address load.
    #[test]
    fn trace_generation_is_deterministic_and_well_formed(seed in 0u64..10_000) {
        let pattern = Pattern::GraphFrontier { vertices: 1 << 16, neighbours: 2 };
        let a: Vec<TraceRecord> = TraceGenerator::new(pattern, seed).take(2_000).collect();
        let b: Vec<TraceRecord> = TraceGenerator::new(pattern, seed).take(2_000).collect();
        prop_assert_eq!(&a, &b);
        for rec in &a {
            if let Some(addr) = rec.addr() {
                prop_assert!(addr > 0);
            }
        }
    }

    /// Arbitrary JSON documents round-trip through both serialisers and the parser: the
    /// engine's JSON reader recovers exactly the value its writer printed. (Non-finite
    /// numbers are outside the round-trip contract — the writer prints them as `null` —
    /// so the generator produces finite values only, which is all the report writers and
    /// the tuning subsystem ever emit.)
    #[test]
    fn json_documents_round_trip_through_the_parser(doc in JsonStrategy { depth: 3 }) {
        let compact = Json::parse(&doc.to_string());
        prop_assert_eq!(compact.as_ref(), Ok(&doc), "compact form failed to round-trip");
        let pretty = Json::parse(&doc.to_pretty());
        prop_assert_eq!(pretty.as_ref(), Ok(&doc), "pretty form failed to round-trip");
    }
}

use athena_repro::engine::json::Json;

/// Generates arbitrary finite JSON values with bounded depth, exercising every variant,
/// escaped strings (quotes, control characters, non-ASCII) and integral-vs-fractional
/// number formatting.
struct JsonStrategy {
    depth: usize,
}

impl Strategy for JsonStrategy {
    type Value = Json;

    fn generate(&self, rng: &mut rand::rngs::StdRng) -> Json {
        use rand::Rng;
        let leaf_only = self.depth == 0;
        let pick = rng.gen_range(0u32..if leaf_only { 5 } else { 7 });
        match pick {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_range(0u32..2) == 1),
            2 => {
                // Mix integral values (printed without a fraction) with arbitrary finite
                // floats built from random bits.
                if rng.gen_range(0u32..2) == 0 {
                    Json::Num(rng.gen_range(-1_000_000i64..1_000_000) as f64)
                } else {
                    let v = f64::from_bits(rng.gen_range(0u64..u64::MAX));
                    Json::Num(if v.is_finite() {
                        v
                    } else {
                        rng.gen_range(-1.0e18..1.0e18)
                    })
                }
            }
            3 | 4 => {
                let len = rng.gen_range(0usize..12);
                let s: String = (0..len)
                    .map(|_| {
                        char::from_u32(match rng.gen_range(0u32..4) {
                            0 => rng.gen_range(0u32..0x20),      // control chars (escaped)
                            1 => u32::from(b'"'),                // quote
                            2 => rng.gen_range(0x20u32..0x7f),   // printable ASCII
                            _ => rng.gen_range(0xa0u32..0x2fff), // non-ASCII BMP
                        })
                        .unwrap_or('x')
                    })
                    .collect();
                Json::Str(s)
            }
            5 => {
                let len = rng.gen_range(0usize..5);
                let child = JsonStrategy {
                    depth: self.depth - 1,
                };
                Json::Arr((0..len).map(|_| child.generate(rng)).collect())
            }
            _ => {
                let len = rng.gen_range(0usize..5);
                let child = JsonStrategy {
                    depth: self.depth - 1,
                };
                Json::Obj(
                    (0..len)
                        .map(|i| (format!("key{i}"), child.generate(rng)))
                        .collect(),
                )
            }
        }
    }
}
