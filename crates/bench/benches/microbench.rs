//! Microbenchmarks of the simulator and agent primitives on the hot path.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use athena_core::{BloomFilter, QvStore};
use athena_harness::{simulate, CoordinatorKind, OcpKind, PrefetcherKind, SystemConfig};
use athena_sim::{Cache, CacheConfig, CacheLevel, Dram, DramRequestKind, Replacement, SimConfig};
use athena_workloads::all_workloads;

fn cache_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.throughput(Throughput::Elements(1));
    let config = CacheConfig {
        name: "bench",
        size_bytes: 48 * 1024,
        ways: 12,
        latency: 5,
        mshrs: 16,
        replacement: Replacement::Lru,
    };
    group.bench_function("lookup_and_fill", |b| {
        let mut cache = Cache::new(config, CacheLevel::L1d);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(4096) & 0xff_ffff;
            if !cache.lookup(addr).is_hit() {
                cache.fill(addr, false, 0x400, 0);
            }
            std::hint::black_box(cache.occupancy() > 0)
        })
    });
    group.finish();
}

fn cache_soa_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_soa");
    group.throughput(Throughput::Elements(1));
    let config = CacheConfig {
        name: "bench",
        size_bytes: 48 * 1024,
        ways: 12,
        latency: 5,
        mshrs: 16,
        replacement: Replacement::Lru,
    };
    // Pure set-scan cost on the SoA tag array: a resident working set, so every lookup
    // takes the hit path (tag sweep + flag/LRU updates, no victim selection).
    group.bench_function("set_lookup_hit", |b| {
        let mut cache = Cache::new(config, CacheLevel::L1d);
        let lines = 64usize; // sets(48K/12w) = 64 → one line per set, always resident
        for i in 0..lines {
            cache.fill((i as u64) << 6, false, 0x400, 0);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % lines;
            std::hint::black_box(cache.lookup((i as u64) << 6).is_hit())
        })
    });
    // Victim-selection cost: a thrashing working set, so every lookup misses and every
    // fill evicts (first-minimum LRU scan over the whole set).
    group.bench_function("miss_and_evict", |b| {
        let mut cache = Cache::new(config, CacheLevel::L1d);
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64 * 64).wrapping_add(64) & 0xfff_ffff;
            if !cache.lookup(addr).is_hit() {
                cache.fill(addr, false, 0x400, 0);
            }
            std::hint::black_box(cache.misses())
        })
    });
    group.finish();
}

fn hierarchy_bench(c: &mut Criterion) {
    use athena_sim::MemoryHierarchy;
    let mut group = c.benchmark_group("hierarchy");
    group.throughput(Throughput::Elements(1));
    // The full demand-load path with a trained prefetcher and an OCP attached: L1→L2→LLC
    // probes, prefetcher triggering through the recycled request buffers (the hot path's
    // queue state) and DRAM on the misses.
    group.bench_function("demand_load_with_prefetcher", |b| {
        let mut hierarchy = MemoryHierarchy::new(SimConfig::golden_cove_like());
        hierarchy.attach_prefetcher(PrefetcherKind::Pythia.build());
        hierarchy.attach_ocp(OcpKind::Popet.build());
        let mut cycle = 0u64;
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            cycle += 4;
            // A strided stream over a 16 MiB footprint: enough spatial structure that the
            // prefetcher actually issues requests, enough footprint that levels miss.
            let addr = (i.wrapping_mul(192)) & 0xff_ffff;
            std::hint::black_box(
                hierarchy
                    .demand_load(0x400 + (i % 8), addr, cycle)
                    .completion_cycle,
            )
        })
    });
    group.finish();
}

fn dram_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram");
    group.throughput(Throughput::Elements(1));
    group.bench_function("access", |b| {
        let mut dram = Dram::new(&SimConfig::golden_cove_like());
        let mut cycle = 0u64;
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64 * 37) & 0xfff_ffff;
            cycle += 10;
            std::hint::black_box(dram.access(addr, cycle, DramRequestKind::Demand))
        })
    });
    group.finish();
}

fn qvstore_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("qvstore");
    group.throughput(Throughput::Elements(1));
    group.bench_function("sarsa_update", |b| {
        let mut store = QvStore::athena_sized();
        let mut state = 0u32;
        b.iter(|| {
            state = state.wrapping_add(0x9e37);
            store.sarsa_update(
                state,
                (state % 4) as usize,
                0.25,
                state ^ 0x5555,
                1,
                0.6,
                0.6,
            );
            std::hint::black_box(store.updates())
        })
    });
    group.bench_function("q_value_read", |b| {
        let store = QvStore::athena_sized();
        let mut state = 0u32;
        b.iter(|| {
            state = state.wrapping_add(77);
            std::hint::black_box(store.q_value(state, (state % 4) as usize))
        })
    });
    group.finish();
}

fn bloom_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("bloom");
    group.throughput(Throughput::Elements(1));
    group.bench_function("insert_and_query", |b| {
        let mut filter = BloomFilter::athena_sized();
        let mut key = 0u64;
        b.iter(|| {
            key = key.wrapping_add(0x9e37_79b9);
            filter.insert(key);
            std::hint::black_box(filter.contains(key ^ 1))
        })
    });
    group.finish();
}

fn trace_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(1000));
    let spec = all_workloads()
        .into_iter()
        .find(|w| w.name == "429.mcf-184B")
        .unwrap();
    group.bench_function("generate_1k_instructions", |b| {
        b.iter(|| {
            let count = spec.trace().take(1000).count();
            std::hint::black_box(count)
        })
    });
    group.finish();
}

fn simulation_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(20_000));
    let specs = all_workloads();
    let friendly = specs
        .iter()
        .find(|w| w.name == "462.libquantum-714B")
        .unwrap();
    let adverse = specs
        .iter()
        .find(|w| w.name == "483.xalancbmk-127B")
        .unwrap();
    let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
    for (label, spec) in [("friendly_20k", friendly), ("adverse_20k", adverse)] {
        group.bench_function(format!("athena_cd1_{label}"), |b| {
            b.iter(|| {
                let run = simulate(spec, &config, CoordinatorKind::Athena, 20_000);
                std::hint::black_box(run.cycles)
            })
        });
    }
    // One full quick-preset cell (the unit BENCH_sim.json's per-cell throughput is
    // quoted in): 40 K instructions end to end, trace generation included.
    group.throughput(Throughput::Elements(40_000));
    group.bench_function("athena_cd1_cell_40k", |b| {
        b.iter(|| {
            let run = simulate(adverse, &config, CoordinatorKind::Athena, 40_000);
            std::hint::black_box(run.cycles)
        })
    });
    group.finish();
}

fn engine_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(1));
    group.bench_function("seed_derivation", |b| {
        let spec = all_workloads()[0].clone();
        let config = SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet);
        b.iter(|| {
            let job = athena_engine::Job::single(
                "bench",
                spec.clone(),
                config.clone(),
                CoordinatorKind::Athena,
                20_000,
            );
            std::hint::black_box(job.seed)
        })
    });
    // Pure dispatch overhead: 64 trivial jobs through the pool, so the timing is dominated
    // by injector/thread/slot machinery rather than simulation.
    let items: Vec<u64> = (0..64).collect();
    for workers in [1usize, 4] {
        group.bench_function(format!("pool_dispatch_{workers}w"), |b| {
            b.iter(|| {
                let out =
                    athena_engine::pool::parallel_map(workers, &items, |&i| i.wrapping_mul(3));
                std::hint::black_box(out.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    cache_bench,
    cache_soa_bench,
    hierarchy_bench,
    dram_bench,
    qvstore_bench,
    bloom_bench,
    trace_bench,
    simulation_bench,
    engine_bench
);
criterion_main!(benches);
