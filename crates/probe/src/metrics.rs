//! A dependency-free process-wide metrics registry: atomic [`Counter`]s, log2-bucketed
//! [`Histogram`]s and a per-worker utilization table, snapshotted in a deterministic
//! order.
//!
//! The registry is a fixed set of named instruments (no dynamic registration, no string
//! hashing on the hot path): the engine bumps them from wherever work happens — cell
//! dispatch, store fetch/persist, the distributed wire — and the CLIs embed one
//! [`MetricsRegistry::snapshot`] into their JSON reports at the end of a run. Like
//! everything else in this crate, **observation is not identity**: metrics are written,
//! never read back by the simulation, so the instrumented counters cannot change a
//! table byte. The *values* are wall-clock-ish (latencies, scheduling accidents), so
//! byte-comparisons treat a report's `metrics` object the way they treat `t_ms`.
//!
//! Snapshot determinism means *shape*, not values: counters and histograms appear in
//! declaration order and workers in ascending id order, so two snapshots of the same
//! registry always serialise field-for-field comparably.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of buckets in a [`Histogram`]: one per power of two of a `u64` value.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing atomic counter.
pub struct Counter(AtomicU64);

impl Counter {
    const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A lock-free histogram over `u64` values with one bucket per power of two: bucket `b`
/// counts values in `[2^b, 2^(b+1))`, with `0` counted in bucket 0. Tracks count, sum,
/// min and max exactly; the buckets give the distribution's shape without storing
/// samples.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    const fn new() -> Self {
        // `AtomicU64::new(0)` is not `Copy`, so spell the array out via a const.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's numbers.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(b, n)| {
                    let n = n.load(Ordering::Relaxed);
                    (n > 0).then_some((b as u32, n))
                })
                .collect(),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// The non-empty buckets as `(log2_floor, count)` pairs in ascending bucket order:
    /// bucket `b` counted values in `[2^b, 2^(b+1))` (0 lands in bucket 0).
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One distributed worker's accumulated utilization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerUtil {
    /// Cells the worker completed (merged results; a dead worker's unanswered cells
    /// count for its replacement).
    pub cells: u64,
    /// Nanoseconds the worker spent simulating those cells (sum of cell wall-clocks).
    pub busy_nanos: u64,
}

/// The process-wide registry: a fixed set of instruments the engine bumps while it runs.
///
/// Counters and histograms are plain public fields — call sites read as
/// `metrics().cells_simulated.incr()` — and [`MetricsRegistry::snapshot`] serialises
/// them in declaration order.
pub struct MetricsRegistry {
    /// Cells actually simulated (in-process or on a worker).
    pub cells_simulated: Counter,
    /// Cells served from the result store without simulation.
    pub cells_cached: Counter,
    /// Cells that missed the store and reused an output simulated earlier in the same run
    /// (the engine's per-run cell memo).
    pub cells_reused: Counter,
    /// Cells re-dispatched after a distributed worker died mid-shard.
    pub cell_retries: Counter,
    /// Wire frames written by this process (coordinator side: commands out).
    pub frames_sent: Counter,
    /// Wire frames read by this process (coordinator side: worker answers in).
    pub frames_received: Counter,
    /// Bytes written as wire frames, 13-byte headers included.
    pub frame_bytes_sent: Counter,
    /// Bytes read as wire frames, 13-byte headers included.
    pub frame_bytes_received: Counter,
    /// Per-cell simulation wall-clock, in nanoseconds.
    pub cell_wall_nanos: Histogram,
    /// Result-store batch fetch latency, in nanoseconds.
    pub store_fetch_nanos: Histogram,
    /// Result-store batch persist latency, in nanoseconds.
    pub store_persist_nanos: Histogram,
    workers: Mutex<BTreeMap<usize, WorkerUtil>>,
}

impl MetricsRegistry {
    /// A fresh, zeroed registry. Production code uses the process-wide one via
    /// [`metrics`]; isolated registries exist for tests that assert exact values.
    pub const fn new() -> Self {
        MetricsRegistry {
            cells_simulated: Counter::new(),
            cells_cached: Counter::new(),
            cells_reused: Counter::new(),
            cell_retries: Counter::new(),
            frames_sent: Counter::new(),
            frames_received: Counter::new(),
            frame_bytes_sent: Counter::new(),
            frame_bytes_received: Counter::new(),
            cell_wall_nanos: Histogram::new(),
            store_fetch_nanos: Histogram::new(),
            store_persist_nanos: Histogram::new(),
            workers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Credits one completed cell (`busy_nanos` of simulation wall-clock) to a
    /// distributed worker's utilization row.
    pub fn record_worker_cell(&self, worker: usize, busy_nanos: u64) {
        let mut workers = self.workers.lock().expect("metrics mutex poisoned");
        let util = workers.entry(worker).or_default();
        util.cells += 1;
        util.busy_nanos = util.busy_nanos.saturating_add(busy_nanos);
    }

    /// Zeroes every instrument. Tests (and anything else wanting per-run rather than
    /// per-process numbers) call this between runs.
    pub fn reset(&self) {
        self.cells_simulated.reset();
        self.cells_cached.reset();
        self.cells_reused.reset();
        self.cell_retries.reset();
        self.frames_sent.reset();
        self.frames_received.reset();
        self.frame_bytes_sent.reset();
        self.frame_bytes_received.reset();
        self.cell_wall_nanos.reset();
        self.store_fetch_nanos.reset();
        self.store_persist_nanos.reset();
        self.workers.lock().expect("metrics mutex poisoned").clear();
    }

    /// A point-in-time copy of every instrument, in deterministic order: counters in
    /// declaration order, histograms in declaration order, workers ascending by id.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("cells_simulated", self.cells_simulated.get()),
                ("cells_cached", self.cells_cached.get()),
                ("cells_reused", self.cells_reused.get()),
                ("cell_retries", self.cell_retries.get()),
                ("frames_sent", self.frames_sent.get()),
                ("frames_received", self.frames_received.get()),
                ("frame_bytes_sent", self.frame_bytes_sent.get()),
                ("frame_bytes_received", self.frame_bytes_received.get()),
            ],
            histograms: vec![
                ("cell_wall_nanos", self.cell_wall_nanos.snapshot()),
                ("store_fetch_nanos", self.store_fetch_nanos.snapshot()),
                ("store_persist_nanos", self.store_persist_nanos.snapshot()),
            ],
            workers: self
                .workers
                .lock()
                .expect("metrics mutex poisoned")
                .iter()
                .map(|(&id, &util)| (id, util))
                .collect(),
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// A deterministic-order snapshot of the whole [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, snapshot)` for every histogram, in declaration order.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// `(worker id, utilization)` ascending by id; empty for in-process runs.
    pub workers: Vec<(usize, WorkerUtil)>,
}

static METRICS: MetricsRegistry = MetricsRegistry::new();

/// The process-wide metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    &METRICS
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run in parallel, so these tests use a
    // private local registry for value assertions and touch the global one only
    // additively.

    #[test]
    fn counters_accumulate_and_reset() {
        let registry = MetricsRegistry::new();
        registry.cells_simulated.incr();
        registry.cells_simulated.add(4);
        assert_eq!(registry.cells_simulated.get(), 5);
        registry.reset();
        assert_eq!(registry.cells_simulated.get(), 0);
    }

    #[test]
    fn histograms_bucket_by_log2_and_track_extremes() {
        let histogram = Histogram::new();
        for value in [0, 1, 2, 3, 1024, u64::MAX] {
            histogram.record(value);
        }
        let snap = histogram.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        // 0 and 1 share bucket 0; 2 and 3 land in bucket 1; 1024 in bucket 10;
        // u64::MAX in bucket 63.
        assert_eq!(snap.buckets, vec![(0, 2), (1, 2), (10, 1), (63, 1)]);
        assert!((snap.mean() - (snap.sum as f64 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_histograms_snapshot_to_zeroes() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert!(snap.buckets.is_empty());
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn snapshots_keep_declaration_and_worker_order() {
        let registry = MetricsRegistry::new();
        registry.record_worker_cell(2, 100);
        registry.record_worker_cell(0, 50);
        registry.record_worker_cell(2, 25);
        let snap = registry.snapshot();
        let counter_names: Vec<&str> = snap.counters.iter().map(|(n, _)| *n).collect();
        assert_eq!(counter_names[0], "cells_simulated");
        assert_eq!(counter_names.last(), Some(&"frame_bytes_received"));
        let histogram_names: Vec<&str> = snap.histograms.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            histogram_names,
            vec![
                "cell_wall_nanos",
                "store_fetch_nanos",
                "store_persist_nanos"
            ]
        );
        assert_eq!(
            snap.workers,
            vec![
                (
                    0,
                    WorkerUtil {
                        cells: 1,
                        busy_nanos: 50
                    }
                ),
                (
                    2,
                    WorkerUtil {
                        cells: 2,
                        busy_nanos: 125
                    }
                ),
            ]
        );
    }

    #[test]
    fn the_global_registry_is_reachable() {
        let before = metrics().frames_sent.get();
        metrics().frames_sent.incr();
        assert!(metrics().frames_sent.get() > before);
    }
}
