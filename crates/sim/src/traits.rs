//! Extension traits: [`Prefetcher`], [`OffChipPredictor`] and [`Coordinator`].
//!
//! These are the three plug-in points of the simulator. Prefetchers and off-chip predictors
//! observe the memory hierarchy at well-defined hook points; a coordinator observes per-epoch
//! telemetry and decides which mechanisms are enabled (and how aggressive prefetching is)
//! during the following epoch.

use crate::cache::CacheLevel;
use crate::stats::EpochStats;

/// A memory access observed by a prefetcher at its cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Program counter of the triggering load or store.
    pub pc: u64,
    /// Byte address of the access.
    pub addr: u64,
    /// Core cycle at which the access was performed.
    pub cycle: u64,
    /// Whether the access hit in the cache at this level.
    pub hit: bool,
    /// Whether the hit line had been brought in by a prefetch and this was its first use.
    pub first_use_of_prefetch: bool,
    /// Whether the access is a store.
    pub is_store: bool,
}

/// A prefetch request emitted by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Byte (typically line-aligned) address to prefetch.
    pub addr: u64,
}

impl PrefetchRequest {
    /// Creates a prefetch request for the line containing `addr`.
    pub fn new(addr: u64) -> Self {
        Self { addr }
    }
}

/// Static description of an attached prefetcher, given to coordinators at attach time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefetcherInfo {
    /// The prefetcher's display name.
    pub name: &'static str,
    /// The cache level it fills into.
    pub level: CacheLevel,
    /// Its maximum prefetch degree.
    pub max_degree: u32,
}

/// A hardware data prefetcher attached to one cache level.
///
/// A prefetcher is trained by every demand access that looks up its cache level and may emit
/// up to `degree()` prefetch requests per trigger. The coordinator may change the degree (or
/// disable the prefetcher entirely) at epoch boundaries.
pub trait Prefetcher {
    /// Display name of the prefetcher (e.g. `"pythia"`).
    fn name(&self) -> &'static str;

    /// The cache level this prefetcher trains on and fills into.
    fn level(&self) -> CacheLevel;

    /// Observes one demand access at this prefetcher's level and appends any prefetch
    /// requests it wants to issue to `out`. Implementations should respect `self.degree()`
    /// when deciding how many requests to emit.
    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>);

    /// Feedback: a line previously prefetched by this prefetcher was demanded.
    fn on_prefetch_hit(&mut self, _line_addr: u64) {}

    /// Feedback: a line previously prefetched by this prefetcher was evicted without use.
    fn on_prefetch_evicted_unused(&mut self, _line_addr: u64) {}

    /// The maximum number of prefetch requests this prefetcher may issue per trigger when
    /// running at full aggressiveness.
    fn max_degree(&self) -> u32;

    /// The current prefetch degree.
    fn degree(&self) -> u32;

    /// Sets the prefetch degree. Implementations clamp the value to `1..=max_degree()`.
    fn set_degree(&mut self, degree: u32);

    /// Static description used by coordinators.
    fn info(&self) -> PrefetcherInfo {
        PrefetcherInfo {
            name: self.name(),
            level: self.level(),
            max_degree: self.max_degree(),
        }
    }
}

/// Context describing a demand load, given to off-chip predictors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadContext {
    /// Program counter of the load.
    pub pc: u64,
    /// Byte address accessed.
    pub addr: u64,
    /// Cache-line offset within the 4 KiB page (0..64).
    pub line_offset_in_page: u8,
    /// Byte offset within the cache line (0..64).
    pub byte_offset: u8,
    /// Whether this is the first access to its page in recent history.
    pub first_access_to_page: bool,
    /// Hash of the last few load PCs (control-flow context).
    pub recent_pc_hash: u64,
}

/// An off-chip predictor (OCP).
///
/// An OCP makes a binary prediction for each demand load with a known address: will the load
/// be served by main memory? When it predicts "off-chip", the hierarchy issues a speculative
/// request directly to the memory controller, hiding the on-chip lookup latency from the
/// critical path.
pub trait OffChipPredictor {
    /// Display name of the predictor (e.g. `"popet"`).
    fn name(&self) -> &'static str;

    /// Predicts whether the load described by `ctx` will go off-chip.
    fn predict(&mut self, ctx: &LoadContext) -> bool;

    /// Confidence of predicting "off-chip" for `ctx`, in `[0, 1]`. Used by TLP-style
    /// prefetch filtering. The default maps the binary prediction to 0.0 / 1.0.
    fn confidence(&mut self, ctx: &LoadContext) -> f32 {
        if self.predict(ctx) {
            1.0
        } else {
            0.0
        }
    }

    /// Trains the predictor with the actual outcome of the load.
    fn train(&mut self, ctx: &LoadContext, went_off_chip: bool);

    /// Notification that a line was filled into a cache level (for tag-tracking predictors).
    fn on_fill(&mut self, _line_addr: u64, _level: CacheLevel) {}

    /// Notification that a line was evicted from a cache level.
    fn on_evict(&mut self, _line_addr: u64, _level: CacheLevel) {}
}

/// The decision a coordinator hands back at an epoch boundary, applied during the next epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinationDecision {
    /// Whether the off-chip predictor is allowed to issue speculative requests.
    pub enable_ocp: bool,
    /// Per-prefetcher enable flags (same order as the attached prefetchers).
    pub prefetcher_enable: Vec<bool>,
    /// Per-prefetcher degree (clamped by each prefetcher to `1..=max_degree`).
    pub prefetcher_degree: Vec<u32>,
}

impl CoordinationDecision {
    /// Everything enabled at full aggressiveness for `n` prefetchers with the given maximum
    /// degrees.
    pub fn all_on(max_degrees: &[u32]) -> Self {
        Self {
            enable_ocp: true,
            prefetcher_enable: vec![true; max_degrees.len()],
            prefetcher_degree: max_degrees.to_vec(),
        }
    }

    /// Everything disabled for `n` prefetchers.
    pub fn all_off(n: usize) -> Self {
        Self {
            enable_ocp: false,
            prefetcher_enable: vec![false; n],
            prefetcher_degree: vec![1; n],
        }
    }

    /// Returns `true` if any prefetcher is enabled.
    pub fn any_prefetcher_enabled(&self) -> bool {
        self.prefetcher_enable.iter().any(|&e| e)
    }
}

/// A snapshot of a *learning* coordinator's internal state, taken at an epoch boundary.
///
/// Counters are cumulative since the start of the run (per-interval deltas are recovered by
/// subtracting consecutive snapshots, which the `athena-telemetry` windowing layer does).
/// Non-learning coordinators have no internals worth sampling and return `None` from
/// [`Coordinator::telemetry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoordinatorTelemetry {
    /// The exploration rate in force (ε for ε-greedy agents; 0 for deterministic policies).
    pub epsilon: f64,
    /// Number of learning updates applied so far (SARSA updates for Athena).
    pub updates: u64,
    /// Mean Q-value of a uniformly random state-action pair under the store's hashing
    /// (see `QvStore::summary` in `athena-core` for the exact definition).
    pub q_mean: f64,
    /// Lower bound on any representable Q-value in the store.
    pub q_min: f64,
    /// Upper bound on any representable Q-value in the store.
    pub q_max: f64,
    /// Cumulative count of each action chosen so far, in the policy's own action order.
    pub action_histogram: Vec<u64>,
}

/// A prefetcher/OCP coordination policy.
///
/// The simulator calls [`Coordinator::attach`] once before the run starts and
/// [`Coordinator::on_epoch_end`] at the end of every epoch with that epoch's telemetry. The
/// returned decision is applied for the following epoch. Coordinators may also filter
/// individual L1D prefetch requests (used by TLP).
pub trait Coordinator {
    /// Display name of the policy (e.g. `"athena"`).
    fn name(&self) -> &'static str;

    /// Called once before simulation with descriptions of the attached prefetchers.
    fn attach(&mut self, prefetchers: &[PrefetcherInfo]);

    /// The decision applied during the very first epoch, before any telemetry exists. The
    /// default enables everything at full aggressiveness (the hardware reset state); static
    /// policies override it so that even the first epoch follows the policy.
    fn initial_decision(&mut self, prefetchers: &[PrefetcherInfo]) -> CoordinationDecision {
        CoordinationDecision {
            enable_ocp: true,
            prefetcher_enable: vec![true; prefetchers.len()],
            prefetcher_degree: prefetchers.iter().map(|p| p.max_degree).collect(),
        }
    }

    /// Called at the end of every epoch. Returns the decision for the next epoch.
    fn on_epoch_end(&mut self, stats: &EpochStats) -> CoordinationDecision;

    /// Whether this policy reads [`Coordinator::filter_l1d_prefetch`]'s OCP confidence.
    /// The hierarchy asks once, at attach; on `false` it neither queries the OCP's
    /// confidence nor calls the filter for L1D prefetches. The default is `true`, so a
    /// policy (or a wrapper around one) that overrides only the filter is still called.
    fn filters_l1d_prefetches(&self) -> bool {
        true
    }

    /// Optional per-request filter for L1D prefetches. `off_chip_confidence` is the OCP's
    /// confidence that the prefetch would be served from main memory. Returning `false`
    /// drops the prefetch. The default keeps every request.
    fn filter_l1d_prefetch(&mut self, _req: &PrefetchRequest, _off_chip_confidence: f32) -> bool {
        true
    }

    /// Optional snapshot of the policy's learning internals, sampled by the telemetry layer
    /// at epoch boundaries (after [`Coordinator::on_epoch_end`] has applied that epoch's
    /// update). The default — for policies with no learned state — is `None`; the simulator
    /// only calls this when agent telemetry was explicitly enabled, so implementations may
    /// do O(storage) work here without affecting ordinary runs.
    fn telemetry(&self) -> Option<CoordinatorTelemetry> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_constructors() {
        let on = CoordinationDecision::all_on(&[4, 8]);
        assert!(on.enable_ocp);
        assert_eq!(on.prefetcher_enable, vec![true, true]);
        assert_eq!(on.prefetcher_degree, vec![4, 8]);
        assert!(on.any_prefetcher_enabled());

        let off = CoordinationDecision::all_off(2);
        assert!(!off.enable_ocp);
        assert!(!off.any_prefetcher_enabled());
        assert_eq!(off.prefetcher_degree.len(), 2);
    }

    #[test]
    fn prefetch_request_is_value_like() {
        let a = PrefetchRequest::new(0x1000);
        let b = PrefetchRequest::new(0x1000);
        assert_eq!(a, b);
    }
}
