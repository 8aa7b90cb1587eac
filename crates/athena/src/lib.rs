//! # athena-core
//!
//! The paper's primary contribution: **Athena**, a lightweight SARSA-based reinforcement
//! learning agent that coordinates an off-chip predictor (OCP) with one or more data
//! prefetchers and simultaneously controls prefetcher aggressiveness.
//!
//! The crate provides:
//!
//! * [`QvStore`] — the partitioned, multi-hash Q-value storage (8 planes × 64 rows × 4
//!   actions, 8-bit quantised entries; §5.1 / Table 4 of the paper);
//! * [`FeatureVector`] / [`Feature`] — the system-level state features of Table 1 and their
//!   quantisation into the state vector;
//! * [`CompositeReward`] — the correlated / uncorrelated reward framework of §4.3 and
//!   Table 2;
//! * [`AthenaAgent`] — the agent itself, implementing [`athena_sim::Coordinator`], including
//!   the Q-value-driven prefetch-degree control of Algorithm 1;
//! * [`AthenaConfig`] — every hyperparameter, defaulting to the values found by the paper's
//!   automated design-space exploration (Table 3), plus the ablation knobs used in §7.5.2.
//!
//! ```
//! use athena_core::{AthenaAgent, AthenaConfig};
//! use athena_sim::{Coordinator, EpochStats, PrefetcherInfo, CacheLevel};
//!
//! let mut agent = AthenaAgent::new(AthenaConfig::default());
//! agent.attach(&[PrefetcherInfo { name: "pythia", level: CacheLevel::L2c, max_degree: 4 }]);
//! let decision = agent.on_epoch_end(&EpochStats::default());
//! assert_eq!(decision.prefetcher_enable.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod config;
mod features;
mod qvstore;
mod reward;

pub use agent::{Action, AthenaAgent};
pub use config::{AthenaConfig, RewardWeights, StorageOverhead};
pub use features::{Feature, FeatureVector, LEVELS_PER_FEATURE};
pub use qvstore::{QvStore, QvSummary};
pub use reward::CompositeReward;
