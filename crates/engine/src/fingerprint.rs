//! Per-thread caches of the `Debug` renderings that [`crate::Job::identity_hash`] hashes.
//!
//! A cell's identity covers its [`SimConfig`] and any explicit [`AthenaConfig`] through their
//! `Debug` text, so a field added to either later is covered without a field list (see
//! [`crate::SystemConfig`]'s `hash_into`). Rendering that text costs more than hashing it,
//! and a run hashes every cell at least twice (once to derive its seed, once more for its
//! store key) over a handful of distinct configurations. Each thread therefore keeps the
//! renderings of the configurations it saw last and feeds the hasher the cached text.
//!
//! A cached rendering stands in for a fresh one only when the two would be the same text.
//! Derived `PartialEq` does not promise that: it equates `0.0` and `-0.0`, which render
//! differently. So a cache hit also needs every float to match bit for bit.

use std::cell::RefCell;
use std::fmt::Debug;
use std::thread::LocalKey;

use athena_core::{AthenaConfig, RewardWeights};
use athena_sim::{CoreConfig, DramConfig, SimConfig};

use crate::seed::SeedHasher;

/// Renderings kept per configuration type and thread. A run sees a few distinct simulator
/// configurations; a tuning rung hashes one candidate's cells back to back.
const KEPT: usize = 16;

/// Configurations with their `Debug` text, oldest first.
type Renderings<T> = RefCell<Vec<(T, String)>>;

thread_local! {
    static SIM_CONFIGS: Renderings<SimConfig> = const { RefCell::new(Vec::new()) };
    static ATHENA_CONFIGS: Renderings<AthenaConfig> = const { RefCell::new(Vec::new()) };
}

/// Feeds `format!("{sim:?}")` into `h` as one string part.
pub(crate) fn write_sim_config(h: &mut SeedHasher, sim: &SimConfig) {
    write_rendering(
        &SIM_CONFIGS,
        sim,
        |a, b| a == b && sim_float_bits(a) == sim_float_bits(b),
        h,
    );
}

/// Feeds `format!("{cfg:?}")` into `h` as one string part.
pub(crate) fn write_athena_config(h: &mut SeedHasher, cfg: &AthenaConfig) {
    write_rendering(
        &ATHENA_CONFIGS,
        cfg,
        |a, b| a == b && athena_float_bits(a) == athena_float_bits(b),
        h,
    );
}

/// Feeds `value`'s `Debug` text into `h`, taken from `cache` when an entry
/// `renders_alike` it and rendered (and cached) otherwise.
fn write_rendering<T: Clone + Debug>(
    cache: &'static LocalKey<Renderings<T>>,
    value: &T,
    renders_alike: fn(&T, &T) -> bool,
    h: &mut SeedHasher,
) {
    cache.with(|cache| {
        let mut entries = cache.borrow_mut();
        let pos = match entries
            .iter()
            .rposition(|(seen, _)| renders_alike(seen, value))
        {
            Some(pos) => pos,
            None => {
                if entries.len() == KEPT {
                    entries.remove(0);
                }
                entries.push((value.clone(), format!("{value:?}")));
                entries.len() - 1
            }
        };
        h.write_str(&entries[pos].1);
    });
}

/// Compiles only for float-free types: `Eq` cannot be derived over a float, so a float
/// field added to a part checked here breaks the build instead of a cache hit.
fn float_free<T: Eq>(_: &T) {}

/// The bits of every float in a simulator configuration, by exhaustive destructuring.
fn sim_float_bits(sim: &SimConfig) -> [u64; 5] {
    let SimConfig {
        core:
            CoreConfig {
                issue_width,
                commit_width,
                rob_size,
                mispredict_penalty,
                frequency_ghz,
            },
        l1d,
        l2c,
        llc,
        dram:
            DramConfig {
                bandwidth_gbps,
                banks,
                row_buffer_bytes,
                trcd_ns,
                trp_ns,
                tcas_ns,
            },
        ocp_issue_latency,
        epoch_len,
        coordinator_update_latency,
    } = sim;
    float_free(&(
        issue_width,
        commit_width,
        rob_size,
        mispredict_penalty,
        l1d,
        l2c,
        llc,
        banks,
        row_buffer_bytes,
        ocp_issue_latency,
        epoch_len,
        coordinator_update_latency,
    ));
    [frequency_ghz, bandwidth_gbps, trcd_ns, trp_ns, tcas_ns].map(|v| v.to_bits())
}

/// The bits of every float in an Athena configuration, by exhaustive destructuring.
fn athena_float_bits(cfg: &AthenaConfig) -> [u64; 10] {
    let AthenaConfig {
        alpha,
        gamma,
        epsilon,
        tau,
        features,
        reward_weights:
            RewardWeights {
                lambda_cycle,
                lambda_llc_misses,
                lambda_llc_miss_latency,
                lambda_loads,
                lambda_mispredicted_branches,
            },
        use_uncorrelated_reward,
        planes,
        rows_per_plane,
        q_step,
        seed,
    } = cfg;
    float_free(&(
        features,
        use_uncorrelated_reward,
        planes,
        rows_per_plane,
        seed,
    ));
    [
        alpha,
        gamma,
        epsilon,
        tau,
        q_step,
        lambda_cycle,
        lambda_llc_misses,
        lambda_llc_miss_latency,
        lambda_loads,
        lambda_mispredicted_branches,
    ]
    .map(|v| v.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::kinds::{default_athena_config, CoordinatorKind, OcpKind, PrefetcherKind};
    use crate::SystemConfig;
    use athena_workloads::all_workloads;

    fn hash_of(write: impl FnOnce(&mut SeedHasher)) -> u64 {
        let mut h = SeedHasher::new();
        write(&mut h);
        h.finish()
    }

    fn uncached(text: String) -> u64 {
        hash_of(|h| h.write_str(&text))
    }

    #[test]
    fn cached_renderings_hash_like_fresh_ones() {
        let sim = SimConfig::golden_cove_like();
        let tiny = SimConfig::tiny();
        for s in [&sim, &tiny, &sim, &tiny] {
            assert_eq!(
                hash_of(|h| write_sim_config(h, s)),
                uncached(format!("{s:?}"))
            );
        }
        let cfg = default_athena_config();
        for _ in 0..2 {
            assert_eq!(
                hash_of(|h| write_athena_config(h, &cfg)),
                uncached(format!("{cfg:?}"))
            );
        }
    }

    /// A job's identity with every `Debug` text rendered afresh: `Job::hash_cell_into`
    /// without the caches.
    fn uncached_identity(job: &Job) -> u64 {
        hash_of(|h| {
            h.write_str(&job.experiment);
            h.write_str(job.cell.name());
            h.write_u64(job.config.prefetchers.len() as u64);
            for p in &job.config.prefetchers {
                h.write_str(p.name());
            }
            h.write_str(job.config.ocp.map_or("", |o| o.name()));
            h.write_str(&format!("{:?}", job.config.sim));
            h.write_str(job.coordinator.name());
            if let CoordinatorKind::AthenaWith(cfg) = &job.coordinator {
                h.write_str(&format!("{cfg:?}"));
            }
            h.write_u64(job.instructions);
        })
    }

    #[test]
    fn signed_zeros_never_share_a_rendering() {
        let job = |gbps: f64, epsilon: f64| {
            let cfg = AthenaConfig {
                epsilon,
                ..default_athena_config()
            };
            Job::single(
                "fig12a",
                all_workloads()[0].clone(),
                SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet).with_bandwidth(gbps),
                CoordinatorKind::AthenaWith(cfg),
                4_000,
            )
        };
        let pos = job(0.0, 0.0);
        let neg_sim = job(-0.0, 0.0);
        let neg_cfg = job(0.0, -0.0);
        assert_eq!(
            pos.config, neg_sim.config,
            "PartialEq equates the signed zeros"
        );
        assert_eq!(pos.coordinator, neg_cfg.coordinator);
        // One thread, the equal-comparing configurations back to back.
        let ids: Vec<u64> = [&pos, &neg_sim, &neg_cfg, &pos]
            .into_iter()
            .map(|job| {
                let id = job.identity_hash();
                assert_eq!(id, uncached_identity(job));
                id
            })
            .collect();
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
        assert_ne!(ids[1], ids[2]);
        assert_eq!(ids[0], ids[3]);
    }

    #[test]
    fn the_cache_stays_bounded_and_correct_past_its_size() {
        let sims: Vec<SimConfig> = (0..KEPT + 3)
            .map(|i| SimConfig::golden_cove_like().with_ocp_issue_latency(i as u64))
            .collect();
        for s in sims.iter().chain(sims.iter().rev()) {
            assert_eq!(
                hash_of(|h| write_sim_config(h, s)),
                uncached(format!("{s:?}"))
            );
        }
        assert_eq!(SIM_CONFIGS.with(|c| c.borrow().len()), KEPT);
    }
}
