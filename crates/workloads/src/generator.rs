//! Parameterised trace generators: the access-pattern classes used to synthesise the
//! workload suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use athena_sim::TraceRecord;

const LINE: u64 = 64;

/// The access-pattern classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Sequential streaming over a large array (prefetcher-friendly; e.g. `libquantum`,
    /// `lbm`, streaming PARSEC kernels).
    Stream {
        /// Footprint of the streamed array in bytes.
        footprint: u64,
        /// Loads per iteration of the inner loop (controls memory intensity).
        loads_per_iter: u32,
    },
    /// Constant-stride walks (prefetcher-friendly; e.g. dense linear algebra columns).
    Strided {
        /// Footprint in bytes.
        footprint: u64,
        /// Stride between consecutive accesses in bytes.
        stride: u64,
    },
    /// Repeated visits to small spatial regions with a fixed intra-region footprint
    /// (SMS-friendly; e.g. `omnetpp`-style object field accesses, facesim).
    Spatial {
        /// Number of distinct 2 KiB regions.
        regions: u64,
        /// Which of the 32 lines of a region are touched (bitmap).
        footprint_mask: u32,
    },
    /// Dependent pointer chasing over a large pool of nodes (prefetcher-adverse,
    /// OCP-friendly; e.g. `mcf`, `xalancbmk`, graph traversals).
    PointerChase {
        /// Number of nodes in the pool (64 bytes each).
        nodes: u64,
        /// Probability (percent) that a short sequential burst follows a hop. These bursts
        /// bait the prefetchers into issuing mostly-useless requests, reproducing the
        /// bandwidth-waste behaviour of irregular SPEC workloads.
        burst_pct: u32,
    },
    /// Random probes into a large table with occasional second accesses to the same page
    /// (prefetcher-adverse; hash joins, `canneal`).
    HashProbe {
        /// Table footprint in bytes.
        footprint: u64,
        /// Probability (percent) of a short same-page follow-up access after a probe.
        locality_pct: u32,
    },
    /// Ligra-style frontier processing: a sequential pass over the frontier interleaved with
    /// random, dependent neighbour lookups.
    GraphFrontier {
        /// Number of vertices (8-byte entries) in the graph.
        vertices: u64,
        /// Average neighbours visited per frontier element.
        neighbours: u32,
    },
    /// Phases alternating between a streaming phase and a pointer-chasing phase, to exercise
    /// phase-adaptive coordination.
    MixedPhase {
        /// Instructions per phase.
        phase_len: u64,
        /// Streaming footprint in bytes.
        stream_footprint: u64,
        /// Pointer-chase pool size in nodes.
        chase_nodes: u64,
    },
    /// Mostly cache-resident compute with a moderate miss rate and branch-heavy control flow
    /// (CVP-style integer codes).
    ComputeBranchy {
        /// Hot working-set size in bytes (mostly cache resident).
        hot_bytes: u64,
        /// Cold footprint in bytes touched occasionally.
        cold_bytes: u64,
        /// Percent of loads that touch the cold footprint.
        cold_pct: u32,
        /// Percent of branches that are data-dependent (hard to predict).
        hard_branch_pct: u32,
    },
}

/// A deterministic, infinite trace generator for one workload.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    pattern: Pattern,
    rng: StdRng,
    /// Base virtual address of this workload's data segment.
    base: u64,
    position: u64,
    instr_count: u64,
    /// Per-pattern scratch state.
    current_node: u64,
    burst_remaining: u32,
    /// The current group of instructions, oldest first; `next` reads it at `cursor`.
    pending: Vec<TraceRecord>,
    cursor: usize,
}

impl TraceGenerator {
    /// Creates a generator for `pattern` seeded with `seed`.
    pub fn new(pattern: Pattern, seed: u64) -> Self {
        Self {
            pattern,
            rng: StdRng::seed_from_u64(seed ^ 0xA7E4_A001),
            base: 0x1000_0000 + (seed % 64) * 0x1000_0000,
            position: 0,
            instr_count: 0,
            current_node: seed % 97,
            burst_remaining: 0,
            pending: Vec::new(),
            cursor: 0,
        }
    }

    fn pc(&self, slot: u64) -> u64 {
        0x40_0000 + slot * 4
    }

    fn push_branch(&mut self, pc_slot: u64, taken_pct: u32, random: bool) {
        let taken = if random {
            self.rng.gen_range(0..100) < taken_pct
        } else {
            // A loop-style branch: taken except once every ~32 iterations.
            !self.instr_count.is_multiple_of(32)
        };
        self.pending
            .push(TraceRecord::branch(self.pc(pc_slot), taken));
    }

    /// Emits `n` filler instructions: ALU work, cache-resident "hot" loads and an
    /// occasional well-predicted branch. Filler dilutes the miss rate to realistic
    /// memory intensities (the paper's workloads average a few to a few tens of LLC misses
    /// per kilo-instruction, not one miss per instruction).
    /// `allow_loads` controls whether the filler may contain (cache-resident) loads. It is
    /// set to `false` between the links of a dependence chain, because a dependent load
    /// waits on the *most recent* load and an interleaved filler load would break the chain.
    fn filler(&mut self, n: u64, allow_loads: bool) {
        for k in 0..n {
            match k % 10 {
                2 | 7 if allow_loads => {
                    // Hot loads hit a small per-workload buffer that stays cache resident.
                    let hot = self.base + 0x0080_0000 + (self.rng.gen_range(0..256u64)) * LINE;
                    self.pending
                        .push(TraceRecord::load(self.pc(20 + k % 4), hot, false));
                }
                9 => self.push_branch(90 + k % 2, 95, false),
                _ => self.pending.push(TraceRecord::alu(self.pc(48 + k % 8))),
            }
        }
    }

    /// Replaces `pending` with the next group of instructions for the current pattern.
    fn refill(&mut self) {
        self.pending.clear();
        self.cursor = 0;
        match self.pattern {
            Pattern::Stream {
                footprint,
                loads_per_iter,
            } => {
                // Walk 4-byte elements sequentially: roughly one load in sixteen crosses
                // into a new cache line, and half of the crossing loads carry a dependence
                // on the previous load (dependence-limited MLP, as in real streaming code
                // whose index or accumulator chains bound overlap).
                for i in 0..loads_per_iter as u64 {
                    let addr = self.base + (self.position * 4) % footprint;
                    let crosses = self.position.is_multiple_of(16);
                    self.position += 1;
                    let dep = crosses && self.rng.gen_range(0..100) < 35;
                    self.pending.push(TraceRecord::load(self.pc(i), addr, dep));
                    self.pending.push(TraceRecord::alu(self.pc(32 + i)));
                    self.pending.push(TraceRecord::alu(self.pc(36 + i)));
                }
                if self.position.is_multiple_of(64) {
                    let addr = self.base + footprint + (self.position * 4) % (footprint / 2);
                    self.pending.push(TraceRecord::store(self.pc(70), addr));
                }
                self.push_branch(80, 95, false);
            }
            Pattern::Strided { footprint, stride } => {
                // One strided (line-missing) access followed by enough local work that the
                // miss rate lands in the tens-of-MPKI range.
                let addr = self.base + (self.position * stride) % footprint;
                self.position += 1;
                let dep = self.rng.gen_range(0..100) < 85;
                self.pending.push(TraceRecord::load(self.pc(1), addr, dep));
                self.filler(70, false);
                self.push_branch(81, 95, false);
            }
            Pattern::Spatial {
                regions,
                footprint_mask,
            } => {
                // Visit a region and touch its footprint lines, separated by local work.
                let region = self.rng.gen_range(0..regions);
                let region_base = self.base + region * 2048;
                let mut slot = 0;
                for bit in 0..32u64 {
                    if footprint_mask & (1 << bit) != 0 {
                        self.pending.push(TraceRecord::load(
                            self.pc(slot % 8),
                            region_base + bit * LINE,
                            false,
                        ));
                        slot += 1;
                        self.filler(60, true);
                    }
                }
                self.push_branch(82, 90, false);
            }
            Pattern::PointerChase { nodes, burst_pct } => {
                if self.burst_remaining > 0 {
                    // Sequential burst after a hop: bait for the prefetchers.
                    self.burst_remaining -= 1;
                    self.current_node = (self.current_node + 1) % nodes;
                    let addr = self.base + self.current_node * LINE;
                    self.pending
                        .push(TraceRecord::load(self.pc(2), addr, false));
                    self.filler(8, false);
                } else {
                    // A dependent hop to a pseudo-random node.
                    self.current_node = (self
                        .current_node
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407))
                        % nodes;
                    let addr = self.base + self.current_node * LINE;
                    self.pending.push(TraceRecord::load(self.pc(3), addr, true));
                    self.filler(45, false);
                    if self.rng.gen_range(0..100) < burst_pct {
                        self.burst_remaining = self.rng.gen_range(2..5);
                    }
                }
                self.push_branch(83, 60, true);
            }
            Pattern::HashProbe {
                footprint,
                locality_pct,
            } => {
                let lines = footprint / LINE;
                let probe_line = self.rng.gen_range(0..lines);
                let addr = self.base + probe_line * LINE;
                self.pending
                    .push(TraceRecord::load(self.pc(4), addr, false));
                if self.rng.gen_range(0..100) < locality_pct {
                    // Same-page follow-up (e.g. reading the rest of the bucket), dependent
                    // on the probe result.
                    let follow = (addr & !4095) + self.rng.gen_range(0..64) * LINE;
                    self.pending
                        .push(TraceRecord::load(self.pc(5), follow, true));
                }
                if self.rng.gen_range(0..100) < 20 {
                    self.pending.push(TraceRecord::store(self.pc(71), addr + 8));
                }
                self.filler(45, true);
                self.push_branch(84, 50, true);
            }
            Pattern::GraphFrontier {
                vertices,
                neighbours,
            } => {
                // Sequential frontier element.
                let frontier_addr = self.base + (self.position * 8) % (vertices * 8);
                self.position += 1;
                self.pending
                    .push(TraceRecord::load(self.pc(6), frontier_addr, false));
                // Random dependent neighbour lookups, back to back so the dependence chain
                // through the edge list is preserved.
                for n in 0..neighbours as u64 {
                    let v = self.rng.gen_range(0..vertices);
                    let addr = self.base + 0x4000_0000 + v * LINE;
                    self.pending
                        .push(TraceRecord::load(self.pc(7 + n % 4), addr, true));
                    self.pending.push(TraceRecord::alu(self.pc(41)));
                }
                self.filler(10 + 34 * u64::from(neighbours), true);
                if self.rng.gen_range(0..100) < 30 {
                    let v = self.rng.gen_range(0..vertices);
                    self.pending.push(TraceRecord::store(
                        self.pc(72),
                        self.base + 0x8000_0000 + v * 8,
                    ));
                }
                self.push_branch(85, 70, true);
            }
            Pattern::MixedPhase {
                phase_len,
                stream_footprint,
                chase_nodes,
            } => {
                let in_stream_phase = (self.instr_count / phase_len).is_multiple_of(2);
                if in_stream_phase {
                    let addr = self.base + (self.position * 4) % stream_footprint;
                    let crosses = self.position.is_multiple_of(16);
                    self.position += 1;
                    let dep = crosses && self.rng.gen_range(0..100) < 35;
                    self.pending.push(TraceRecord::load(self.pc(8), addr, dep));
                    self.pending.push(TraceRecord::alu(self.pc(42)));
                    self.pending.push(TraceRecord::alu(self.pc(47)));
                    self.push_branch(86, 95, false);
                } else {
                    self.current_node = (self
                        .current_node
                        .wrapping_mul(2862933555777941757)
                        .wrapping_add(3037000493))
                        % chase_nodes;
                    let addr = self.base + 0x2000_0000 + self.current_node * LINE;
                    self.pending.push(TraceRecord::load(self.pc(9), addr, true));
                    self.filler(40, false);
                    self.push_branch(87, 55, true);
                }
            }
            Pattern::ComputeBranchy {
                hot_bytes,
                cold_bytes,
                cold_pct,
                hard_branch_pct,
            } => {
                let cold = self.rng.gen_range(0..100) < cold_pct;
                // Hot and cold accesses come from different code paths (different PCs), so a
                // PC-indexed off-chip predictor can separate them — as it can in real codes.
                let (addr, pc_slot) = if cold {
                    (
                        self.base + 0x4000_0000 + self.rng.gen_range(0..cold_bytes / LINE) * LINE,
                        11,
                    )
                } else {
                    (
                        self.base + self.rng.gen_range(0..hot_bytes / LINE) * LINE,
                        10,
                    )
                };
                self.pending
                    .push(TraceRecord::load(self.pc(pc_slot), addr, false));
                self.filler(30, true);
                let hard = self.rng.gen_range(0..100) < hard_branch_pct;
                if hard {
                    self.push_branch(88, 50, true);
                } else {
                    self.push_branch(89, 90, false);
                }
            }
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        if self.cursor >= self.pending.len() {
            self.refill();
        }
        self.instr_count += 1;
        let record = self.pending.get(self.cursor).copied();
        self.cursor += 1;
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(pattern: Pattern, n: usize) -> (usize, usize, usize, usize) {
        let generator = TraceGenerator::new(pattern, 42);
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        let mut dependent = 0;
        for rec in generator.take(n) {
            if rec.is_load() {
                loads += 1;
                if matches!(
                    rec.kind,
                    athena_sim::InstrKind::Load {
                        dep_on_recent_load: true,
                        ..
                    }
                ) {
                    dependent += 1;
                }
            } else if rec.is_store() {
                stores += 1;
            } else if rec.is_branch() {
                branches += 1;
            }
        }
        (loads, stores, branches, dependent)
    }

    #[test]
    fn generators_are_deterministic() {
        let p = Pattern::HashProbe {
            footprint: 1 << 24,
            locality_pct: 30,
        };
        let a: Vec<TraceRecord> = TraceGenerator::new(p, 7).take(5000).collect();
        let b: Vec<TraceRecord> = TraceGenerator::new(p, 7).take(5000).collect();
        assert_eq!(a, b);
        let c: Vec<TraceRecord> = TraceGenerator::new(p, 8).take(5000).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn every_pattern_produces_a_sensible_mix() {
        let patterns = [
            Pattern::Stream {
                footprint: 1 << 26,
                loads_per_iter: 4,
            },
            Pattern::Strided {
                footprint: 1 << 26,
                stride: 256,
            },
            Pattern::Spatial {
                regions: 4096,
                footprint_mask: 0x0f0f_0f0f,
            },
            Pattern::PointerChase {
                nodes: 1 << 20,
                burst_pct: 25,
            },
            Pattern::HashProbe {
                footprint: 1 << 26,
                locality_pct: 30,
            },
            Pattern::GraphFrontier {
                vertices: 1 << 20,
                neighbours: 2,
            },
            Pattern::MixedPhase {
                phase_len: 10_000,
                stream_footprint: 1 << 26,
                chase_nodes: 1 << 20,
            },
            Pattern::ComputeBranchy {
                hot_bytes: 1 << 15,
                cold_bytes: 1 << 26,
                cold_pct: 20,
                hard_branch_pct: 40,
            },
        ];
        for p in patterns {
            let (loads, _stores, branches, _dep) = stats(p, 20_000);
            assert!(loads > 200, "{p:?}: too few loads ({loads})");
            assert!(branches > 400, "{p:?}: too few branches ({branches})");
        }
    }

    #[test]
    fn pointer_chase_is_far_more_dependent_than_streaming() {
        let (_, _, _, dep_chase) = stats(
            Pattern::PointerChase {
                nodes: 1 << 20,
                burst_pct: 20,
            },
            20_000,
        );
        let (_, _, _, dep_stream) = stats(
            Pattern::Stream {
                footprint: 1 << 26,
                loads_per_iter: 4,
            },
            20_000,
        );
        assert!(dep_chase > 300, "dep_chase={dep_chase}");
        assert!(
            dep_stream * 2 < dep_chase,
            "streaming should have far fewer dependent loads: stream={dep_stream} chase={dep_chase}"
        );
    }

    #[test]
    fn stream_addresses_walk_forward_through_lines() {
        let generator = TraceGenerator::new(
            Pattern::Stream {
                footprint: 1 << 26,
                loads_per_iter: 1,
            },
            3,
        );
        // Only look at the streamed loads (the stream PC slots are below 32); filler hot
        // loads revisit a small buffer and are not part of the stream.
        let addrs: Vec<u64> = generator
            .take(5000)
            .filter_map(|r| {
                if r.is_load() && r.pc < 0x40_0000 + 32 * 4 {
                    r.addr()
                } else {
                    None
                }
            })
            .collect();
        assert!(addrs.len() > 500);
        for w in addrs.windows(2) {
            let delta = w[1] as i64 - w[0] as i64;
            assert!((0..=64).contains(&delta), "unexpected stream delta {delta}");
        }
    }

    #[test]
    fn mixed_phase_alternates_behaviour() {
        let generator = TraceGenerator::new(
            Pattern::MixedPhase {
                phase_len: 5_000,
                stream_footprint: 1 << 26,
                chase_nodes: 1 << 20,
            },
            11,
        );
        let records: Vec<TraceRecord> = generator.take(20_000).collect();
        let count_dep = |slice: &[TraceRecord]| {
            slice
                .iter()
                .filter(|r| {
                    matches!(
                        r.kind,
                        athena_sim::InstrKind::Load {
                            dep_on_recent_load: true,
                            ..
                        }
                    )
                })
                .count()
        };
        let first_phase_dep = count_dep(&records[..4_000]);
        let second_phase_dep = count_dep(&records[6_000..9_000]);
        assert!(
            second_phase_dep > first_phase_dep * 2,
            "the chase phase should be far more dependent: stream={first_phase_dep} chase={second_phase_dep}"
        );
        assert!(
            second_phase_dep > 50,
            "second phase should be pointer chasing"
        );
    }
}
