//! # athena-bench
//!
//! Criterion microbenchmarks for the Athena reproduction.
//!
//! The `microbench` suite times the performance-critical primitives: cache lookups, DRAM
//! accesses, QVStore SARSA updates, Bloom filter operations, trace generation, a whole
//! single-core simulation step, and the engine's job-dispatch overhead. End-to-end sweep
//! timings live in the standalone `e2ebench/` package, and `figures --jobs 1` prints each
//! experiment's wall time.
//!
//! Run with `cargo bench -p athena-bench` (or `cargo bench --workspace`).
