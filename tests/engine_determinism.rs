//! Engine determinism and scaling guarantees (ISSUE 2 acceptance criteria):
//!
//! * experiment tables are byte-identical at any `--jobs` value;
//! * per-cell results do not depend on submission order or worker count;
//! * one poisoned job fails only its own cell;
//! * on a 4+-core host, a parallel batch runs at least 2× faster than the serial path.

use std::time::{Duration, Instant};

use athena_repro::engine::{available_parallelism, Job};
use athena_repro::harness::experiments::run_experiment;
use athena_repro::prelude::*;

fn cd1() -> SystemConfig {
    SystemConfig::cd1(PrefetcherKind::Pythia, OcpKind::Popet)
}

/// `n` Athena jobs over distinct workloads (the most stateful coordinator, so any
/// scheduling leak into results would show here first).
fn athena_jobs(n: usize, instructions: u64) -> Vec<Job> {
    all_workloads()
        .into_iter()
        .take(n)
        .map(|spec| {
            Job::single(
                "determinism",
                spec,
                cd1(),
                CoordinatorKind::Athena,
                instructions,
            )
        })
        .collect()
}

/// Deterministic Fisher–Yates shuffle (xorshift64), so the test itself is reproducible.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

#[test]
fn tables_are_byte_identical_across_worker_counts() {
    let opts = RunOptions {
        instructions: 8_000,
        workload_limit: Some(4),
        jobs: 1,
        trace_dir: None,
        tuned_config: None,
        store: None,
        dist: None,
        probe: None,
        progress: false,
        memo: Default::default(),
    };
    // One category sweep, one raw-stats figure and one multi-core figure.
    for fig in ["fig7", "fig3", "fig15"] {
        let serial = run_experiment(fig, &opts).expect(fig);
        let parallel = run_experiment(fig, &opts.clone().with_jobs(4)).expect(fig);
        assert_eq!(serial, parallel, "{fig} tables diverged");
        assert_eq!(
            serial.to_csv(),
            parallel.to_csv(),
            "{fig} CSV bytes diverged"
        );
    }
}

#[test]
fn shuffled_submission_order_does_not_change_results() {
    let jobs = athena_jobs(8, 6_000);
    let reference = Engine::new(1).run(jobs.clone());

    let mut shuffled = jobs;
    shuffle(&mut shuffled, 0x243f_6a88_85a3_08d3);
    let results = Engine::new(4).run(shuffled);

    for r in &reference {
        let shuffled_cell = results
            .iter()
            .find(|c| c.label == r.label)
            .expect("every cell still present");
        assert_eq!(shuffled_cell.seed, r.seed, "{}: seed changed", r.label);
        assert_eq!(
            shuffled_cell.output, r.output,
            "{}: result changed",
            r.label
        );
    }
}

#[test]
fn one_poisoned_job_fails_only_its_cell() {
    // Cell 5 replays a trace file that does not exist, so it panics inside the cell.
    let missing = std::env::temp_dir().join(format!(
        "athena-poisoned-{}-missing.trace",
        std::process::id()
    ));
    let mut jobs = athena_jobs(12, 4_000);
    jobs[5] = Job::from_file(
        "determinism",
        "poisoned",
        &missing,
        cd1(),
        CoordinatorKind::Athena,
        4_000,
    );
    let serial = Engine::new(1).run(jobs.clone());
    let parallel = Engine::new(4).run(jobs);
    assert_eq!(parallel.len(), 12);
    for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
        if i == 5 {
            let message = p.output.as_ref().expect_err("the poisoned cell fails");
            assert!(
                message.contains("missing.trace"),
                "the error names the trace: {message}"
            );
        } else {
            assert!(p.output.is_ok(), "{}: the other cells complete", p.label);
            assert_eq!(p.output, s.output, "{}: result changed", p.label);
        }
    }
}

/// The ISSUE 2 scaling criterion: ≥ 2× faster with 4 workers on a 4+-core machine. On
/// hosts with fewer hardware threads (e.g. a 1-CPU container) there is nothing to verify,
/// so the test degrades to checking that the parallel path at least completes correctly.
#[test]
fn parallel_batches_beat_serial_on_multicore_hosts() {
    let host = available_parallelism();
    let batch = || athena_jobs(16, 30_000);

    let start = Instant::now();
    let serial = Engine::new(1).run(batch());
    let serial_wall = start.elapsed();

    let start = Instant::now();
    let parallel = Engine::new(4).run(batch());
    let parallel_wall = start.elapsed();

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.output, p.output,
            "{}: speedup must not cost accuracy",
            s.label
        );
    }

    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
    eprintln!(
        "engine speedup: {speedup:.2}x (serial {serial_wall:.1?}, parallel {parallel_wall:.1?}, \
         {host} hardware threads)"
    );
    if host >= 4 && serial_wall > Duration::from_millis(200) {
        assert!(
            speedup >= 2.0,
            "expected >= 2x speedup with 4 workers on a {host}-thread host, got {speedup:.2}x"
        );
    }
}
