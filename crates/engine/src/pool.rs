//! A hand-rolled bounded worker pool.
//!
//! The offline build has no access to crates.io (so no rayon/crossbeam); the pool is built
//! from `std` only: scoped worker threads pull job indices from a shared atomic injector
//! counter, run the job under [`std::panic::catch_unwind`] so one poisoned job fails only
//! its own cell, and write the outcome into a per-job result slot so the caller sees results
//! in submission order regardless of which worker finished when.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Outcome of one pooled job: the produced value plus its wall-clock time, or the panic
/// message if the job panicked.
pub type PoolOutcome<R> = Result<(R, Duration), String>;

/// Number of hardware threads available to this process (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on up to `workers` worker threads and returns the outcomes in
/// item order.
///
/// Properties the engine relies on:
///
/// * **In-order collection** — `out[i]` is always the outcome for `items[i]`.
/// * **Panic isolation** — a panic inside `f` is caught and reported as `Err(message)` for
///   that item only; every other item still runs.
/// * **Serial fast path** — with `workers <= 1` no threads are spawned and items run on the
///   caller's thread, one after another, exactly like a plain loop.
/// * **Wall-clock accounting** — each `Ok` outcome carries the time spent inside `f` for
///   that item.
///
/// `workers` is clamped to `[1, items.len()]`.
pub fn parallel_map<P, R, F>(workers: usize, items: &[P], f: F) -> Vec<PoolOutcome<R>>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = workers.max(1).min(items.len());
    if workers == 1 {
        return items.iter().map(|item| run_one(&f, item)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<PoolOutcome<R>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let outcome = run_one(&f, &items[i]);
                *slots[i].lock().expect("result slot lock") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every claimed job stores an outcome")
        })
        .collect()
}

fn run_one<P, R, F>(f: &F, item: &P) -> PoolOutcome<R>
where
    F: Fn(&P) -> R + Sync,
{
    let start = Instant::now();
    catch_unwind(AssertUnwindSafe(|| f(item)))
        .map(|value| (value, start.elapsed()))
        .map_err(|panic| panic_message(panic.as_ref()))
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(8, &items, |&i| i * 2);
        assert_eq!(out.len(), 64);
        for (i, o) in out.iter().enumerate() {
            let (v, _) = o.as_ref().expect("no panics");
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..33).collect();
        let collect = |workers| -> Vec<u64> {
            parallel_map(workers, &items, |&i| i.wrapping_mul(0x9e37_79b9))
                .into_iter()
                .map(|o| o.expect("ok").0)
                .collect()
        };
        assert_eq!(collect(1), collect(4));
        assert_eq!(collect(4), collect(16));
    }

    #[test]
    fn one_panicking_job_does_not_sink_the_batch() {
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map(4, &items, |&i| {
            assert!(i != 7, "job {i} is poisoned");
            i + 1
        });
        for (i, o) in out.iter().enumerate() {
            if i == 7 {
                let msg = o.as_ref().expect_err("job 7 panics");
                assert!(msg.contains("poisoned"), "panic message survives: {msg}");
            } else {
                assert_eq!(o.as_ref().expect("other jobs run").0, i as u64 + 1);
            }
        }
    }

    #[test]
    fn worker_count_is_clamped() {
        // More workers than items and zero workers both still work.
        let items = [1u64, 2, 3];
        let a = parallel_map(100, &items, |&i| i);
        let b = parallel_map(0, &items, |&i| i);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn empty_batch_is_fine() {
        let items: Vec<u64> = Vec::new();
        assert!(parallel_map(4, &items, |&i| i).is_empty());
    }

    #[test]
    fn wall_clock_is_recorded() {
        let items = [5u64];
        let out = parallel_map(1, &items, |&i| {
            std::thread::sleep(Duration::from_millis(i));
            i
        });
        let (_, wall) = out[0].as_ref().expect("ok");
        assert!(*wall >= Duration::from_millis(5));
    }
}
