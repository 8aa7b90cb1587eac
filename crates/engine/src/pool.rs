//! A hand-rolled bounded worker pool.
//!
//! The offline build has no access to crates.io (so no rayon/crossbeam); the pool is built
//! from `std` only: scoped worker threads pull job indices from a shared atomic injector
//! counter and write each result into a per-job slot, so the caller sees results in
//! submission order regardless of which worker finished when. Panic isolation and
//! per-cell timing are the cell runner's business (`exec::run_cell`), not the pool's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads available to this process (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on up to `workers` worker threads and returns the results in
/// item order.
///
/// Properties the engine relies on:
///
/// * **In-order collection** — `out[i]` is always the result for `items[i]`.
/// * **Serial fast path** — with `workers <= 1` no threads are spawned and items run on the
///   caller's thread, one after another, exactly like a plain loop.
///
/// A panic inside `f` is not caught: it ends the whole map. `workers` is clamped to
/// `[1, items.len()]`.
pub fn parallel_map<P, R, F>(workers: usize, items: &[P], f: F) -> Vec<R>
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
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("result slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every claimed job stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(8, &items, |&i| i * 2);
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..33).collect();
        let collect = |workers| -> Vec<u64> {
            parallel_map(workers, &items, |&i| i.wrapping_mul(0x9e37_79b9))
        };
        assert_eq!(collect(1), collect(4));
        assert_eq!(collect(4), collect(16));
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
}
