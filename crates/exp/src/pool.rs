//! A hand-rolled fixed-size worker pool over `std::thread`.
//!
//! The workspace is offline (no rayon), so the engine brings its own
//! fan-out: `jobs` scoped worker threads pull trial indices from a
//! shared atomic cursor, run the caller's closure, and stream
//! `(index, result)` pairs back over a channel. The collector thread
//! places every result into its index slot, so the output `Vec` is in
//! index order **regardless of completion order** — this is the half of
//! the determinism contract the pool owns (the other half, per-trial
//! seed streams, lives in [`crate::seed`]). Each worker also owns a
//! state that its closure updates; the states come back when the
//! workers finish, so what a worker accumulates never crosses the
//! channel.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves a requested job count: `0` means "one worker per available
/// core", anything else is taken literally.
#[must_use]
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f(state, 0), f(state, 1), …, f(state, count - 1)` on a pool
/// of `jobs` worker threads and returns the results in index order,
/// with the final state of every worker that ran.
///
/// * Each worker owns a state, built by `init()` when it starts, that
///   `f(&mut state, index)` may update. Which indices share a state
///   depends on scheduling, so a caller that wants deterministic output
///   combines the states with an order-free fold. The engine folds each
///   trial's metrics registry into its worker's
///   [`MetricsShard`](rto_obs::MetricsShard) and merges the shards (a
///   commutative monoid).
/// * `jobs <= 1` runs inline on the caller thread with one state — no
///   pool, no channel; because results are keyed by index either path
///   yields the same `Vec` for a pure `f`.
/// * `on_done(index, &result)` is invoked on the **collector** thread
///   as each result lands (out of order); the engine uses it for
///   progress metrics and trace events.
// analyze: hot-path
pub fn run_indexed<S, R, I, F, D>(
    count: usize,
    jobs: usize,
    init: I,
    f: F,
    mut on_done: D,
) -> (Vec<R>, Vec<S>)
where
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
    D: FnMut(usize, &R),
{
    let jobs = effective_jobs(jobs).min(count.max(1));
    if jobs <= 1 {
        let mut state = init();
        let out = (0..count)
            .map(|i| {
                let r = f(&mut state, i);
                on_done(i, &r);
                r
            })
            // analyze: allow(A7): one result vector per sweep, sized by the iterator
            .collect();
        // analyze: allow(A7): one state per sweep
        return (out, vec![state]);
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);

    let states = std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let (init, f) = (&init, &f);
            workers.push(scope.spawn(move || {
                let mut state = init();
                // analyze: allow(A8): the shared cursor is fetch_add'd every iteration, so workers claim strictly increasing indices and break past `count`
                loop {
                    // The cursor is the single work-distribution point.
                    // Relaxed suffices: uniqueness of the handed-out index
                    // comes from `fetch_add`'s read-modify-write atomicity,
                    // not from ordering — no other memory is published
                    // through the cursor (results travel over the channel,
                    // which brings its own happens-before). Pinned by the
                    // loom model in `tests/loom_pool.rs`.
                    // Relaxed is enough: pure index distribution; RMW atomicity alone guarantees uniqueness
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    if tx.send((i, f(&mut state, i))).is_err() {
                        // Collector hung up (it never does before draining);
                        // nothing useful left to do.
                        break;
                    }
                }
                state
            }));
        }
        // Drop the collector's own sender so `recv` ends when the last
        // worker finishes.
        drop(tx);
        while let Ok((i, r)) = rx.recv() {
            on_done(i, &r);
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(r);
            }
        }
        // A worker that panicked re-raises its panic here.
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<S>>()
    });

    // analyze: allow(A7): one result vector per sweep, assembled after the workers drain
    let out: Vec<R> = slots.into_iter().flatten().collect();
    assert_eq!(
        out.len(),
        count,
        "worker pool lost results (a worker panicked?)"
    );
    (out, states)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_job_count() {
        let f = |i: usize| i * i;
        let expected: Vec<usize> = (0..100).map(f).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let (out, _) = run_indexed(100, jobs, || (), |_, i| f(i), |_, _| {});
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn on_done_sees_every_index_exactly_once() {
        for jobs in [1, 4] {
            let mut seen = vec![0usize; 50];
            let (out, _) = run_indexed(
                50,
                jobs,
                || (),
                |_, i| i + 1,
                |i, r| {
                    assert_eq!(*r, i + 1);
                    seen[i] += 1;
                },
            );
            assert_eq!(out.len(), 50);
            assert!(seen.iter().all(|&c| c == 1), "each index reported once");
        }
    }

    #[test]
    fn worker_states_together_see_every_index_once() {
        for jobs in [1, 2, 3, 8] {
            let (out, states) = run_indexed(
                60,
                jobs,
                Vec::new,
                |seen: &mut Vec<usize>, i| {
                    seen.push(i);
                    i * 2
                },
                |_, _| {},
            );
            assert_eq!(out, (0..60).map(|i| i * 2).collect::<Vec<_>>());
            assert!((1..=jobs).contains(&states.len()));
            let mut all: Vec<usize> = states.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..60).collect::<Vec<_>>(), "jobs {jobs}");
        }
    }

    #[test]
    fn empty_matrix_yields_empty_vec() {
        let (out, _) = run_indexed(0, 8, || (), |_, i| i, |_, _| {});
        assert!(out.is_empty());
    }

    #[test]
    fn effective_jobs_resolves_zero_to_at_least_one() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }
}
