//! Sharded benchmark sweeps over `std::thread` workers.
//!
//! The table sweeps are embarrassingly parallel — every cell (one
//! parameter-set/backend combination) is an independent, deterministic
//! measurement — so this module fans a fixed job list out across a worker
//! pool and merges the results back **by job index**. The output is
//! therefore byte-identical regardless of thread count or scheduling
//! order; `scripts/verify.sh` asserts exactly that by diffing sharded
//! `--json` output against a `--threads 1` run.
//!
//! The thread count is an explicit `--threads N` flag, else
//! [`std::thread::available_parallelism`] (all cores).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve the worker count: `explicit`, else all cores (at least one).
pub fn thread_count(explicit: Option<usize>) -> usize {
    explicit
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .max(1)
}

/// Run `jobs` invocations of `f` (called with the job index) on up to
/// `threads` workers and return the results in job-index order.
///
/// Workers pull indices from a shared atomic counter, so the schedule is
/// dynamic, but the merge is positional: result `i` is always `f(i)`.
/// With `threads <= 1` (or a single job) everything runs inline on the
/// caller's thread — that is the oracle the sharded runs are compared to.
///
/// # Panics
///
/// Propagates a panic from any job (via [`std::thread::scope`]).
pub fn run_indexed<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(jobs, threads, || (), move |(), i| f(i))
}

/// Like [`run_indexed`], but each worker first builds private mutable
/// state with `init` and threads it through every job it pulls. This is
/// the warm-sweep hot path: a worker constructs one warmed `Cpu` (or any
/// other expensive scratch object) and reuses it across cells instead of
/// paying the setup cost per job. Determinism is unchanged — results are
/// still merged by job index, and each `f(state, i)` must be a pure
/// function of `i` for the sharding-invariance guarantee to hold.
///
/// # Panics
///
/// Propagates a panic from any job (via [`std::thread::scope`]).
pub fn run_indexed_with<S, T, I, F>(jobs: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if threads <= 1 || jobs <= 1 {
        let mut state = init();
        return (0..jobs).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let cells: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs) {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let result = f(&mut state, i);
                    *cells[i].lock().expect("result cell poisoned") = Some(result);
                }
            });
        }
    });
    cells
        .into_iter()
        .enumerate()
        .map(|(i, cell)| {
            cell.into_inner()
                .expect("result cell poisoned")
                .unwrap_or_else(|| panic!("job {i} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_order_is_by_index_regardless_of_threads() {
        let single = run_indexed(7, 1, |i| i * i);
        for threads in [2, 3, 8] {
            assert_eq!(run_indexed(7, threads, |i| i * i), single);
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(thread_count(Some(3)), 3);
        assert_eq!(thread_count(Some(0)), 1, "clamped to at least one");
    }

    #[test]
    fn default_thread_count_is_positive() {
        assert!(thread_count(None) >= 1);
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        // Each worker counts the jobs it ran in its private state; the
        // result stays a pure function of the index regardless.
        for threads in [1, 2, 4] {
            let results = run_indexed_with(
                9,
                threads,
                || 0usize,
                |seen, i| {
                    *seen += 1;
                    (i * 3, *seen >= 1)
                },
            );
            assert_eq!(
                results,
                (0..9).map(|i| (i * 3, true)).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }
}
