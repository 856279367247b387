//! Deterministic data-parallel runtime for the workload-prediction suite.
//!
//! A std-only scoped thread pool (no external dependencies: just
//! [`std::thread::scope`] plus atomics) exposing two primitives used by
//! every hot path in the workspace:
//!
//! * [`par_map_indexed`] — evaluate `f(0..n)` across worker threads and
//!   return the results **in index order**, bit-identical to the
//!   sequential `(0..n).map(f).collect()`.
//! * [`par_pairs`] — schedule the upper triangle `{(i, j) : i < j < n}`
//!   across workers and return `(i, j, value)` triples in row-major
//!   order, the same order a nested `for i { for j }` loop visits them.
//!
//! # Determinism
//!
//! Work is claimed dynamically (an atomic counter), so *which* thread
//! computes a given index varies between runs — but every result is
//! keyed by its index and scattered back into an index-ordered output
//! vector. As long as `f` itself is a pure function of its index, the
//! returned vector is byte-for-byte identical regardless of thread
//! count. Callers that reduce (sum, argmax, …) must fold over the
//! returned vector in order; all in-tree call sites do.
//!
//! # Thread-count resolution
//!
//! [`thread_count`] resolves, in priority order:
//!
//! 1. a thread-local override installed by [`with_thread_count`]
//!    (used by in-process determinism tests and benchmarks),
//! 2. the `WP_THREADS` environment variable (`WP_THREADS=1` forces the
//!    sequential fallback: no threads are spawned at all),
//! 3. [`std::thread::available_parallelism`].
//!
//! Steps 2 and 3 are resolved once per process, on first use, and cached:
//! the hardware query reads cgroup files on Linux, and nothing changes
//! `WP_THREADS` at run time. The override is checked on every call.
//!
//! Nested parallelism is suppressed: a task already running on a pool
//! worker executes nested `par_*` calls sequentially, so e.g. the
//! per-channel parallelism inside `dtw_independent` does not
//! oversubscribe the machine when invoked from an already-parallel
//! `try_distance_matrix`.
//!
//! # Panics
//!
//! A panic inside a worker task is propagated to the caller with its
//! original payload once all workers have drained.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use wp_obs::{LazyCounter, LazyGauge, LazySpan};

pub mod scratch;

/// Tasks (`f(i)` evaluations) scheduled through [`par_map_indexed`].
static OBS_TASKS: LazyCounter = LazyCounter::new("wp_runtime_tasks_total");
/// `par_map_indexed` invocations (batches), including sequential ones.
static OBS_BATCHES: LazyCounter = LazyCounter::new("wp_runtime_batches_total");
/// Thread count resolved by the most recent batch.
static OBS_THREADS: LazyGauge = LazyGauge::new("wp_runtime_threads");
/// Wall time of each batch, scheduling included.
static OBS_BATCH_SPAN: LazySpan = LazySpan::new("wp_runtime_batch");

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads `par_*` calls on this thread will use.
///
/// Resolution order: [`with_thread_count`] override, then the
/// `WP_THREADS` environment variable, then the machine's available
/// parallelism; the last two are read once per process. Inside a pool
/// worker this always returns 1 (nested parallelism runs sequentially).
/// Never returns 0.
pub fn thread_count() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    static AMBIENT: OnceLock<usize> = OnceLock::new();
    *AMBIENT.get_or_init(|| {
        std::env::var("WP_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Runs `f` with the thread count pinned to `n` (clamped to ≥ 1) on the
/// current thread, restoring the previous setting afterwards — even on
/// panic. Takes precedence over `WP_THREADS`.
///
/// This is the in-process equivalent of setting `WP_THREADS`: tests and
/// benchmarks use it to compare sequential and parallel executions of
/// the same code without racing on global environment state.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Batches smaller than this run sequentially even when threads are
/// available: spawning scoped workers costs tens of microseconds, which
/// swamps the win on tiny batches and used to drag the measured parallel
/// factor below 1.0 at small input sizes (see `exp_speedup`). The
/// fallback is the exact sequential loop, so bit-identity is untouched.
pub const SEQUENTIAL_FALLBACK_TASKS: usize = 32;

/// Evaluates `f(i)` for every `i in 0..n` across the pool and returns
/// the results in index order.
///
/// Equivalent to `(0..n).map(f).collect()` — including bit-identical
/// floating-point results — but spread over [`thread_count`] workers.
/// Falls back to the plain sequential loop when the effective thread
/// count is 1 or `n` is below [`SEQUENTIAL_FALLBACK_TASKS`] (per-task
/// work on batches that small undercuts thread-spawn overhead).
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    OBS_BATCHES.add(1);
    OBS_TASKS.add(n as u64);
    let _span = OBS_BATCH_SPAN.start();
    let available = thread_count();
    OBS_THREADS.set(available as u64);
    let threads = available.min(n);
    if threads <= 1 || n < SEQUENTIAL_FALLBACK_TASKS {
        return (0..n).map(f).collect();
    }

    // Workers claim *chunks* of contiguous indices rather than single
    // tasks: one atomic RMW per chunk instead of per task keeps the
    // claim counter off the critical path for fine-grained workloads
    // (distance-matrix cells take microseconds each), and contiguous
    // ranges preserve the cache locality a sequential scan would have.
    // 8 chunks per worker still load-balances uneven task costs.
    let chunk = (n / (threads * 8)).max(1);
    let next = AtomicUsize::new(0);
    let mut shards: Vec<Vec<(usize, T)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let mut local = Vec::with_capacity(n / threads + 1);
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            local.push((i, f(i)));
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(shard) => shards.push(shard),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for shard in shards {
        for (i, value) in shard {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|v| v.expect("par_map_indexed: worker skipped an index"))
        .collect()
}

/// Maps a flat upper-triangle index `k in 0..n*(n-1)/2` back to its
/// pair `(i, j)` with `i < j < n`, in the row-major order a nested
/// `for i in 0..n { for j in i+1..n }` loop visits pairs.
pub fn pair_from_index(n: usize, k: usize) -> (usize, usize) {
    debug_assert!(n >= 2, "pair_from_index needs n >= 2");
    debug_assert!(k < n * (n - 1) / 2, "pair index {k} out of range");
    // Row i starts at offset i*(2n-i-1)/2 (= i*(n-1) - i*(i-1)/2,
    // rearranged to stay in usize); binary-search the row.
    let offset = |i: usize| i * (2 * n - i - 1) / 2;
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if offset(mid) <= k {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let i = if offset(hi) <= k { hi } else { lo };
    (i, i + 1 + (k - offset(i)))
}

/// Evaluates `f(i, j)` for every unordered pair `i < j < n` across the
/// pool and returns `(i, j, value)` triples in row-major upper-triangle
/// order — the exact order the sequential nested loop produces.
pub fn par_pairs<T, F>(n: usize, f: F) -> Vec<(usize, usize, T)>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    if n < 2 {
        return Vec::new();
    }
    let pairs = n * (n - 1) / 2;
    par_map_indexed(pairs, |k| {
        let (i, j) = pair_from_index(n, k);
        (i, j, f(i, j))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_unranking_round_trips() {
        for n in 2..=17 {
            let mut k = 0;
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(pair_from_index(n, k), (i, j), "n={n} k={k}");
                    k += 1;
                }
            }
            assert_eq!(k, n * (n - 1) / 2);
        }
    }

    #[test]
    fn par_map_matches_sequential() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
            for threads in [1, 2, 8] {
                let par = with_thread_count(threads, || {
                    par_map_indexed(n, |i| (i as u64).wrapping_mul(0x9E37))
                });
                assert_eq!(par, seq, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn par_pairs_is_row_major_and_complete() {
        let n = 9;
        let expected: Vec<(usize, usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j, i * n + j)))
            .collect();
        for threads in [1, 4] {
            let got = with_thread_count(threads, || par_pairs(n, |i, j| i * n + j));
            assert_eq!(got, expected, "threads={threads}");
        }
        assert!(par_pairs(1, |i, j| i + j).is_empty());
        assert!(par_pairs(0, |i, j| i + j).is_empty());
    }

    #[test]
    fn float_sums_are_bit_identical() {
        let f = |i: usize| ((i as f64) * 0.3141).sin() / (i as f64 + 1.0);
        let seq: f64 = (0..500).map(f).sum();
        let par: f64 = with_thread_count(8, || par_map_indexed(500, f))
            .iter()
            .sum();
        assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    fn override_takes_precedence_and_restores() {
        assert_eq!(with_thread_count(3, thread_count), 3);
        assert_eq!(with_thread_count(0, thread_count), 1);
        let outer = with_thread_count(5, || with_thread_count(2, thread_count));
        assert_eq!(outer, 2);
        // After the scopes exit the override is gone (whatever the
        // ambient count is, it is not the pinned values).
        assert!(THREAD_OVERRIDE.with(Cell::get).is_none());
    }

    #[test]
    fn nested_calls_run_sequentially_in_workers() {
        // batch large enough to dodge the small-input fallback, so the
        // closure really runs on pool workers
        let n = SEQUENTIAL_FALLBACK_TASKS * 2;
        let nested_counts = with_thread_count(4, || par_map_indexed(n, |_| thread_count()));
        assert_eq!(nested_counts, vec![1; n]);
    }

    #[test]
    fn small_batches_take_the_sequential_fallback() {
        // below the threshold the closure runs on the calling thread
        // (thread_count() still sees the override), and the output is
        // identical to the sequential loop
        let small = SEQUENTIAL_FALLBACK_TASKS - 1;
        let counts = with_thread_count(4, || par_map_indexed(small, |_| thread_count()));
        assert_eq!(counts, vec![4; small], "must not spawn workers");
        let f = |i: usize| ((i as f64) * 0.7).cos() * (i as f64);
        let seq: Vec<u64> = (0..small).map(|i| f(i).to_bits()).collect();
        let par = with_thread_count(8, || par_map_indexed(small, |i| f(i).to_bits()));
        assert_eq!(par, seq);
    }

    #[test]
    fn worker_panics_propagate_with_payload() {
        let result = std::panic::catch_unwind(|| {
            with_thread_count(4, || {
                par_map_indexed(64, |i| {
                    if i == 33 {
                        panic!("task 33 exploded");
                    }
                    i
                })
            })
        });
        let payload = result.expect_err("panic should propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task 33 exploded"), "payload was: {msg:?}");
    }
}
