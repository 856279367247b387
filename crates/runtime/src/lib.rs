//! Deterministic data-parallel runtime for the workload-prediction suite.
//!
//! A std-only scoped thread pool (no external dependencies: just
//! [`std::thread::scope`] plus atomics) exposing two primitives used by
//! every hot path in the workspace:
//!
//! * [`par_map_indexed`] — evaluate `f(0..n)` on the calling thread,
//!   joined by helper threads once the batch has outlasted a thread
//!   spawn, and return the results **in index order**, bit-identical to
//!   the sequential `(0..n).map(f).collect()`.
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
//! 2. the `WP_THREADS` environment variable (`WP_THREADS=1` runs every
//!    batch as the plain sequential loop: no threads are spawned at all),
//! 3. [`std::thread::available_parallelism`].
//!
//! Steps 2 and 3 are resolved once per process, on first use, and cached:
//! the hardware query reads cgroup files on Linux, and nothing changes
//! `WP_THREADS` at run time. The override is checked on every call.
//!
//! Nested parallelism is suppressed: a task of a batch, on the calling
//! thread or a helper, executes nested `par_*` calls sequentially, so
//! e.g. the per-channel parallelism inside `dtw_independent` does not
//! oversubscribe the machine when invoked from `try_distance_matrix`.
//!
//! # Panics
//!
//! A panic inside a task, on the calling thread or a helper, is
//! propagated to the caller with its original payload once every
//! helper has drained.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

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

/// Number of threads `par_*` calls on this thread may use, the caller
/// included.
///
/// Resolution order: [`with_thread_count`] override, then the
/// `WP_THREADS` environment variable, then the machine's available
/// parallelism; the last two are read once per process. Inside a task
/// of a batch this always returns 1 (nested parallelism runs
/// sequentially). Never returns 0.
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
            .map_or_else(cores, |n| n.max(1))
    })
}

/// The machine's available parallelism, read once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
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

/// How long a batch runs on the calling thread alone before helpers
/// are spawned for the rest of it. Spawning and joining two scoped
/// threads took 76–82 µs, and one 45–46 µs (medians of 2,000, 2-vCPU
/// host), while a cold read's 55-pair L2,1 distance matrix takes
/// ~8 µs. Spawning only after this long means a batch that takes less
/// time than a spawn never pays for one.
const SPAWN_COST: Duration = Duration::from_micros(75);

/// Marks the current thread as running pool tasks until dropped, even
/// on unwind: nested `par_*` calls made by those tasks run sequentially.
struct InWorker(bool);

impl InWorker {
    fn enter() -> Self {
        Self(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for InWorker {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// Evaluates `f(i)` for every `i in 0..n` and returns the results in
/// index order.
///
/// Equivalent to `(0..n).map(f).collect()` — including bit-identical
/// floating-point results. The calling thread runs the batch first,
/// claiming 1, 2, 4, … indices at a time, up to a chunk, from the
/// counter helpers would use and reading the clock after each claim.
/// Only once the batch has run
/// longer than a thread spawn costs (75 µs) does it spawn helpers for
/// the rest: no more than there are unclaimed chunks, and at most
/// [`thread_count`] − 1 or the machine's cores − 1, whichever is fewer
/// (one helper stays allowed on a single core); from then on every
/// thread claims chunks. A batch that finishes sooner spawns nothing.
/// Tasks see a [`thread_count`] of 1 on the caller and on helpers alike, so
/// nested `par_*` calls run sequentially. With a thread count of 1, or
/// `n` ≤ 1, this is the plain sequential loop.
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
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // Threads past the machine's cores only add spawns and take turns
    // with the rest, so a batch uses at most that many. Two stay
    // allowed on a single core, so any count above 1 still runs the
    // helper path the determinism tests check.
    let threads = threads.min(cores().max(2));

    // Once helpers run, threads claim *chunks* of contiguous indices
    // rather than single tasks: one atomic RMW per chunk instead of per
    // task keeps the claim counter off the critical path for
    // fine-grained workloads (distance-matrix cells take microseconds
    // each), and contiguous ranges preserve the cache locality a
    // sequential scan would have. 8 chunks per thread still
    // load-balances uneven task costs. Until then the caller claims 1,
    // 2, 4, … tasks, up to a chunk, and reads the clock after each
    // claim: with tasks of even cost it runs alone for less than twice
    // `SPAWN_COST` plus one task, and a batch that never spawns reads
    // the clock only about log2(n) times.
    let chunk = (n / (threads * 8)).max(1);
    let next = AtomicUsize::new(0);
    let claim = |size: usize| {
        let start = next.fetch_add(size, Ordering::Relaxed);
        (start < n).then(|| start..(start + size).min(n))
    };
    let (claim, f) = (&claim, &f);
    let started = Instant::now();
    let _worker = InWorker::enter();
    let mut own = Vec::with_capacity(n);
    let mut shards: Vec<Vec<(usize, T)>> = Vec::new();
    std::thread::scope(|scope| {
        let mut helpers: Option<Vec<_>> = None;
        let mut size = 1;
        while let Some(range) = claim(size) {
            own.extend(range.map(|i| (i, f(i))));
            if helpers.is_some() {
                continue;
            }
            if started.elapsed() < SPAWN_COST {
                size = (size * 2).min(chunk);
                continue;
            }
            let unclaimed = n
                .saturating_sub(next.load(Ordering::Relaxed))
                .div_ceil(chunk);
            let spawn = |_| {
                scope.spawn(move || {
                    let _worker = InWorker::enter();
                    let mut local = Vec::new();
                    while let Some(range) = claim(chunk) {
                        local.extend(range.map(|i| (i, f(i))));
                    }
                    local
                })
            };
            helpers = Some((0..unclaimed.min(threads - 1)).map(spawn).collect());
            size = chunk;
        }
        for handle in helpers.into_iter().flatten() {
            match handle.join() {
                Ok(shard) => shards.push(shard),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    if shards.iter().all(Vec::is_empty) {
        // No helper claimed a task: the caller ran them all, in index
        // order.
        return own.into_iter().map(|(_, value)| value).collect();
    }

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in own.into_iter().chain(shards.into_iter().flatten()) {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|v| v.expect("par_map_indexed: a chunk went unclaimed"))
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
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicBool;

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

    /// A task that runs past the spawn threshold, yielding so helpers
    /// get a core even on a busy host.
    fn outlast_a_spawn() {
        let started = Instant::now();
        while started.elapsed() < SPAWN_COST {
            std::thread::yield_now();
        }
    }

    fn panic_message(caught: std::thread::Result<Vec<usize>>) -> String {
        let payload = caught.expect_err("the panic should reach the caller");
        payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn cheap_batches_stay_on_the_calling_thread() {
        // A batch that ends before a spawn would pay off runs on the
        // caller alone, whose tasks see one thread like a helper's do.
        let caller = std::thread::current().id();
        for threads in [2, 8] {
            let mut under = 0;
            for _ in 0..100 {
                let started = Instant::now();
                let seen = with_thread_count(threads, || {
                    par_map_indexed(64, |_| (std::thread::current().id(), thread_count()))
                });
                if started.elapsed() < SPAWN_COST {
                    under += 1;
                    assert!(
                        seen.iter().all(|&(id, _)| id == caller),
                        "{threads} threads: a batch under {SPAWN_COST:?} spawned helpers"
                    );
                }
                assert!(seen.iter().all(|&(_, nested)| nested == 1));
            }
            assert!(
                under >= 90,
                "{threads} threads: {under} of 100 cheap batches finished under {SPAWN_COST:?}"
            );
        }
    }

    #[test]
    fn slow_batches_spread_over_helpers() {
        let n = 256;
        let seen = with_thread_count(4, || {
            par_map_indexed(n, |i| {
                outlast_a_spawn();
                (std::thread::current().id(), thread_count(), i)
            })
        });
        let threads: std::collections::HashSet<_> = seen.iter().map(|&(id, _, _)| id).collect();
        assert!(threads.len() > 1, "{n} slow tasks ran on one thread");
        assert!(
            threads.len() <= 4.min(cores().max(2)),
            "{} threads: more than the thread count or the cores allow",
            threads.len()
        );
        assert!(seen.iter().all(|&(_, nested, _)| nested == 1));
        assert!(seen.iter().map(|&(_, _, i)| i).eq(0..n));
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
        let msg = panic_message(result);
        assert!(msg.contains("task 33 exploded"), "payload was: {msg:?}");
    }

    #[test]
    fn task_panics_reach_the_caller_with_their_payload() {
        let caller = std::thread::current().id();
        // The caller panics in its own chunk once a helper is running.
        let helper_ran = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_thread_count(4, || {
                par_map_indexed(256, |i| {
                    outlast_a_spawn();
                    if std::thread::current().id() != caller {
                        helper_ran.store(true, Ordering::Relaxed);
                    } else if helper_ran.load(Ordering::Relaxed) {
                        panic!("caller task {i} exploded");
                    }
                    i
                })
            })
        }));
        let msg = panic_message(caught);
        assert!(msg.contains("caller task"), "payload was: {msg:?}");

        // A helper panics in the first task it runs.
        let caught = std::panic::catch_unwind(|| {
            with_thread_count(4, || {
                par_map_indexed(256, |i| {
                    outlast_a_spawn();
                    if std::thread::current().id() != caller {
                        panic!("helper task {i} exploded");
                    }
                    i
                })
            })
        });
        let msg = panic_message(caught);
        assert!(msg.contains("helper task"), "payload was: {msg:?}");
    }
}
