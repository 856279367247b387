//! Distance-matrix speedup experiment — the acceptance benchmark for
//! the optimized DTW path (wavefront kernels + the wp-runtime pool).
//!
//! Simulates 60 workload runs, builds their MTS fingerprints, and times
//! the Independent-DTW pairwise distance matrix three ways:
//!
//! 1. **naive sequential** — the textbook rolling-row kernels from
//!    [`wp_similarity::dtw::naive`] in a plain double loop (the
//!    pre-optimization implementation, kept as the reference oracle);
//! 2. **optimized sequential** — the production anti-diagonal wavefront
//!    kernels with `WP_THREADS=1`, isolating the kernel speedup;
//! 3. **optimized parallel** — the production path on the full pool,
//!    what the pipeline actually runs.
//!
//! All three matrices must be bit-identical. The headline `speedup` is
//! naive-sequential over optimized-parallel — the user-visible win on
//! the production path — and is what the CI `perf` job gates on.
//!
//! A size sweep then re-times sequential-vs-parallel at several input
//! sizes. Below [`wp_runtime::SEQUENTIAL_FALLBACK_TASKS`] pairs the pool
//! takes its sequential fallback, so both timed paths execute the exact
//! same loop and the parallel factor is reported as its structural value
//! of 1.0 (`"fallback": true`) rather than as timing jitter. Above the
//! threshold the factor is measured. Parallelism must never *lose*:
//! every sweep point is held to the same regression tolerance as the
//! headline.
//!
//! The run **fails** (non-zero exit) when:
//! * any matrix differs from the naive reference (`bit_identical`), or
//! * at any size, the parallel run is meaningfully slower than the
//!   sequential run of the same kernels *on a multi-core machine* — a
//!   pool scheduling regression. On a single-core machine parallelism
//!   cannot win, so the check is reported but not enforced.

use std::time::Instant;

use wp_bench::default_sim;
use wp_json::{obj, Json};
use wp_linalg::Matrix;
use wp_similarity::measure::{try_distance_matrix, Measure};
use wp_similarity::repr::{extract, mts};
use wp_telemetry::FeatureSet;
use wp_workloads::engine::paper_terminals;
use wp_workloads::{benchmarks, Sku};

const N_RUNS: usize = 60;
const OUT_PATH: &str = "BENCH_runtime.json";

/// Input sizes for the sequential-vs-parallel sweep: 6, 28, 120 and
/// 1770 pairs — two below the pool's sequential-fallback threshold,
/// two above it.
const SWEEP_RUNS: [usize; 4] = [4, 8, 16, N_RUNS];

/// Tolerated parallel-vs-sequential slowdown before the run fails on a
/// multi-core machine (scheduling jitter, not a regression).
const PAR_REGRESSION_TOLERANCE: f64 = 1.10;

/// The naive baseline: sequential double loop over the reference
/// rolling-row kernels. No pool, no wavefront, no scratch reuse — the
/// implementation the optimized path is measured against.
fn naive_distance_matrix(fps: &[Matrix]) -> Matrix {
    let n = fps.len();
    let mut d = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i + 1..n {
            let v = wp_similarity::dtw::naive::dtw_independent(&fps[i], &fps[j]);
            d[(i, j)] = v;
            d[(j, i)] = v;
        }
    }
    d
}

fn main() {
    let mut sim = default_sim();
    sim.config.samples = 120;
    let sku = Sku::new("cpu8", 8, 64.0);
    let specs = benchmarks::standardized();
    let features = FeatureSet::ResourceOnly.features();

    // 60 runs: cycle workloads, their paper terminal counts, and run
    // indices so the fingerprints are heterogeneous.
    let mut data = Vec::with_capacity(N_RUNS);
    let mut i = 0;
    'outer: loop {
        for spec in &specs {
            for &t in &paper_terminals(spec) {
                if data.len() == N_RUNS {
                    break 'outer;
                }
                let run = sim.simulate(spec, &sku, t, i, i % 3);
                data.push(extract(&run, &features));
            }
        }
        i += 1;
    }
    let fps = mts(&data);
    println!(
        "{} MTS fingerprints of {} samples x {} features",
        fps.len(),
        fps[0].rows(),
        fps[0].cols()
    );

    let start = Instant::now();
    let naive = naive_distance_matrix(&fps);
    let naive_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let opt_seq = wp_runtime::with_thread_count(1, || {
        try_distance_matrix(&fps, Measure::DtwIndependent).unwrap()
    });
    let opt_seq_ms = start.elapsed().as_secs_f64() * 1e3;

    let threads = wp_runtime::thread_count();
    let start = Instant::now();
    let par = try_distance_matrix(&fps, Measure::DtwIndependent).unwrap();
    let par_ms = start.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        naive, opt_seq,
        "wavefront kernels must be bit-identical to the naive reference"
    );
    assert_eq!(
        opt_seq, par,
        "parallel distance matrix must be bit-identical to sequential"
    );

    let speedup = naive_ms / par_ms;
    let kernel_speedup = naive_ms / opt_seq_ms;
    let parallel_speedup = opt_seq_ms / par_ms;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("naive sequential:     {naive_ms:9.1} ms  (rolling-row reference)");
    println!("optimized sequential: {opt_seq_ms:9.1} ms  ({kernel_speedup:.2}x kernel)");
    println!("optimized parallel:   {par_ms:9.1} ms  ({threads} threads, {cores} cores)");
    println!("speedup:              {speedup:9.2}x  (bit-identical output)");

    // Size sweep: the pool must help on big inputs and get out of the
    // way on small ones. Under the fallback threshold both timed paths
    // run the identical sequential loop, so the parallel factor there
    // is 1.0 by construction, not a measurement.
    println!("\nsize sweep (parallel factor = sequential ms / parallel ms):");
    let mut sweep = Vec::new();
    let mut regression = false;
    for n in SWEEP_RUNS {
        let subset = &fps[..n];
        let pairs = n * (n - 1) / 2;
        let fallback = pairs < wp_runtime::SEQUENTIAL_FALLBACK_TASKS;

        let start = Instant::now();
        let seq = wp_runtime::with_thread_count(1, || {
            try_distance_matrix(subset, Measure::DtwIndependent).unwrap()
        });
        let seq_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let par = try_distance_matrix(subset, Measure::DtwIndependent).unwrap();
        let par_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(seq, par, "{n}-run sweep point not bit-identical");

        let factor = if fallback { 1.0 } else { seq_ms / par_ms };
        if !fallback && par_ms > seq_ms * PAR_REGRESSION_TOLERANCE && cores > 1 && threads > 1 {
            eprintln!(
                "FAIL: {n} runs ({pairs} pairs): parallel {par_ms:.1} ms is slower than \
                 sequential {seq_ms:.1} ms on a {cores}-core machine"
            );
            regression = true;
        }
        println!(
            "  {n:3} runs ({pairs:5} pairs): seq {seq_ms:8.1} ms  par {par_ms:8.1} ms  \
             factor {factor:5.2}x{}",
            if fallback {
                "  (sequential fallback)"
            } else {
                ""
            }
        );
        // ≥ 1.0 everywhere parallelism is in play: structural for
        // fallback sizes, enforced (modulo jitter tolerance, above) on
        // multi-core machines otherwise. A single core is the one place
        // the factor may dip and that is not a regression.
        assert!(
            factor >= 1.0 || (!fallback && (cores == 1 || threads == 1)),
            "{n}-run parallel factor {factor:.2} dropped below 1.0"
        );
        sweep.push(obj! {
            "runs" => n,
            "pairs" => pairs,
            "seq_ms" => seq_ms,
            "par_ms" => par_ms,
            "parallel_factor" => factor,
            "fallback" => fallback,
        });
    }

    let doc = obj! {
        "experiment" => "distance_matrix_dtw_independent",
        "runs" => N_RUNS,
        "samples_per_run" => fps[0].rows(),
        "features" => fps[0].cols(),
        "threads" => threads,
        "cores" => cores,
        "naive_seq_ms" => naive_ms,
        "seq_ms" => opt_seq_ms,
        "par_ms" => par_ms,
        "speedup" => speedup,
        "kernel_speedup" => kernel_speedup,
        "parallel_speedup" => parallel_speedup,
        "bit_identical" => true,
        "sequential_fallback_tasks" => wp_runtime::SEQUENTIAL_FALLBACK_TASKS,
        "sweep" => Json::Arr(sweep),
    };
    std::fs::write(OUT_PATH, doc.pretty() + "\n").expect("write BENCH_runtime.json");
    println!("wrote {OUT_PATH}");

    // A parallel run slower than the same kernels run sequentially is a
    // pool regression — fail loudly so local runs catch what CI catches.
    // Only enforceable where parallelism can win at all: with a single
    // core (or a single-thread configuration) the pool's overhead is
    // expected, so report it and move on.
    if par_ms > opt_seq_ms * PAR_REGRESSION_TOLERANCE {
        if cores > 1 && threads > 1 {
            eprintln!(
                "FAIL: parallel run ({par_ms:.1} ms on {threads} threads) is slower than \
                 sequential ({opt_seq_ms:.1} ms) on a {cores}-core machine — pool regression"
            );
            std::process::exit(1);
        }
        println!(
            "note: parallel ({par_ms:.1} ms) not faster than sequential ({opt_seq_ms:.1} ms); \
             expected with {cores} core(s) / {threads} thread(s), not treated as a regression"
        );
    }
    if regression {
        std::process::exit(1);
    }
}
