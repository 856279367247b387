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
//! A size sweep times sequential-vs-parallel at 4, 8, 16 and 60 runs;
//! the 60-run point is the headline's `seq_ms` and `par_ms`. Every
//! configuration is timed as the median of [`REPEATS`] runs, and every
//! repeat must return the same matrix. Parallelism must never *lose*.
//!
//! The run **fails** (non-zero exit) when:
//! * any matrix differs from the naive reference (`bit_identical`), or
//! * at any size, the parallel run is slower than the sequential run of
//!   the same kernels *on a multi-core machine* — a pool scheduling
//!   regression. On a single-core machine parallelism cannot win, so
//!   the check is reported but not enforced.

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
/// 1770 pairs.
const SWEEP_RUNS: [usize; 4] = [4, 8, 16, N_RUNS];

/// Timed runs per configuration; each reports the median.
const REPEATS: usize = 5;

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

/// Runs `f` [`REPEATS`] times and returns the median wall time in ms
/// and the result, which every repeat must reproduce exactly.
fn median_ms(what: &str, f: impl Fn() -> Matrix) -> (f64, Matrix) {
    let mut times = Vec::with_capacity(REPEATS);
    let mut first: Option<Matrix> = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let d = std::hint::black_box(f());
        times.push(start.elapsed().as_secs_f64() * 1e3);
        match &first {
            Some(m) => assert_eq!(m, &d, "{what}: repeats disagree"),
            None => first = Some(d),
        }
    }
    times.sort_by(f64::total_cmp);
    (times[REPEATS / 2], first.expect("REPEATS > 0"))
}

/// The commit measured, as `git describe` names it (`-dirty` when the
/// tree has uncommitted changes), or `unknown` outside a checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
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

    let (naive_ms, naive) = median_ms("naive", || naive_distance_matrix(&fps));
    let threads = wp_runtime::thread_count();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // Size sweep: the pool must help on big inputs and cost nothing on
    // small ones.
    println!("size sweep (parallel factor = sequential ms / parallel ms, median of {REPEATS}):");
    let mut sweep = Vec::new();
    let mut regression = false;
    let (mut opt_seq_ms, mut par_ms) = (f64::NAN, f64::NAN);
    for n in SWEEP_RUNS {
        let subset = &fps[..n];
        let pairs = n * (n - 1) / 2;
        let matrix = || try_distance_matrix(subset, Measure::DtwIndependent).unwrap();
        let (seq_ms, seq) = median_ms("sequential", || wp_runtime::with_thread_count(1, matrix));
        let (point_par_ms, par) = median_ms("parallel", matrix);
        assert_eq!(seq, par, "{n}-run sweep point not bit-identical");
        if n == N_RUNS {
            assert_eq!(
                naive, seq,
                "wavefront kernels must be bit-identical to the naive reference"
            );
            (opt_seq_ms, par_ms) = (seq_ms, point_par_ms);
        }

        let factor = seq_ms / point_par_ms;
        // A parallel run slower than the same kernels run sequentially
        // is a pool regression. Only enforceable where parallelism can
        // win at all: with a single core (or a single-thread
        // configuration) the pool's overhead is expected.
        if factor < 1.0 && cores > 1 && threads > 1 {
            eprintln!(
                "FAIL: {n} runs ({pairs} pairs): parallel {point_par_ms:.1} ms is slower than \
                 sequential {seq_ms:.1} ms on a {cores}-core machine"
            );
            regression = true;
        }
        println!(
            "  {n:3} runs ({pairs:5} pairs): seq {seq_ms:8.1} ms  par {point_par_ms:8.1} ms  \
             factor {factor:5.2}x"
        );
        sweep.push(obj! {
            "runs" => n,
            "pairs" => pairs,
            "seq_ms" => seq_ms,
            "par_ms" => point_par_ms,
            "parallel_factor" => factor,
        });
    }

    let speedup = naive_ms / par_ms;
    let kernel_speedup = naive_ms / opt_seq_ms;
    let parallel_speedup = opt_seq_ms / par_ms;
    println!("\n{N_RUNS} runs, median of {REPEATS}:");
    println!("naive sequential:     {naive_ms:9.1} ms  (rolling-row reference)");
    println!("optimized sequential: {opt_seq_ms:9.1} ms  ({kernel_speedup:.2}x kernel)");
    println!("optimized parallel:   {par_ms:9.1} ms  ({threads} threads, {cores} cores)");
    println!("speedup:              {speedup:9.2}x  (bit-identical output)");

    let doc = obj! {
        "experiment" => "distance_matrix_dtw_independent",
        "git_sha" => git_sha(),
        "runs" => N_RUNS,
        "samples_per_run" => fps[0].rows(),
        "features" => fps[0].cols(),
        "threads" => threads,
        "cores" => cores,
        "repeats" => REPEATS,
        "naive_seq_ms" => naive_ms,
        "seq_ms" => opt_seq_ms,
        "par_ms" => par_ms,
        "speedup" => speedup,
        "kernel_speedup" => kernel_speedup,
        "parallel_speedup" => parallel_speedup,
        "bit_identical" => true,
        "sweep" => Json::Arr(sweep),
    };
    std::fs::write(OUT_PATH, doc.pretty() + "\n").expect("write BENCH_runtime.json");
    println!("wrote {OUT_PATH}");

    if threads == 1 || cores == 1 {
        println!(
            "note: parallel factors are not enforced with {cores} core(s) / {threads} thread(s)"
        );
    }
    if regression {
        std::process::exit(1);
    }
}
