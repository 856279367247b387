//! Robustness ablation (§5.2's third evaluation dimension): how does each
//! data representation's 1-NN workload-identification accuracy degrade
//! under measurement noise, outliers, and missing data?
//!
//! The paper evaluates robustness through error bars (Figures 5–6); this
//! experiment quantifies it directly by perturbing the telemetry and
//! re-running identification. Expected shape (Insight 3): Hist-FP
//! degrades most gracefully; MTS and Phase-FP suffer earlier.

use wp_bench::{corpus_fixed_terminals, default_sim};
use wp_similarity::histfp::histfp;
use wp_similarity::measure::{try_distance_matrix, Measure, Norm};
use wp_similarity::phasefp::{phasefp, PhaseFpConfig};
use wp_similarity::repr::{extract, mts, RunFeatureData};
use wp_similarity::robustness::{drop_observations, inject_noise, inject_outliers};
use wp_similarity::{one_nn_accuracy, Representation};
use wp_telemetry::{FeatureId, FeatureSet};
use wp_workloads::benchmarks;
use wp_workloads::sku::Sku;

fn accuracy(data: &[RunFeatureData], labels: &[usize], representation: Representation) -> f64 {
    let fps = match representation {
        Representation::HistFp => histfp(data, 10),
        Representation::PhaseFp => phasefp(data, &PhaseFpConfig::default()),
        Representation::Mts => mts(data),
    };
    let d =
        try_distance_matrix(&fps, Measure::Norm(Norm::L21)).expect("fingerprints share a shape");
    one_nn_accuracy(&d, labels)
}

fn main() {
    let sim = default_sim();
    let sku = Sku::new("cpu16", 16, 64.0);
    let specs = vec![
        benchmarks::tpcc(),
        benchmarks::tpch(),
        benchmarks::twitter(),
    ];
    let corpus = corpus_fixed_terminals(&sim, &specs, &sku, 8, 3);

    // MTS needs equal-length series → resource features only; the
    // fingerprints get the same features for a like-for-like comparison.
    let features: Vec<FeatureId> = FeatureSet::ResourceOnly.features();
    let clean: Vec<RunFeatureData> = corpus.runs.iter().map(|r| extract(r, &features)).collect();

    let representations = [
        Representation::HistFp,
        Representation::PhaseFp,
        Representation::Mts,
    ];

    println!("Robustness ablation: 1-NN accuracy under perturbation (resource features, L2,1)\n");

    println!("-- multiplicative measurement noise --");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "repr", "clean", "5%", "15%", "30%"
    );
    for repr in representations {
        let mut cells = vec![accuracy(&clean, &corpus.labels, repr)];
        for sigma in [0.05, 0.15, 0.30] {
            let noisy: Vec<RunFeatureData> = clean
                .iter()
                .enumerate()
                .map(|(i, d)| inject_noise(d, sigma, 1000 + i as u64))
                .collect();
            cells.push(accuracy(&noisy, &corpus.labels, repr));
        }
        println!(
            "{:<10} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            repr.label(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }

    println!("\n-- outliers (10x spikes) --");
    println!("{:<10} {:>8} {:>8} {:>8}", "repr", "1%", "5%", "10%");
    for repr in representations {
        let mut cells = Vec::new();
        for fraction in [0.01, 0.05, 0.10] {
            let dirty: Vec<RunFeatureData> = clean
                .iter()
                .enumerate()
                .map(|(i, d)| inject_outliers(d, fraction, 10.0, 2000 + i as u64))
                .collect();
            cells.push(accuracy(&dirty, &corpus.labels, repr));
        }
        println!(
            "{:<10} {:>8.3} {:>8.3} {:>8.3}",
            repr.label(),
            cells[0],
            cells[1],
            cells[2]
        );
    }

    println!(
        "\n-- missing data (dropped samples; fingerprints only, MTS requires aligned lengths) --"
    );
    println!("{:<10} {:>8} {:>8} {:>8}", "repr", "10%", "30%", "50%");
    for repr in [Representation::HistFp, Representation::PhaseFp] {
        let mut cells = Vec::new();
        for fraction in [0.10, 0.30, 0.50] {
            let sparse: Vec<RunFeatureData> = clean
                .iter()
                .enumerate()
                .map(|(i, d)| drop_observations(d, fraction, 3000 + i as u64))
                .collect();
            cells.push(accuracy(&sparse, &corpus.labels, repr));
        }
        println!(
            "{:<10} {:>8.3} {:>8.3} {:>8.3}",
            repr.label(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    println!(
        "\n(Insight 3: the histogram fingerprint tolerates every perturbation\n\
         class by construction — it discards ordering and absolute counts)"
    );
}
