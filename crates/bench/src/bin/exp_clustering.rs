//! Workload clustering (§2's motivation for the similarity stage):
//! grouping the full run corpus by Hist-FP distance should recover the
//! workload identities without labels, and the silhouette-selected k
//! should land near the true workload count.

use wp_bench::{corpus_on_sku, default_sim, feature_data};
use wp_similarity::cluster::{best_k, hierarchical, k_medoids, silhouette, Linkage};
use wp_similarity::histfp::histfp;
use wp_similarity::measure::{try_distance_matrix, Measure, Norm};
use wp_telemetry::FeatureId;
use wp_workloads::benchmarks;
use wp_workloads::sku::Sku;

/// Adjusted-for-chance-free cluster agreement: fraction of item pairs on
/// which the two labelings agree about "same cluster / different
/// cluster" (the Rand index).
fn rand_index(a: &[usize], b: &[usize]) -> f64 {
    let n = a.len();
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            total += 1;
            if (a[i] == a[j]) == (b[i] == b[j]) {
                agree += 1;
            }
        }
    }
    agree as f64 / total.max(1) as f64
}

fn main() {
    let sim = default_sim();
    let sku = Sku::new("cpu16", 16, 64.0);
    let specs = benchmarks::standardized();
    let corpus = corpus_on_sku(&sim, &specs, &sku, 3);
    let run_refs: Vec<&wp_telemetry::ExperimentRun> = corpus.runs.iter().collect();
    eprintln!(
        "corpus: {} runs of {} workloads",
        corpus.runs.len(),
        specs.len()
    );

    let data = feature_data(&run_refs, &FeatureId::all());
    let fps = histfp(&data, 10);
    let d =
        try_distance_matrix(&fps, Measure::Norm(Norm::L21)).expect("fingerprints share a shape");

    println!(
        "Workload clustering over {} runs (Hist-FP, L2,1, all features)\n",
        corpus.runs.len()
    );

    // hierarchical, cut at the true workload count
    for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
        let labels = hierarchical(&d, linkage).cut(specs.len());
        println!(
            "hierarchical/{:<9?} k={}  rand index vs truth = {:.3}  silhouette = {:.3}",
            linkage,
            specs.len(),
            rand_index(&labels, &corpus.labels),
            silhouette(&d, &labels)
        );
    }

    // k-medoids at the true k
    let labels = k_medoids(&d, specs.len(), 100);
    println!(
        "k-medoids            k={}  rand index vs truth = {:.3}  silhouette = {:.3}",
        specs.len(),
        rand_index(&labels, &corpus.labels),
        silhouette(&d, &labels)
    );

    // silhouette-driven k selection
    let (k, labels, score) = best_k(&d, 8);
    println!(
        "\nsilhouette-selected k = {k} (score {score:.3}, true workload count = {})",
        specs.len()
    );
    // show the composition of each selected cluster
    for c in 0..k {
        let mut names: Vec<&str> = labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(i, _)| corpus.names[corpus.labels[i]].as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        println!("  cluster {c}: {}", names.join(", "));
    }
    println!(
        "\n(downstream use: a new workload joins its cluster's training pool\n\
         instead of training on its own few runs — the §2 motivation)"
    );
}
