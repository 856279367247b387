//! Table 3 — comparison of feature selection strategies: 1-NN
//! workload-identification accuracy of the top-{1,3,7,15,all} subsets
//! (L2,1 norm on Hist-FP) and elapsed selection time, on the 16-CPU
//! hardware configuration.
//!
//! Figure 4 follows from the same run — generalized accuracy development
//! curves: each strategy's accuracy-vs-k curve is classified into the
//! three patterns of Insight 2 (increasing / peaking / inconclusive).

use wp_bench::default_sim;
use wp_bench::table3::{run_table3, Table3Result};
use wp_featsel::evaluate::{classify_pattern, AccuracyPattern};
use wp_workloads::sku::Sku;

fn main() {
    let sim = default_sim();
    let sku = Sku::new("cpu16", 16, 64.0);
    eprintln!("simulating corpus on {sku} and running 17 strategies ...");
    let result = run_table3(&sim, &sku, 3);

    println!("Table 3: Comparison of Feature Selection Strategies (Accuracy & Elapsed Time).\n");
    println!(
        "{:<16} {:>7} {:>7} {:>7} {:>7} {:>7} {:>12}",
        "Strategy", "top-1", "top-3", "top-7", "top-15", "all", "Time (sec)"
    );
    println!("{}", "-".repeat(72));
    for row in &result.rows {
        let cells: Vec<String> = row
            .curve
            .iter()
            .map(|(_, acc)| format!("{acc:>7.3}"))
            .collect();
        println!(
            "{:<16} {} {:>7.3} {:>12.3}",
            row.strategy.label(),
            cells.join(" "),
            result.all_features_accuracy,
            row.seconds
        );
    }
    println!(
        "\n(1-NN accuracy over {} runs; 'all' column uses all 29 features)\n",
        result.n_runs
    );
    print_figure4(&result);
}

/// Figure 4: each Table 3 curve, closed by the all-features accuracy,
/// and its Insight 2 pattern.
fn print_figure4(result: &Table3Result) {
    println!("Figure 4: Generalized Accuracy Development Curves.\n");
    println!(
        "{:<16} {:<40} Pattern",
        "Strategy", "accuracy @ k=1,3,7,15,all"
    );
    println!("{}", "-".repeat(78));
    let mut counts = [0usize; 3];
    for row in &result.rows {
        let mut curve = row.curve.clone();
        curve.push((29, result.all_features_accuracy));
        let pattern = classify_pattern(&curve, 0.01);
        let idx = match pattern {
            AccuracyPattern::Increasing => 0,
            AccuracyPattern::Peaking => 1,
            AccuracyPattern::Inconclusive => 2,
        };
        counts[idx] += 1;
        let pts: Vec<String> = curve.iter().map(|(_, a)| format!("{a:.3}")).collect();
        println!(
            "{:<16} {:<40} {:?}",
            row.strategy.label(),
            pts.join(" "),
            pattern
        );
    }
    println!(
        "\npattern counts: {} increasing, {} peaking, {} inconclusive",
        counts[0], counts[1], counts[2]
    );
}
