//! Rank aggregation across experiments (§4.2): "For top-k feature
//! selection, we aggregate the ranks across experiments and select the
//! top-k features with the lowest aggregate rank."

use crate::ranking::Ranking;

/// Aggregates per-experiment rankings into one ranking by summing each
/// feature's rank positions (lower sum = more important overall).
///
/// All rankings must share the same feature universe (any order).
pub fn aggregate_rankings(rankings: &[Ranking]) -> Ranking {
    assert!(!rankings.is_empty(), "need at least one ranking");
    let universe = rankings[0].features.clone();
    let p = universe.len();
    let mut rank_sums = vec![0usize; p];
    for r in rankings {
        assert_eq!(r.len(), p, "rankings must share the feature universe");
        for (i, &f) in universe.iter().enumerate() {
            let rank = r
                .rank_of(f)
                .unwrap_or_else(|| panic!("feature {} missing from a ranking", f.name()));
            rank_sums[i] += rank;
        }
    }
    // lower sum = better; convert to descending scores
    let scores: Vec<f64> = rank_sums
        .iter()
        .map(|&s| (p * rankings.len()) as f64 - s as f64)
        .collect();
    Ranking::from_scores(universe, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_telemetry::FeatureId;

    fn universe(n: usize) -> Vec<FeatureId> {
        (0..n).map(FeatureId::from_global_index).collect()
    }

    #[test]
    fn unanimous_rankings_aggregate_to_same_order() {
        let r = Ranking::from_order(universe(3), vec![2, 0, 1]);
        let agg = aggregate_rankings(&[r.clone(), r.clone(), r]);
        assert_eq!(agg.order, vec![2, 0, 1]);
    }

    #[test]
    fn majority_wins_on_disagreement() {
        let a = Ranking::from_order(universe(3), vec![0, 1, 2]);
        let b = Ranking::from_order(universe(3), vec![0, 2, 1]);
        let c = Ranking::from_order(universe(3), vec![1, 0, 2]);
        let agg = aggregate_rankings(&[a, b, c]);
        // feature 0 ranks 0,0,1 (sum 1) — clearly first
        assert_eq!(agg.order[0], 0);
    }

    #[test]
    fn aggregation_handles_permuted_universes() {
        let u1 = universe(3);
        let mut u2 = universe(3);
        u2.swap(0, 2);
        let a = Ranking::from_order(u1, vec![0, 1, 2]);
        // in u2's coordinates, global feature 0 is column 2
        let b = Ranking::from_order(u2, vec![2, 1, 0]);
        let agg = aggregate_rankings(&[a, b]);
        assert_eq!(agg.top_k(1), vec![FeatureId::from_global_index(0)]);
    }

    #[test]
    #[should_panic(expected = "at least one ranking")]
    fn empty_input_rejected() {
        let _ = aggregate_rankings(&[]);
    }
}
