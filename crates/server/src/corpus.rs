//! Corpus files: loading an [`OfflineCorpus`] from the interchange JSON
//! schema, writing one back, and simulating a default corpus for
//! deployments (and tests) that have no pre-collected telemetry yet.
//!
//! Schema — a thin wrapper over `wp_telemetry::io`'s per-run objects:
//!
//! ```json
//! {
//!   "references": [
//!     { "name": "TPC-C",
//!       "runs_from": [ <run>, ... ],
//!       "runs_to":   [ <run>, ... ] },
//!     ...
//!   ]
//! }
//! ```

use std::sync::Arc;

use wp_core::offline::{OfflineCorpus, OfflineReference};
use wp_json::{obj, Json};
use wp_telemetry::io::{run_from_json, run_to_json};
use wp_telemetry::ExperimentRun;
use wp_workloads::engine::Simulator;
use wp_workloads::{benchmarks, Sku};

/// Serializes a corpus in the schema above (pretty-printed).
pub fn corpus_to_json(corpus: &OfflineCorpus) -> String {
    let references: Vec<Json> = corpus
        .references
        .iter()
        .map(|r| {
            obj! {
                "name" => r.name.clone(),
                "runs_from" => Json::Arr(r.runs_from.iter().map(run_to_json).collect()),
                "runs_to" => Json::Arr(r.runs_to.iter().map(run_to_json).collect()),
            }
        })
        .collect();
    obj! { "references" => references }.pretty()
}

/// Parses and validates a corpus document.
pub fn corpus_from_json(text: &str) -> Result<OfflineCorpus, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid corpus JSON: {e}"))?;
    let references = doc
        .get("references")
        .and_then(Json::as_arr)
        .ok_or("corpus JSON needs a 'references' array")?;
    let mut corpus = OfflineCorpus::default();
    for (i, r) in references.iter().enumerate() {
        let name = r
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("reference {i}: missing 'name'"))?
            .to_string();
        let parse_runs = |key: &str| -> Result<Vec<ExperimentRun>, String> {
            r.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("reference '{name}': missing '{key}' array"))?
                .iter()
                .enumerate()
                .map(|(j, run)| {
                    run_from_json(run).map_err(|e| format!("reference '{name}': {key}[{j}]: {e}"))
                })
                .collect()
        };
        corpus.references.push(Arc::new(OfflineReference {
            runs_from: parse_runs("runs_from")?,
            runs_to: parse_runs("runs_to")?,
            name,
        }));
    }
    corpus.validate()?;
    Ok(corpus)
}

/// Simulates the default reference corpus: TPC-C, TPC-H, and Twitter,
/// three runs each, measured on a 2-CPU source SKU and an 8-CPU
/// destination SKU (the paper's §6.2.3 pair). `samples` controls the
/// resource-series length per run (the simulator default is 360; tests
/// use less).
pub fn simulated_corpus(seed: u64, samples: usize) -> OfflineCorpus {
    let mut sim = Simulator::new(seed);
    sim.config.samples = samples;
    let from = default_from_sku();
    let to = default_to_sku();
    let mut corpus = OfflineCorpus::default();
    for spec in [
        benchmarks::tpcc(),
        benchmarks::tpch(),
        benchmarks::twitter(),
    ] {
        let terminals = if spec.name == "TPC-H" { 1 } else { 8 };
        let simulate_runs = |sku: &Sku| -> Vec<ExperimentRun> {
            (0..3)
                .map(|r| sim.simulate(&spec, sku, terminals, r, r % 3))
                .collect()
        };
        corpus.references.push(Arc::new(OfflineReference {
            name: spec.name.clone(),
            runs_from: simulate_runs(&from),
            runs_to: simulate_runs(&to),
        }));
    }
    corpus
}

/// The source SKU the default corpus was "measured" on.
pub fn default_from_sku() -> Sku {
    Sku::new("cpu2", 2, 64.0)
}

/// The destination SKU of the default corpus' aligned run pairs.
pub fn default_to_sku() -> Sku {
    Sku::new("cpu8", 8, 64.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_corpus_is_valid_and_round_trips() {
        let corpus = simulated_corpus(7, 40);
        corpus.validate().unwrap();
        assert_eq!(corpus.references.len(), 3);

        let text = corpus_to_json(&corpus);
        let back = corpus_from_json(&text).unwrap();
        assert_eq!(back.references.len(), 3);
        for (a, b) in corpus.references.iter().zip(&back.references) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.runs_from.len(), b.runs_from.len());
            for (x, y) in a.runs_from.iter().zip(&b.runs_from) {
                assert_eq!(x.throughput.to_bits(), y.throughput.to_bits());
                assert_eq!(x.resources.data, y.resources.data);
            }
        }
    }

    #[test]
    fn malformed_corpus_documents_are_rejected() {
        assert!(corpus_from_json("not json").is_err());
        assert!(corpus_from_json("{}").is_err());
        assert!(corpus_from_json(r#"{"references":[{"name":"X"}]}"#).is_err());
        // structurally fine but fails OfflineCorpus::validate (no refs)
        assert!(corpus_from_json(r#"{"references":[]}"#).is_err());
    }
}
