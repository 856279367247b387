//! The heap a server's startup state adds beside the corpus it is built
//! from. The corpus's references sit behind `Arc`s, so a
//! `ServiceState` built from a clone of the default 360-sample corpus,
//! its streaming engine included, shares every run with the original
//! and may add less than half of the corpus's run bytes: a copy of the
//! runs anywhere in startup would break the bound.
//!
//! The file holds one test, so no other test allocates while it counts.

mod heap;

use std::sync::atomic::Ordering::Relaxed;

use heap::LIVE;
use wp_core::offline::OfflineCorpus;
use wp_core::pipeline::PipelineConfig;
use wp_server::corpus::simulated_corpus;
use wp_server::service::ServiceState;
use wp_stream::StreamConfig;
use wp_telemetry::ExperimentRun;

/// Heap bytes of a run's samples, plan statistics and query latencies.
fn run_bytes(run: &ExperimentRun) -> usize {
    let floats = run.resources.data.as_slice().len()
        + run.plans.data.as_slice().len()
        + run.per_query_latency_ms.len();
    floats * std::mem::size_of::<f64>()
}

#[test]
fn startup_state_shares_the_corpus_runs() {
    let boot = |corpus: OfflineCorpus| {
        ServiceState::sharded(
            corpus,
            PipelineConfig::default(),
            Some(1),
            64,
            StreamConfig::default(),
            2,
        )
        .expect("the service boots")
    };
    // A first boot sets up what every later one reuses, such as the
    // process-global metric registry.
    drop(boot(simulated_corpus(0xEDB7_2025, 40)));

    let corpus = simulated_corpus(0xEDB7_2025, 360);
    let corpus_bytes: usize = corpus
        .references
        .iter()
        .flat_map(|r| r.runs_from.iter().chain(&r.runs_to))
        .map(run_bytes)
        .sum();
    let before = LIVE.load(Relaxed);
    let state = boot(corpus.clone());
    let growth = LIVE.load(Relaxed).saturating_sub(before);
    assert!(
        growth < corpus_bytes / 2,
        "startup added {growth} heap bytes beside a corpus of {corpus_bytes} run bytes"
    );
    drop(state);
}
