//! Experiment: what-if SKU recommendation quality over the scenario zoo.
//!
//! Drives `POST /recommend` in-process across every time-evolving zoo
//! scenario at several evolution steps and three SLO regimes per case
//! (met in place, forced upgrade, unreachable), then scores the chosen
//! SKU against the simulator's ground truth — the cheapest paper-grid
//! SKU whose *actual* mean throughput meets the SLO. The baseline is
//! the always-cheapest heuristic (recommend the 2-CPU SKU no matter
//! what); the service must beat or match it.
//!
//! Determinism is checked three ways: the full sweep is replayed
//! against a fresh service (cache-independence) and against services
//! pinned to 1 and 8 compute threads (thread-independence). All
//! responses must be byte-identical.
//!
//! Emits `BENCH_recommend.json` and exits non-zero if any request
//! errors, any replay diverges, or accuracy drops below the baseline.

use std::time::Instant;

use wp_json::{obj, Json};
use wp_linalg::stats::{mean, nearest_rank};
use wp_server::http::Request;
use wp_server::service::{handle, ServiceState};
use wp_server::ServerConfig;
use wp_workloads::engine::Simulator;
use wp_workloads::zoo::{paper_zoo, Scenario};
use wp_workloads::Sku;

const OUT_PATH: &str = "BENCH_recommend.json";
const SEED: u64 = 0xEDB7_2025;
/// Resource-series length per simulated run (the simulator default of
/// 360 is overkill for a CI-budget sweep).
const SAMPLES: usize = 40;
/// Zoo streams run at a fixed 8 terminals (the loadgen streamer's
/// operating point).
const TERMINALS: usize = 8;
/// Evolution steps probed per scenario: the starting mix, mid-cycle,
/// and (for recurring mixes) almost a full period later.
const STEPS: [usize; 3] = [0, 3, 7];
/// Observed runs per case, simulated on the 2-CPU source SKU.
const OBSERVED_RUNS: usize = 3;

/// One recommendation probe: a scenario frozen at a step, with an SLO
/// placed relative to that case's true scaling curve.
struct Case {
    scenario: String,
    step: usize,
    slo_kind: &'static str,
    slo: f64,
    body: String,
    /// Cheapest SKU whose simulator-actual throughput meets `slo`.
    truth: Option<String>,
}

fn build_cases() -> Vec<Case> {
    let ladder = Sku::paper_grid();
    let mut cases = Vec::new();
    for scenario in paper_zoo(SEED) {
        for &step in &STEPS {
            cases.extend(cases_for(&scenario, step, &ladder));
        }
    }
    cases
}

fn cases_for(scenario: &Scenario, step: usize, ladder: &[Sku]) -> Vec<Case> {
    let spec = scenario.spec_at(step);
    let mut sim = Simulator::new(SEED);
    sim.config.samples = SAMPLES;

    // Ground truth: actual mean throughput per ladder SKU, same run
    // indices as the observed telemetry so the 2-CPU actual equals the
    // observed mean exactly.
    let actuals: Vec<(String, f64)> = ladder
        .iter()
        .map(|sku| {
            let runs: Vec<f64> = (0..OBSERVED_RUNS)
                .map(|r| sim.simulate(&spec, sku, TERMINALS, r, r % 3).throughput)
                .collect();
            (sku.name.clone(), mean(&runs))
        })
        .collect();
    let actual_cheapest = actuals[0].1;
    let actual_max = actuals.iter().map(|(_, t)| *t).fold(f64::MIN, f64::max);

    let observed: Vec<_> = (0..OBSERVED_RUNS)
        .map(|r| sim.simulate(&spec, &ladder[0], TERMINALS, r, r % 3))
        .collect();
    let runs_json = wp_telemetry::io::runs_to_json(&observed);

    // Three SLO regimes pinned to this case's own curve: comfortably
    // met by the cheapest SKU, met only above it, and unreachable.
    let slos = [
        ("easy", 0.7 * actual_cheapest),
        ("upgrade", 0.5 * (actual_cheapest + actual_max)),
        ("unreachable", 1.5 * actual_max),
    ];
    slos.iter()
        .map(|&(slo_kind, slo)| Case {
            scenario: scenario.name.clone(),
            step,
            slo_kind,
            slo,
            body: format!("{{\"slo\":{slo},\"runs\":{runs_json}}}"),
            truth: actuals
                .iter()
                .find(|(_, t)| *t >= slo)
                .map(|(name, _)| name.clone()),
        })
        .collect()
}

fn fresh_state(compute_threads: Option<usize>) -> ServiceState {
    let defaults = ServerConfig::default();
    ServiceState::new(
        wp_server::corpus::simulated_corpus(SEED, SAMPLES),
        defaults.pipeline,
        compute_threads,
        defaults.cache_capacity,
        defaults.stream,
    )
    .expect("service state must build")
}

/// Runs every case through one service instance; returns the raw
/// `(status, body)` answers in case order.
fn sweep(state: &ServiceState, cases: &[Case]) -> Vec<(u16, String)> {
    cases
        .iter()
        .map(|case| {
            let req = Request {
                method: "POST".to_string(),
                path: "/recommend".to_string(),
                body: case.body.clone(),
                keep_alive: false,
            };
            handle(state, &req)
        })
        .collect()
}

fn main() {
    let cases = build_cases();
    println!(
        "exp_recommend: {} cases ({} scenarios x {} steps x 3 SLO regimes)",
        cases.len(),
        paper_zoo(SEED).len(),
        STEPS.len()
    );

    // Primary sweep (ambient WP_THREADS), with per-request latency.
    let primary_state = fresh_state(None);
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(cases.len());
    let answers: Vec<(u16, String)> = cases
        .iter()
        .map(|case| {
            let req = Request {
                method: "POST".to_string(),
                path: "/recommend".to_string(),
                body: case.body.clone(),
                keep_alive: false,
            };
            let t0 = Instant::now();
            let answer = handle(&primary_state, &req);
            latencies_ns.push(t0.elapsed().as_nanos() as u64);
            answer
        })
        .collect();

    // Replays: a fresh service (no shared cache) and thread-pinned
    // services. Byte-identical or the experiment fails.
    let replay = sweep(&fresh_state(None), &cases);
    let threads1 = sweep(&fresh_state(Some(1)), &cases);
    let threads8 = sweep(&fresh_state(Some(8)), &cases);
    let deterministic = answers == replay && answers == threads1 && answers == threads8;

    let mut errors = 0usize;
    let mut correct = 0usize;
    let mut baseline_correct = 0usize;
    let mut fallbacks = 0usize;
    let cheapest = Sku::paper_grid()[0].name.clone();
    let mut choices = Vec::with_capacity(cases.len());
    println!(
        "{:<18} {:>4}  {:<11} {:>12}  {:<6} {:<6} {:>3}",
        "scenario", "step", "slo_kind", "slo", "chose", "truth", "ok"
    );
    for (case, (status, body)) in cases.iter().zip(&answers) {
        if *status != 200 {
            errors += 1;
            eprintln!(
                "FAIL: {} step {} {} -> HTTP {status}: {body}",
                case.scenario, case.step, case.slo_kind
            );
            continue;
        }
        let doc = Json::parse(body).expect("response must parse");
        let recommended = doc
            .get("recommended")
            .and_then(Json::as_str)
            .map(str::to_string);
        let context = doc
            .get("context")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        if context.contains("single") {
            fallbacks += 1;
        }
        let hit = recommended == case.truth;
        correct += hit as usize;
        baseline_correct += (case.truth.as_deref() == Some(cheapest.as_str())) as usize;
        println!(
            "{:<18} {:>4}  {:<11} {:>12.1}  {:<6} {:<6} {:>3}",
            case.scenario,
            case.step,
            case.slo_kind,
            case.slo,
            recommended.as_deref().unwrap_or("-"),
            case.truth.as_deref().unwrap_or("-"),
            if hit { "yes" } else { "NO" }
        );
        choices.push(obj! {
            "scenario" => case.scenario.clone(),
            "step" => case.step,
            "slo_kind" => case.slo_kind,
            "slo" => case.slo,
            "recommended" => recommended
                .as_deref()
                .map_or(Json::Null, Json::from),
            "truth" => case.truth
                .as_deref()
                .map_or(Json::Null, Json::from),
            "context" => context,
            "correct" => hit,
        });
    }

    let scored = answers.iter().filter(|(s, _)| *s == 200).count();
    let accuracy = correct as f64 / cases.len() as f64;
    let baseline_accuracy = baseline_correct as f64 / cases.len() as f64;
    latencies_ns.sort_unstable();
    let [p50, p95, max] = [50.0, 95.0, 100.0].map(|p| nearest_rank(&latencies_ns, p) as f64 / 1e6);
    println!(
        "accuracy {:.3} vs baseline(always-{cheapest}) {:.3}; \
         {fallbacks} single-context fallbacks; latency p50 {p50:.2} ms \
         p95 {p95:.2} ms max {max:.2} ms",
        accuracy, baseline_accuracy
    );

    let mut ok = true;
    if errors > 0 {
        eprintln!("FAIL: {errors} of {} requests errored", cases.len());
        ok = false;
    }
    if !deterministic {
        eprintln!(
            "FAIL: replayed sweeps are not byte-identical (fresh state / 1 thread / 8 threads)"
        );
        ok = false;
    }
    if accuracy < baseline_accuracy {
        eprintln!(
            "FAIL: SKU-choice accuracy {accuracy:.3} below always-{cheapest} baseline {baseline_accuracy:.3}"
        );
        ok = false;
    }

    let doc = obj! {
        "experiment" => "recommend",
        "seed" => SEED,
        "cases" => cases.len(),
        "scored" => scored,
        "errors" => errors,
        "accuracy" => accuracy,
        "baseline_accuracy" => baseline_accuracy,
        "fallbacks" => fallbacks,
        "deterministic" => deterministic,
        "latency_p50_ms" => p50,
        "latency_p95_ms" => p95,
        "latency_max_ms" => max,
        "choices" => Json::Arr(choices),
    };
    std::fs::write(OUT_PATH, doc.pretty() + "\n").expect("write BENCH_recommend.json");
    println!("wrote {OUT_PATH}");
    if !ok {
        std::process::exit(1);
    }
}
