//! Subcommand implementations.

use wp_core::pipeline::{Pipeline, PipelineConfig};
use wp_featsel::wrapper::{Estimator, WrapperConfig};
use wp_featsel::Strategy;
use wp_json::{obj, Json};
use wp_similarity::Representation;
use wp_telemetry::FeatureId;
use wp_workloads::dataset::LabeledDataset;
use wp_workloads::engine::{paper_terminals, Simulator};
use wp_workloads::spec::WorkloadSpec;
use wp_workloads::{benchmarks, Sku};

use crate::args::Args;

/// Usage text shown on errors.
pub const USAGE: &str = "\
usage:
  wp workloads
  wp simulate --workload <name> --sku <sku> [--terminals N] [--run N] [--json] [--seed S]
  wp select   [--strategy <name>] [--top K] [--sku <sku>] [--seed S]
  wp similar  --target <name> [--sku <sku>] [--top K] [--seed S]
              [--representation mts|hist|phase]
  wp predict  --target <name> --from <sku> --to <sku> [--terminals N] [--seed S]
  wp recommend --slo REQS (--target <name> | --scenario <zoo> [--step N])
              [--samples N] [--seed S] [--json]
  wp export   --workload <name> --sku <sku> [--terminals N] [--runs N] [--seed S]
  wp serve    [--addr HOST:PORT] [--threads N]
              [--corpus FILE] [--samples N] [--seed S] [--faults SPEC] [--obs]
  wp chaos    [--plan SPEC] [--requests N] [--connections N] [--seed S] [--samples N]
              [--timeout SECONDS] [--retries N] [--out FILE] [--verify-determinism] [--obs]
  wp stream   [--rate HZ] [--tenants N] [--batches N] [--runs-per-batch N]
              [--shift-after N] [--zoo] [--samples N] [--seed S] [--timeout SECONDS]
              [--faults SPEC] [--out FILE] [--verify-determinism] [--obs]
  wp trace    [--samples N] [--seed S] [--json]
  wp index-bench [--size N] [--queries N] [--k K] [--samples N] [--json] [--seed S]

fault SPEC: seed=7,reset=0.05,latency=0.2,latency_ms=1..5,error=0.15,
            error:/similar=0.3,slow=0.1,truncate=0.05 (also read from WP_FAULTS)

skus: cpu2 | cpu4 | cpu8 | cpu16 | s1 | s2 | vcore80 | <cpus>x<gib> (e.g. 12x96)
zoo scenarios: {tpcc,twitter,ycsb}-{recurring,shifting} (time-evolving mixes)
strategies: variance | pearson | fanova | migain | lasso | elasticnet |
            randomforest | rfe-linear | rfe-dectree | rfe-logreg | baseline";

const DEFAULT_SEED: u64 = 0xEDB7_2025;

/// True when the `WP_OBS` environment variable asks for observability
/// (set to anything but `""` or `"0"`), mirroring how `WP_FAULTS` arms
/// fault injection without touching the command line.
fn obs_from_env() -> bool {
    std::env::var("WP_OBS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Dispatches a full command line (without the program name).
pub fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or("no subcommand given")?;
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "workloads" => cmd_workloads(),
        "simulate" => cmd_simulate(&args),
        "select" => cmd_select(&args),
        "similar" => cmd_similar(&args),
        "predict" => cmd_predict(&args),
        "recommend" => cmd_recommend(&args),
        "export" => cmd_export(&args),
        "serve" => cmd_serve(&args),
        "chaos" => cmd_chaos(&args),
        "stream" => cmd_stream(&args),
        "trace" => cmd_trace(&args),
        "index-bench" => cmd_index_bench(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

/// Parses a SKU name: the named catalog entries or `<cpus>x<gib>`.
pub fn parse_sku(s: &str) -> Result<Sku, String> {
    match s {
        "cpu2" | "cpu4" | "cpu8" | "cpu16" => {
            let cpus: usize = s[3..].parse().unwrap();
            Ok(Sku::new(s, cpus, 64.0))
        }
        "s1" | "S1" => Ok(Sku::s1()),
        "s2" | "S2" => Ok(Sku::s2()),
        "vcore80" => Ok(Sku::vcore80()),
        custom => {
            let (c, m) = custom
                .split_once('x')
                .ok_or_else(|| format!("unknown SKU '{custom}'"))?;
            let cpus: usize = c
                .parse()
                .map_err(|_| format!("bad CPU count in '{custom}'"))?;
            let mem: f64 = m.parse().map_err(|_| format!("bad memory in '{custom}'"))?;
            Ok(Sku::new(format!("cpu{cpus}m{mem}"), cpus, mem))
        }
    }
}

/// Parses a strategy name.
pub fn parse_strategy(s: &str) -> Result<Strategy, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "variance" => Strategy::Variance,
        "pearson" => Strategy::Pearson,
        "fanova" => Strategy::FAnova,
        "migain" => Strategy::MiGain,
        "lasso" => Strategy::Lasso,
        "elasticnet" | "elastic-net" => Strategy::ElasticNet,
        "randomforest" | "random-forest" => Strategy::RandomForest,
        "rfe-linear" => Strategy::Rfe(Estimator::Linear),
        "rfe-dectree" => Strategy::Rfe(Estimator::DecisionTree),
        "rfe-logreg" => Strategy::Rfe(Estimator::LogisticRegression),
        "baseline" => Strategy::Baseline,
        other => return Err(format!("unknown strategy '{other}'")),
    })
}

fn workload_by_name(name: &str) -> Result<WorkloadSpec, String> {
    benchmarks::by_name(name).ok_or_else(|| {
        let names: Vec<String> = benchmarks::all().iter().map(|w| w.name.clone()).collect();
        format!(
            "unknown workload '{name}' (available: {})",
            names.join(", ")
        )
    })
}

fn sim_with_seed(args: &Args) -> Result<Simulator, String> {
    Ok(Simulator::new(args.parsed_or("seed", DEFAULT_SEED)?))
}

fn cmd_workloads() -> Result<(), String> {
    print!("{}", wp_workloads::catalog::render_table1());
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let spec = workload_by_name(args.required("workload")?)?;
    let sku = parse_sku(args.required("sku")?)?;
    let default_terminals = *paper_terminals(&spec).first().unwrap();
    let terminals: usize = args.parsed_or("terminals", default_terminals)?;
    let run_index: usize = args.parsed_or("run", 0)?;
    let sim = sim_with_seed(args)?;
    let run = sim.simulate(&spec, &sku, terminals, run_index, run_index % 3);

    if args.switch("json") {
        let resource_means: Vec<Json> = wp_telemetry::ResourceFeature::ALL
            .iter()
            .map(|f| {
                obj! {
                    "feature" => f.name(),
                    "mean" => wp_linalg::stats::mean(&run.resources.feature(*f)),
                }
            })
            .collect();
        let doc = obj! {
            "workload" => run.key.workload.clone(),
            "sku" => obj! {
                "name" => sku.name.clone(),
                "cpus" => sku.cpus,
                "memory_gb" => sku.memory_gb,
            },
            "terminals" => terminals,
            "run_index" => run_index,
            "throughput_tps" => run.throughput,
            "latency_ms" => run.latency_ms,
            "samples" => run.resources.len(),
            "queries" => run.plans.len(),
            "resource_means" => resource_means,
        };
        println!("{}", doc.pretty());
        return Ok(());
    }

    println!(
        "{} on {} with {terminals} terminals (run {run_index})",
        run.key.workload, sku
    );
    println!("  throughput: {:>10.1} req/s", run.throughput);
    println!("  latency:    {:>10.2} ms", run.latency_ms);
    println!(
        "  telemetry:  {} resource samples x 7 features, {} query plans x 22 features",
        run.resources.len(),
        run.plans.len()
    );
    println!("  resource means:");
    for f in wp_telemetry::ResourceFeature::ALL {
        println!(
            "    {:<18} {:>12.3}",
            f.name(),
            wp_linalg::stats::mean(&run.resources.feature(f))
        );
    }
    Ok(())
}

fn cmd_select(args: &Args) -> Result<(), String> {
    let strategy = parse_strategy(args.get("strategy").unwrap_or("fanova"))?;
    let top: usize = args.parsed_or("top", 7)?;
    let sku = parse_sku(args.get("sku").unwrap_or("cpu16"))?;
    let sim = sim_with_seed(args)?;

    let specs = benchmarks::standardized();
    let mut sets = Vec::new();
    for spec in &specs {
        for &t in &paper_terminals(spec) {
            for r in 0..3 {
                sets.push(sim.observations(spec, &sku, t, r, r % 3, 10));
            }
        }
    }
    let ds = LabeledDataset::from_observation_sets(&sets);
    let ranking = strategy.rank(
        &ds.features,
        &ds.labels,
        &FeatureId::all(),
        &WrapperConfig::default(),
    );
    println!(
        "top-{top} features by {} over {} observations on {}:",
        strategy.label(),
        ds.len(),
        sku
    );
    for (i, f) in ranking.top_k(top).iter().enumerate() {
        println!("  {:>2}. {}", i + 1, f.name());
    }
    Ok(())
}

fn cmd_similar(args: &Args) -> Result<(), String> {
    let target = workload_by_name(args.required("target")?)?;
    let sku = parse_sku(args.get("sku").unwrap_or("cpu16"))?;
    let top: usize = args.parsed_or("top", 7)?;
    let representation = match args.get("representation") {
        None => Representation::HistFp,
        Some(s) => Representation::parse(s).ok_or_else(|| {
            format!("unknown representation '{s}' (use 'mts', 'hist', or 'phase')")
        })?,
    };
    let mut pipeline = Pipeline::new(args.parsed_or("seed", DEFAULT_SEED)?);
    pipeline.config = PipelineConfig {
        selection: Strategy::FAnova,
        top_k: top,
        representation,
        ..PipelineConfig::default()
    };

    let references: Vec<WorkloadSpec> = benchmarks::standardized()
        .into_iter()
        .filter(|w| w.name != target.name)
        .collect();
    let terminals = *paper_terminals(&target).first().unwrap();

    let selected = wp_core::pipeline::select_features(
        &pipeline.sim,
        &references,
        &sku,
        |s| *paper_terminals(s).first().unwrap(),
        &pipeline.config,
    );
    let target_runs: Vec<_> = (0..3)
        .map(|r| pipeline.sim.simulate(&target, &sku, terminals, r, r % 3))
        .collect();
    let reference_runs: Vec<_> = references
        .iter()
        .map(|spec| {
            let t = *paper_terminals(spec).first().unwrap();
            let runs = (0..3)
                .map(|r| pipeline.sim.simulate(spec, &sku, t, r, r % 3))
                .collect();
            (spec.name.clone(), runs)
        })
        .collect();
    let verdicts = wp_core::pipeline::find_most_similar(
        &target_runs,
        &reference_runs,
        &selected,
        &pipeline.config,
    )?;
    println!(
        "similarity of {} on {} (top-{top} features, {} + L2,1):",
        target.name,
        sku,
        representation.label()
    );
    for v in &verdicts {
        println!("  vs {:<8} {:.3}", v.workload, v.distance);
    }
    println!("most similar: {}", verdicts[0].workload);
    Ok(())
}

/// Dumps simulated runs as interchange JSON (the `wp_telemetry::io`
/// schema), so external tooling can consume or imitate the format.
fn cmd_export(args: &Args) -> Result<(), String> {
    let spec = workload_by_name(args.required("workload")?)?;
    let sku = parse_sku(args.required("sku")?)?;
    let terminals: usize = args.parsed_or("terminals", *paper_terminals(&spec).first().unwrap())?;
    let runs: usize = args.parsed_or("runs", 3)?;
    let sim = sim_with_seed(args)?;
    let records: Vec<_> = (0..runs)
        .map(|r| sim.simulate(&spec, &sku, terminals, r, r % 3))
        .collect();
    println!("{}", wp_telemetry::io::runs_to_json(&records));
    Ok(())
}

/// Serves the prediction pipeline over HTTP. Loads a corpus file in the
/// `wp-server` interchange schema when `--corpus` is given, otherwise
/// simulates the default TPC-C/TPC-H/Twitter reference corpus. Prints
/// the bound address (so `--addr host:0` callers learn the OS-chosen
/// port) and serves until the process is killed.
///
/// `--faults SPEC` (or the `WP_FAULTS` environment variable) arms the
/// seeded fault-injection layer — see `wp chaos` for the spec format.
///
/// `--obs` (or a non-empty, non-`"0"` `WP_OBS` environment variable)
/// enables the `wp-obs` registry and routes `GET /metrics`. Without it
/// the server's responses are byte-identical to a build without the
/// observability layer.
///
/// `--threads` sets the `wp-reactor` event-loop shard count; every
/// connection is served by one shard, from that shard's caches.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080").to_string();
    let threads: usize = args.parsed_or("threads", 4)?;
    let samples: usize = args.parsed_or("samples", 120)?;
    let seed: u64 = args.parsed_or("seed", DEFAULT_SEED)?;
    let obs = args.switch("obs") || obs_from_env();
    let faults = match args.get("faults") {
        Some(spec) => wp_faults::FaultPlan::parse(spec)?,
        None => wp_faults::FaultPlan::from_env()?.unwrap_or_default(),
    };

    let (corpus, source) = match args.get("corpus") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read corpus file '{path}': {e}"))?;
            (
                wp_server::corpus::corpus_from_json(&text)?,
                format!("corpus file '{path}'"),
            )
        }
        None => (
            wp_server::corpus::simulated_corpus(seed, samples),
            format!("simulated default corpus (seed {seed}, {samples} samples/run)"),
        ),
    };
    let names: Vec<String> = corpus.references.iter().map(|r| r.name.clone()).collect();

    if faults.is_enabled() {
        println!("fault injection armed: {}", faults.render());
    }
    if obs {
        println!("observability on: GET /metrics serves the Prometheus text exposition");
    }
    let config = wp_server::ServerConfig {
        addr,
        workers: threads.max(1),
        faults,
        obs,
        ..wp_server::ServerConfig::default()
    };
    let handle = wp_server::Server::start(corpus, config)?;
    println!(
        "serving {} reference workloads ({}) from {source}",
        names.len(),
        names.join(", ")
    );
    // Keep this line's exact shape: the CI smoke jobs poll for it and
    // strip the prefix to learn the OS-assigned port.
    println!("listening on http://{}", handle.addr());
    println!("backend: {}", handle.backend());
    // Piped stdout is block-buffered; the smoke script polls for the
    // address line, so push it out before blocking in wait().
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok(())
}

/// Runs the serving pipeline once, in process, with observability
/// enabled, and prints the recorded trace: every counter, gauge, and
/// span (count / total time / mean / max) the instrumented crates
/// emitted. The same simulated corpus and request mix that back
/// `wp serve` and `wp-loadgen` drive the handlers, plus a `POST` asked
/// twice more so the response cache stores it and registers a hit.
/// `--json` prints the snapshot as a JSON document instead of the table.
fn cmd_trace(args: &Args) -> Result<(), String> {
    let samples: usize = args.parsed_or("samples", 60)?;
    let seed: u64 = args.parsed_or("seed", DEFAULT_SEED)?;

    wp_obs::enable();
    wp_obs::reset();

    let corpus = wp_server::corpus::simulated_corpus(seed, samples);
    let defaults = wp_server::ServerConfig::default();
    let state = wp_server::service::ServiceState::new(
        corpus,
        defaults.pipeline,
        None,
        defaults.cache_capacity,
        defaults.stream,
    )?;

    let mut mix = wp_loadgen::default_mix(seed, samples);
    // Replay the first POST verbatim twice: the first replay stores its
    // answer, so the second shows a response-cache hit.
    if let Some(repeat) = mix.iter().find(|e| e.method == "POST").cloned() {
        mix.push(repeat.clone());
        mix.push(repeat);
    }
    // The default mix ranks exhaustively; add one indexed retrieval so
    // the pruning-cascade counters show up in the trace.
    if let Some(similar) = mix.iter().find(|e| e.path == "/similar").cloned() {
        mix.push(wp_loadgen::MixEntry {
            body: similar
                .body
                .replacen('{', "{\"mode\":\"indexed\",\"k\":3,", 1),
            ..similar
        });
    }
    let driven = mix.len();
    for entry in &mix {
        let req = wp_server::http::Request {
            method: entry.method.to_string(),
            path: entry.path.to_string(),
            body: entry.body.clone(),
            keep_alive: false,
        };
        let started = std::time::Instant::now();
        let (status, body) = wp_server::service::handle(&state, &req);
        // Same accounting the live server does around each request, so
        // the per-endpoint span series show up in the trace.
        state.stats.record(
            &req.path,
            started.elapsed().as_nanos() as u64,
            status >= 400,
        );
        if status >= 400 {
            return Err(format!(
                "trace request {} {} failed with {status}: {body}",
                entry.method, entry.path
            ));
        }
    }

    let snap = wp_obs::snapshot();
    if args.switch("json") {
        println!("{}", snap.to_json().pretty());
        return Ok(());
    }
    println!("trace of {driven} requests over the simulated corpus (seed {seed}, {samples} samples/run):");
    print!("{}", snap.render_summary());
    Ok(())
}

/// The fault plan `wp chaos` runs when neither `--plan` nor `WP_FAULTS`
/// says otherwise: a moderate storm of resets, injected latency, `503`s,
/// slow writes, and truncated responses. No stalls — the default run
/// should finish in seconds, not wait out client timeouts.
const DEFAULT_CHAOS_PLAN: &str =
    "seed=7,reset=0.05,latency=0.2,latency_ms=1..5,error=0.15,slow=0.1,truncate=0.08";

/// Repeats a standalone request until a 2xx lands (the server under
/// chaos may reset, stall, or 503 any individual attempt).
fn fetch_until_ok(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: std::time::Duration,
    attempts: u32,
) -> Result<String, String> {
    let mut last = String::new();
    for _ in 0..attempts {
        match wp_loadgen::fetch(addr, method, path, body, timeout) {
            Ok((status, b)) if (200..300).contains(&status) => return Ok(b),
            Ok((status, _)) => last = format!("status {status}"),
            Err(class) => last = class.label().to_string(),
        }
    }
    Err(format!(
        "no 2xx from {method} {path} in {attempts} attempts (last: {last})"
    ))
}

/// Runs a seeded chaos experiment: a fault-injected `wp-server` is
/// hammered by the resilient closed loop in fixed-request mode, and the
/// run's invariants are asserted:
///
/// 1. every logical request resolves to a classification — successes
///    plus errors add up to the configured request count, nothing hangs;
/// 2. the response cache stays correct under faults — three retried
///    `POST /similar` with the same body return byte-identical bodies,
///    and the third is a response-cache hit (the server runs one shard,
///    so every fresh connection shares its cache);
/// 3. the server survives the storm — `/healthz` still answers 200.
///
/// The error taxonomy (never the timings) goes to `--out`
/// (`BENCH_chaos.json`). With the default single connection the
/// taxonomy is a pure function of `(plan, seed)`; `--verify-determinism`
/// replays the whole experiment against a fresh server and asserts the
/// two taxonomies are byte-identical.
///
/// `--obs` additionally enables the `wp-obs` registry (reset before
/// each run) and appends the span/counter snapshot of the last run as
/// an `"obs"` section of the output document. The section carries
/// timings, so it is deliberately excluded from the determinism
/// comparison — only the taxonomy is replay-compared.
fn cmd_chaos(args: &Args) -> Result<(), String> {
    use std::time::Duration;
    use wp_faults::FaultPlan;

    let spec = match args.get("plan") {
        Some(s) => s.to_string(),
        None => match FaultPlan::from_env()? {
            Some(plan) => plan.render(),
            None => DEFAULT_CHAOS_PLAN.to_string(),
        },
    };
    let plan = FaultPlan::parse(&spec)?;
    if !plan.is_enabled() {
        return Err(format!("fault plan '{spec}' injects nothing"));
    }
    let requests: u64 = args.parsed_or("requests", 60)?;
    let connections: usize = args.parsed_or("connections", 1)?;
    let samples: usize = args.parsed_or("samples", 40)?;
    let seed: u64 = args.parsed_or("seed", DEFAULT_SEED)?;
    let retries: u32 = args.parsed_or("retries", 3)?;
    let timeout = Duration::from_secs_f64(args.parsed_or("timeout", 2.0)?);
    let out = args.get("out").unwrap_or("BENCH_chaos.json").to_string();
    let obs = args.switch("obs") || obs_from_env();
    if requests == 0 {
        return Err("--requests must be positive".to_string());
    }
    if obs {
        wp_obs::enable();
    }

    let mix = wp_loadgen::default_mix(seed, samples);
    let similar_body = mix
        .iter()
        .find(|e| e.path == "/similar")
        .map(|e| e.body.clone())
        .expect("default mix serves /similar");

    let run_once = || -> Result<(wp_loadgen::Report, String), String> {
        if obs {
            // Each run starts from a zeroed registry, so the appended
            // snapshot describes exactly one experiment (the last one).
            wp_obs::reset();
        }
        let corpus = wp_server::corpus::simulated_corpus(seed, samples);
        let server = wp_server::Server::start(
            corpus,
            wp_server::ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                // One shard: invariant 2 opens a fresh connection per
                // fetch, and only one shard gives them one cache.
                workers: 1,
                faults: plan.clone(),
                ..wp_server::ServerConfig::default()
            },
        )?;
        let addr = server.addr().to_string();
        let config = wp_loadgen::LoadConfig {
            addr: addr.clone(),
            connections,
            seed,
            timeout,
            retries,
            requests_per_connection: Some(requests),
            ..wp_loadgen::LoadConfig::default()
        };
        let report = wp_loadgen::run_load(&config, &mix)?;

        // Invariant 1: nothing hangs, everything is classified.
        let total = connections.max(1) as u64 * requests;
        if report.requests + report.errors != total {
            server.shutdown();
            return Err(format!(
                "classification leak: {} ok + {} failed != {total} issued",
                report.requests, report.errors
            ));
        }
        // Invariant 2: cache hits stay byte-identical under faults. The
        // second answer is stored on its miss; the third is a hit.
        let a = fetch_until_ok(&addr, "POST", "/similar", &similar_body, timeout, 25)?;
        let b = fetch_until_ok(&addr, "POST", "/similar", &similar_body, timeout, 25)?;
        let (hits_before, _) = server.state().response_cache_counters();
        let c = fetch_until_ok(&addr, "POST", "/similar", &similar_body, timeout, 25)?;
        let (hits_after, _) = server.state().response_cache_counters();
        if a != b || a != c {
            server.shutdown();
            return Err(
                "cache divergence: identical /similar bodies got different responses".into(),
            );
        }
        if hits_after == hits_before {
            server.shutdown();
            return Err("the third /similar answer did not come from the cache".into());
        }
        // Invariant 3: the server outlives the storm.
        let health = fetch_until_ok(&addr, "GET", "/healthz", "", timeout, 25)?;
        if !health.contains("\"status\":\"ok\"") {
            server.shutdown();
            return Err(format!("unhealthy after chaos: {health}"));
        }
        server.shutdown();

        let mut doc = Json::parse(&report.taxonomy_json())
            .map_err(|e| format!("taxonomy JSON does not parse: {e}"))?;
        if let Json::Obj(pairs) = &mut doc {
            pairs.insert(1, ("plan".to_string(), Json::from(plan.render().as_str())));
        }
        Ok((report, doc.pretty()))
    };

    println!("chaos plan: {}", plan.render());
    println!(
        "{} connection(s) x {requests} requests, timeout {:.1}s, {retries} retries",
        connections.max(1),
        timeout.as_secs_f64()
    );
    let (report, taxonomy) = run_once()?;

    if args.switch("verify-determinism") {
        let (_, replay) = run_once()?;
        if taxonomy != replay {
            return Err(format!(
                "non-deterministic taxonomy:\nrun 1: {taxonomy}\nrun 2: {replay}"
            ));
        }
        println!("determinism verified: replay produced a byte-identical taxonomy");
    }

    // The obs snapshot rides along *after* the determinism comparison:
    // its span timings are wall-clock and may not replay byte-identical.
    let output = if obs {
        let mut doc =
            Json::parse(&taxonomy).map_err(|e| format!("taxonomy JSON does not parse: {e}"))?;
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("obs".to_string(), wp_obs::snapshot().to_json()));
        }
        doc.pretty()
    } else {
        taxonomy.clone()
    };
    std::fs::write(&out, format!("{output}\n")).map_err(|e| format!("cannot write {out}: {e}"))?;
    let t = &report.taxonomy;
    println!(
        "{} ok, {} failed; attempts: {} reset, {} timeout, {} 5xx, {} 4xx, {} malformed",
        report.requests,
        report.errors,
        t.resets,
        t.timeouts,
        t.server_errors,
        t.client_errors,
        t.malformed
    );
    println!(
        "{} retries recovered {} request(s); taxonomy -> {out}",
        t.retries, t.recovered
    );
    Ok(())
}

/// Runs the streaming-ingest experiment: an in-process `wp-server` is
/// fed seeded multi-tenant telemetry by the `wp-loadgen` streamer at a
/// target batch rate, with every tenant's stream shape-shifting at
/// `--shift-after` (default two-thirds through) so the drift detector
/// has a scripted change to find. Sustained ingest throughput, latency
/// percentiles, and the drift/eviction counters go to `--out`
/// (`BENCH_stream.json`).
///
/// Invariants asserted on every run: the server stays healthy, and the
/// generation counter equals the server's own accepted-batch ledger (a
/// rejected or faulted batch must never half-apply). On a fault-free
/// run the ledger must also match the client's accepted count exactly,
/// and with a shape-shift scheduled at least one drift event must fire.
///
/// `--verify-determinism` replays the whole experiment against a fresh
/// server and asserts the two `/drift` event logs — ordinals,
/// distances, thresholds, phase counts — are byte-identical, then
/// stamps `"deterministic": true` into the report.
///
/// `--faults SPEC` arms the server's fault plan while streaming (the
/// chaos-under-streaming mode): rejected batches are then expected, and
/// the ledger/liveness invariants are what the run is about. Scope the
/// plan to the ingest path (e.g. `error:/ingest=0.3`) to keep the
/// post-run probes clean.
///
/// `--zoo` streams the scenario zoo instead of frozen benchmark mixes:
/// each tenant replays one `wp_workloads::zoo` scenario (recurring or
/// shifting transaction mixes), advancing one evolution step per batch.
fn cmd_stream(args: &Args) -> Result<(), String> {
    use std::time::Duration;
    use wp_faults::FaultPlan;

    let rate: f64 = args.parsed_or("rate", 40.0)?;
    let tenants: usize = args.parsed_or("tenants", 2)?;
    let batches: u64 = args.parsed_or("batches", 12)?;
    let runs_per_batch: usize = args.parsed_or("runs-per-batch", 2)?;
    let samples: usize = args.parsed_or("samples", 30)?;
    let seed: u64 = args.parsed_or("seed", DEFAULT_SEED)?;
    let shift_after: u64 = args.parsed_or("shift-after", (batches * 2 / 3).max(1))?;
    let zoo = args.switch("zoo");
    let timeout = Duration::from_secs_f64(args.parsed_or("timeout", 10.0)?);
    let out = args.get("out").unwrap_or("BENCH_stream.json").to_string();
    let obs = args.switch("obs") || obs_from_env();
    if batches == 0 || tenants == 0 {
        return Err("--batches and --tenants must be positive".to_string());
    }
    let plan = match args.get("faults") {
        Some(s) => Some(FaultPlan::parse(s)?),
        None => FaultPlan::from_env()?,
    };
    let faulted = plan.as_ref().is_some_and(FaultPlan::is_enabled);
    if obs {
        wp_obs::enable();
    }

    // A shift scheduled past the end never fires: the stationary run.
    let shift = (shift_after < batches).then_some(shift_after);
    let run_once = || -> Result<(wp_loadgen::StreamReport, String), String> {
        if obs {
            wp_obs::reset();
        }
        let corpus = wp_server::corpus::simulated_corpus(seed, samples);
        let server = wp_server::Server::start(
            corpus,
            wp_server::ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                faults: plan.clone().unwrap_or_default(),
                obs,
                ..wp_server::ServerConfig::default()
            },
        )?;
        let addr = server.addr().to_string();
        let config = wp_loadgen::StreamerConfig {
            addr: addr.clone(),
            rate_hz: rate,
            tenants,
            batches,
            runs_per_batch,
            samples,
            seed,
            shift_after: shift,
            zoo,
            timeout,
        };
        let report = wp_loadgen::run_stream(&config)?;

        // Liveness: the server outlives the stream.
        let health = fetch_until_ok(&addr, "GET", "/healthz", "", timeout, 25)?;
        if !health.contains("\"status\":\"ok\"") {
            server.shutdown();
            return Err(format!("unhealthy after streaming: {health}"));
        }
        // Ledger consistency: the corpus generation counts exactly the
        // batches the server accepted — a faulted batch either fully
        // applied or left no trace.
        let stats_body = fetch_until_ok(&addr, "GET", "/stats", "", timeout, 25)?;
        let stats = Json::parse(&stats_body).map_err(|e| format!("/stats does not parse: {e}"))?;
        let stream_counter = |key: &str| -> f64 {
            stats
                .get("stream")
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(-1.0)
        };
        let generation = stream_counter("generation");
        if generation != stream_counter("ingested_batches") {
            server.shutdown();
            return Err(format!(
                "ledger divergence: generation {generation} != accepted batches {}",
                stream_counter("ingested_batches")
            ));
        }
        if !faulted {
            if report.errors > 0 {
                server.shutdown();
                return Err(format!(
                    "{} batch(es) failed on a fault-free run",
                    report.errors
                ));
            }
            if generation != report.batches_accepted as f64 {
                server.shutdown();
                return Err(format!(
                    "ledger divergence: server generation {generation}, \
                     client accepted {}",
                    report.batches_accepted
                ));
            }
            if shift.is_some() && report.drift_events == 0 {
                server.shutdown();
                return Err("shape-shift scheduled but no drift event fired".to_string());
            }
        }
        let drift_log = fetch_until_ok(&addr, "GET", "/drift", "", timeout, 25)?;
        server.shutdown();
        Ok((report, drift_log))
    };

    println!(
        "streaming {tenants} tenant(s) x {batches} batches ({runs_per_batch} runs each) \
         at {rate} Hz{}",
        match shift {
            Some(s) => format!(", shape-shift at batch {s}"),
            None => ", stationary".to_string(),
        }
    );
    if let Some(p) = plan.as_ref().filter(|p| p.is_enabled()) {
        println!("fault plan: {}", p.render());
    }
    let (mut report, drift_log) = run_once()?;

    if args.switch("verify-determinism") {
        let (_, replay) = run_once()?;
        if drift_log != replay {
            return Err(format!(
                "non-deterministic drift log:\nrun 1: {drift_log}\nrun 2: {replay}"
            ));
        }
        println!("determinism verified: replay produced a byte-identical drift log");
        report.deterministic = Some(true);
    }

    std::fs::write(&out, format!("{}\n", report.to_json()))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "{}/{} batches accepted at {:.1} batches/s; p50 {:.3} ms, p95 {:.3} ms, \
         p99 {:.3} ms; {} drift event(s), {} evicted run(s), generation {} -> {out}",
        report.batches_accepted,
        report.batches_sent,
        report.ingest_rps,
        report.p50_ms,
        report.p95_ms,
        report.p99_ms,
        report.drift_events,
        report.evicted_runs,
        report.generation
    );
    Ok(())
}

/// Benchmarks the `wp-index` pruning cascade against brute-force top-k
/// at one corpus size: the pipeline's Hist-FP/L2,1 setting and the
/// elastic MTS/Dependent-DTW (band 8) setting. Both runs verify that the
/// indexed top-k is byte-identical to brute force before reporting.
fn cmd_index_bench(args: &Args) -> Result<(), String> {
    use wp_bench::indexbench::{fingerprints, run_scenario};
    use wp_index::IndexConfig;
    use wp_similarity::Measure;
    use wp_similarity::Norm;

    let size: usize = args.parsed_or("size", 128)?;
    let queries: usize = args.parsed_or("queries", 8)?;
    let k: usize = args.parsed_or("k", 5)?;
    let samples: usize = args.parsed_or("samples", 60)?;
    if size == 0 || queries == 0 || k == 0 {
        return Err("--size, --queries, and --k must be positive".to_string());
    }
    let mut sim = sim_with_seed(args)?;
    sim.config.samples = samples;

    let scenarios: [(&str, Measure, IndexConfig); 2] = [
        ("Hist-FP", Measure::Norm(Norm::L21), IndexConfig::default()),
        (
            "MTS",
            Measure::DtwDependent,
            IndexConfig {
                band: Some(8),
                ..IndexConfig::default()
            },
        ),
    ];
    let results: Vec<_> = scenarios
        .iter()
        .map(|(scenario, measure, config)| {
            let (corpus, qs) = fingerprints(&sim, size, queries, scenario);
            run_scenario(scenario, *measure, *config, &corpus, &qs, k)
        })
        .collect();

    if args.switch("json") {
        let doc = obj! {
            "experiment" => "index_cascade",
            "corpus_size" => size,
            "queries" => queries,
            "k" => k,
            "exact_topk_verified" => true,
            "results" => Json::Arr(results.iter().map(|r| r.to_json()).collect()),
        };
        println!("{}", doc.pretty());
        return Ok(());
    }

    println!("index cascade vs brute force ({size} fingerprints, {queries} queries, k={k}):");
    for r in &results {
        println!(
            "  {:<8} {:<16} brute {:>8.3} ms  indexed {:>8.3} ms  speedup {:>5.2}x  pruned {:>5.1}%",
            r.scenario,
            r.measure,
            r.brute_ms,
            r.indexed_ms,
            r.speedup(),
            r.stats.pruned_fraction() * 100.0
        );
    }
    println!("top-k verified byte-identical to brute force for both scenarios");
    Ok(())
}

/// Runs the what-if SKU advisor end to end, in process: simulates
/// observed 2-CPU telemetry for a benchmark workload (`--target`) or a
/// scenario-zoo step (`--scenario` + `--step`), posts it to the
/// `POST /recommend` handler over the simulated reference corpus, and
/// prints the SKU ladder — per-SKU predicted throughput with its
/// CV-residual confidence interval and modeling context — plus the
/// recommendation. The pick is then graded against simulator ground
/// truth: the cheapest ladder SKU whose *actual* mean throughput meets
/// the SLO.
fn cmd_recommend(args: &Args) -> Result<(), String> {
    let slo: f64 = args
        .required("slo")?
        .parse()
        .map_err(|_| "--slo: cannot parse".to_string())?;
    if !(slo.is_finite() && slo > 0.0) {
        return Err("--slo must be a positive throughput (req/s)".to_string());
    }
    let samples: usize = args.parsed_or("samples", 60)?;
    let seed: u64 = args.parsed_or("seed", DEFAULT_SEED)?;
    let step: usize = args.parsed_or("step", 0)?;

    let (spec, label) = match (args.get("target"), args.get("scenario")) {
        (Some(_), Some(_)) => return Err("give --target or --scenario, not both".to_string()),
        (Some(name), None) => (workload_by_name(name)?, name.to_string()),
        (None, Some(name)) => {
            let scenario = wp_workloads::zoo::by_name(seed, name).ok_or_else(|| {
                let names: Vec<String> = wp_workloads::zoo::paper_zoo(seed)
                    .iter()
                    .map(|s| s.name.clone())
                    .collect();
                format!(
                    "unknown scenario '{name}' (available: {})",
                    names.join(", ")
                )
            })?;
            (scenario.spec_at(step), format!("{name} @ step {step}"))
        }
        (None, None) => return Err("missing --target or --scenario".to_string()),
    };
    let terminals = *paper_terminals(&spec).first().unwrap();

    // Observed telemetry: three runs on the 2-CPU SKU.
    let mut sim = Simulator::new(seed);
    sim.config.samples = samples;
    let observed_sku = Sku::new("cpu2", 2, 64.0);
    let observed: Vec<_> = (0..3)
        .map(|r| sim.simulate(&spec, &observed_sku, terminals, r, r % 3))
        .collect();
    let body = format!(
        "{{\"slo\":{slo},\"runs\":{}}}",
        wp_telemetry::io::runs_to_json(&observed)
    );

    let corpus = wp_server::corpus::simulated_corpus(seed, samples);
    let defaults = wp_server::ServerConfig::default();
    let state = wp_server::service::ServiceState::new(
        corpus,
        defaults.pipeline,
        None,
        defaults.cache_capacity,
        defaults.stream,
    )?;
    let req = wp_server::http::Request {
        method: "POST".to_string(),
        path: "/recommend".to_string(),
        body,
        keep_alive: false,
    };
    let (status, response) = wp_server::service::handle(&state, &req);
    if status != 200 {
        return Err(format!("/recommend failed with {status}: {response}"));
    }
    let doc = Json::parse(&response).map_err(|e| format!("response does not parse: {e}"))?;

    // Ground truth: the simulator's actual mean throughput on each
    // ladder SKU, and the cheapest SKU that really meets the SLO.
    let actuals: Vec<(String, f64)> = Sku::paper_grid()
        .iter()
        .map(|sku| {
            let mean = wp_linalg::stats::mean(
                &(0..3)
                    .map(|r| sim.simulate(&spec, sku, terminals, r, r % 3).throughput)
                    .collect::<Vec<_>>(),
            );
            (sku.name.clone(), mean)
        })
        .collect();
    let truth = actuals
        .iter()
        .find(|(_, t)| *t >= slo)
        .map(|(n, _)| n.clone());

    if args.switch("json") {
        let mut full = doc.clone();
        if let Json::Obj(pairs) = &mut full {
            pairs.push((
                "ground_truth".to_string(),
                obj! {
                    "cheapest_meeting_sku" => truth
                        .as_deref()
                        .map_or(Json::Null, Json::from),
                    "actual_throughput" => Json::Arr(
                        actuals
                            .iter()
                            .map(|(n, t)| obj! { "sku" => n.clone(), "throughput" => *t })
                            .collect(),
                    ),
                },
            ));
        }
        println!("{}", full.pretty());
        return Ok(());
    }

    let str_of = |d: &Json, key: &str| d.get(key).and_then(Json::as_str).map(str::to_string);
    let num_of = |d: &Json, key: &str| d.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "what-if recommendation for {label} (observed on {}, {} terminals, SLO {slo} req/s):",
        observed_sku, terminals
    );
    println!(
        "  most similar reference: {} ({} context)",
        str_of(&doc, "most_similar").unwrap_or_default(),
        str_of(&doc, "context").unwrap_or_default()
    );
    println!(
        "  observed: {:>10.1} req/s @ {:.2} ms",
        num_of(&doc, "observed_throughput"),
        num_of(&doc, "observed_latency_ms")
    );
    if let Some(Json::Arr(candidates)) = doc.get("candidates") {
        for c in candidates {
            println!(
                "  {:<6} {:>10.1} req/s  [{:>9.1}, {:>9.1}]  {:>7.2} ms  {:<8} {}",
                str_of(c, "sku").unwrap_or_default(),
                num_of(c, "predicted_throughput"),
                num_of(c, "ci_lower"),
                num_of(c, "ci_upper"),
                num_of(c, "predicted_latency_ms"),
                str_of(c, "context").unwrap_or_default(),
                if c.get("meets_slo") == Some(&Json::Bool(true)) {
                    "meets SLO"
                } else {
                    "below SLO"
                }
            );
        }
    }
    let picked = str_of(&doc, "recommended");
    println!(
        "  recommended: {}",
        picked
            .as_deref()
            .unwrap_or("none (SLO unreachable on the ladder)")
    );
    println!(
        "  ground truth: {} (simulator actuals: {})",
        truth.as_deref().unwrap_or("none"),
        actuals
            .iter()
            .map(|(n, t)| format!("{n} {t:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if picked == truth {
        println!("  verdict: recommendation matches ground truth");
    } else {
        println!("  verdict: recommendation differs from ground truth");
    }
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    let target = workload_by_name(args.required("target")?)?;
    let from = parse_sku(args.required("from")?)?;
    let to = parse_sku(args.required("to")?)?;
    let terminals: usize =
        args.parsed_or("terminals", *paper_terminals(&target).first().unwrap())?;
    let mut pipeline = Pipeline::new(args.parsed_or("seed", DEFAULT_SEED)?);
    pipeline.config.selection = Strategy::FAnova;

    let references: Vec<WorkloadSpec> = benchmarks::standardized()
        .into_iter()
        .filter(|w| w.name != target.name)
        .collect();
    let outcome = pipeline.run(&references, &target, &from, &to, terminals);

    println!(
        "end-to-end prediction: {} from {} to {}",
        target.name, from, to
    );
    println!("  most similar reference: {}", outcome.most_similar);
    println!(
        "  observed  @{}: {:>10.1} req/s",
        from.name, outcome.observed_throughput
    );
    println!(
        "  predicted @{}: {:>10.1} req/s",
        to.name, outcome.predicted_throughput
    );
    println!(
        "  actual    @{}: {:>10.1} req/s (simulator ground truth)",
        to.name, outcome.actual_throughput
    );
    println!("  error: {:.1} %", outcome.mape * 100.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sku_parsing() {
        assert_eq!(parse_sku("cpu8").unwrap().cpus, 8);
        assert_eq!(parse_sku("s1").unwrap().memory_gb, 32.0);
        let custom = parse_sku("12x96").unwrap();
        assert_eq!(custom.cpus, 12);
        assert_eq!(custom.memory_gb, 96.0);
        assert!(parse_sku("banana").is_err());
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(parse_strategy("fanova").unwrap().label(), "fANOVA");
        assert_eq!(parse_strategy("rfe-logreg").unwrap().label(), "RFE LogReg");
        assert!(parse_strategy("sfs-warp").is_err());
    }

    #[test]
    fn unknown_subcommand_is_error() {
        let argv: Vec<String> = vec!["frobnicate".into()];
        assert!(run(&argv).is_err());
    }

    #[test]
    fn unknown_workload_is_error() {
        assert!(workload_by_name("NoSuchBench").is_err());
        assert!(workload_by_name("TPC-C").is_ok());
    }

    #[test]
    fn workloads_subcommand_runs() {
        let argv: Vec<String> = vec!["workloads".into()];
        assert!(run(&argv).is_ok());
    }

    #[test]
    fn trace_subcommand_runs_and_reports_spans() {
        let argv: Vec<String> = ["trace", "--samples", "20", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&argv).is_ok());
        // The command left the registry populated: the endpoint series
        // it drove must be visible in a snapshot.
        let text = wp_obs::snapshot().render_prometheus();
        let parsed = wp_obs::parse_prometheus(&text).expect("exposition must parse");
        assert!(parsed
            .iter()
            .any(|(name, v)| name.starts_with("wp_server_requests_total{") && *v > 0.0));
        assert!(parsed
            .iter()
            .any(|(name, v)| name.starts_with("wp_server_request_count{") && *v > 0.0));
    }

    #[test]
    fn recommend_subcommand_runs_for_targets_and_scenarios() {
        let ok: Vec<String> = [
            "recommend",
            "--slo",
            "10",
            "--target",
            "YCSB",
            "--samples",
            "20",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(run(&ok), Ok(()));

        let zoo: Vec<String> = [
            "recommend",
            "--slo",
            "10",
            "--scenario",
            "ycsb-shifting",
            "--step",
            "4",
            "--samples",
            "20",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(run(&zoo), Ok(()));

        // Errors: missing SLO, bad SLO, unknown scenario, both sources.
        let cases: [&[&str]; 4] = [
            &["recommend", "--target", "YCSB"],
            &["recommend", "--slo", "-4", "--target", "YCSB"],
            &["recommend", "--slo", "10", "--scenario", "nope"],
            &[
                "recommend",
                "--slo",
                "10",
                "--target",
                "YCSB",
                "--scenario",
                "ycsb-shifting",
            ],
        ];
        for argv in cases {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            assert!(run(&argv).is_err(), "{argv:?} should fail");
        }
    }

    #[test]
    fn index_bench_subcommand_runs_and_validates() {
        let argv: Vec<String> = [
            "index-bench",
            "--size",
            "8",
            "--queries",
            "2",
            "--samples",
            "20",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(run(&argv).is_ok());
        let bad: Vec<String> = ["index-bench", "--k", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&bad).is_err());
    }
}
