//! `wp loadgen`: drives a running server with the `wp-loadgen` engine
//! and writes the mode's BENCH report. Also home to the flag parsing of
//! the engine's two configurations, which `wp chaos` and `wp stream`
//! reuse with their own defaults.

use wp_json::{obj, Json};
use wp_loadgen::{LoadConfig, StreamerConfig};

use crate::args::{usage, Args, CliError};

/// The ramp's connection counts when `--steps` is not given.
const DEFAULT_STEPS: [usize; 6] = [32, 64, 128, 256, 512, 1024];

/// Flags every `wp loadgen` mode takes.
const COMMON_FLAGS: [&str; 6] = ["mode", "addr", "seed", "samples", "timeout", "out"];

/// Runs the mode `--mode` names: the closed loop (`closed-loop`, the
/// default), the stepped ramp (`step`) or the ingest streamer
/// (`streamer`). Fails when any request failed or none completed, so CI
/// can gate on the exit code.
pub fn cmd_loadgen(args: &Args) -> Result<(), CliError> {
    match args.get("mode").unwrap_or("closed-loop") {
        "closed-loop" => closed_loop(args),
        "step" => step(args),
        "streamer" => streamer(args),
        other => Err(usage(format!(
            "unknown --mode '{other}' (use closed-loop, step or streamer)"
        ))),
    }
}

/// The closed loop's flags over `defaults`. `wp loadgen` (closed loop
/// and ramp) and `wp chaos` read their configuration here.
pub fn load_config(args: &Args, defaults: LoadConfig) -> Result<LoadConfig, CliError> {
    let requests_per_connection = match args.get("requests") {
        Some(_) => Some(args.positive_or("requests", 1)?),
        None => defaults.requests_per_connection,
    };
    Ok(LoadConfig {
        addr: args.get("addr").map_or(defaults.addr, str::to_string),
        connections: args.positive_or("connections", defaults.connections)?,
        warmup: args.seconds_or("warmup", defaults.warmup)?,
        measure: args.seconds_or("duration", defaults.measure)?,
        seed: args.parsed_or("seed", defaults.seed)?,
        timeout: args.seconds_or("timeout", defaults.timeout)?,
        retries: args.parsed_or("retries", defaults.retries)?,
        requests_per_connection,
    })
}

/// The streamer's flags over `defaults`. `wp loadgen --mode streamer`
/// and `wp stream` read their configuration here.
pub fn streamer_config(args: &Args, defaults: StreamerConfig) -> Result<StreamerConfig, CliError> {
    let rate_hz: f64 = args.parsed_or("rate", defaults.rate_hz)?;
    if !(rate_hz.is_finite() && rate_hz > 0.0) {
        return Err(usage(format!(
            "--rate must be a positive number of batches per second, got {rate_hz}"
        )));
    }
    let shift_after = match args.get("shift-after") {
        Some(_) => Some(args.parsed_or("shift-after", 0)?),
        None => defaults.shift_after,
    };
    Ok(StreamerConfig {
        addr: args.get("addr").map_or(defaults.addr, str::to_string),
        rate_hz,
        tenants: args.positive_or("tenants", defaults.tenants)?,
        batches: args.positive_or("batches", defaults.batches)?,
        runs_per_batch: args.positive_or("runs-per-batch", defaults.runs_per_batch)?,
        samples: args.positive_or("samples", defaults.samples)?,
        seed: args.parsed_or("seed", defaults.seed)?,
        shift_after,
        zoo: defaults.zoo || args.switch("zoo"),
        timeout: args.seconds_or("timeout", defaults.timeout)?,
    })
}

/// Writes a rendered report and its trailing newline to `path`.
pub fn write_report(path: &str, doc: &str) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The closed loop against `--addr`, into `BENCH_server.json`.
/// `--requests N` switches each connection to a fixed request count;
/// `--metrics-out FILE` scrapes `/metrics` afterwards.
fn closed_loop(args: &Args) -> Result<(), CliError> {
    let extra = [
        "connections",
        "warmup",
        "duration",
        "retries",
        "requests",
        "metrics-out",
    ];
    args.only(&[&COMMON_FLAGS[..], &extra].concat(), &[])?;
    args.required("addr")?;
    let config = load_config(args, LoadConfig::default())?;
    let samples = args.positive_or("samples", 60)?;
    let out = args.get("out").unwrap_or("BENCH_server.json");

    let mix = wp_loadgen::default_mix(config.seed, samples);
    println!(
        "{} connections against http://{} ({}s warmup + {}s measurement)",
        config.connections,
        config.addr,
        config.warmup.as_secs_f64(),
        config.measure.as_secs_f64()
    );
    let report = wp_loadgen::run_load(&config, &mix)?;
    write_report(out, &report.to_json())?;
    println!(
        "{} requests, {} errors, {:.1} req/s; p50 {:.3} ms, p95 {:.3} ms, \
         p99 {:.3} ms, max {:.3} ms -> {out}",
        report.requests,
        report.errors,
        report.throughput_rps,
        report.p50_ms,
        report.p95_ms,
        report.p99_ms,
        report.max_ms
    );
    if report.errors > 0 {
        return Err(format!("{} request(s) failed", report.errors).into());
    }
    if report.requests == 0 {
        return Err(CliError::Runtime(
            "measurement phase completed zero requests".into(),
        ));
    }
    if let Some(path) = args.get("metrics-out") {
        let indexed_body = mix
            .iter()
            .find(|e| e.path == "/similar")
            .map(|e| e.body.replacen('{', "{\"mode\":\"indexed\",\"k\":3,", 1));
        scrape_metrics(&config, report.requests, indexed_body.as_deref(), path)?;
    }
    Ok(())
}

/// The stepped ramp against `--addr`, into `BENCH_scaling.json`: one
/// closed-loop run per `--steps` entry, `--step-duration` seconds each,
/// every response byte-validated. Fails when any step saw an error, a
/// validation failure or no request.
fn step(args: &Args) -> Result<(), CliError> {
    let extra = ["steps", "warmup", "step-duration"];
    args.only(&[&COMMON_FLAGS[..], &extra].concat(), &[])?;
    args.required("addr")?;
    let mut config = load_config(args, LoadConfig::default())?;
    config.measure = args.seconds_or("step-duration", config.measure)?;
    let steps = match args.get("steps") {
        None => DEFAULT_STEPS.to_vec(),
        Some(list) => list
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| usage(format!("--steps: not a positive integer: '{part}'")))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let samples = args.positive_or("samples", 30)?;
    let out = args.get("out").unwrap_or("BENCH_scaling.json");

    println!(
        "stepped load {steps:?} against http://{} ({}s warmup, {}s per step)",
        config.addr,
        config.warmup.as_secs_f64(),
        config.measure.as_secs_f64()
    );
    let mix = wp_loadgen::validated_mix(config.seed, samples);
    let report = wp_loadgen::run_steps(&config, &steps, &mix)?;
    write_report(out, &report.to_json())?;
    let mut failed = false;
    for step in &report.steps {
        println!(
            "step {:>5} conns: {} requests, {} errors, {} validation failures, \
             {:.1} req/s; p50 {:.3} ms, p99 {:.3} ms",
            step.connections,
            step.requests,
            step.errors,
            step.validation_failures,
            step.throughput_rps,
            step.p50_ms,
            step.p99_ms
        );
        failed |= step.errors > 0 || step.validation_failures > 0 || step.requests == 0;
    }
    println!("scaling curve -> {out}");
    if failed {
        return Err(CliError::Runtime(
            "a step saw errors, validation failures, or zero requests".into(),
        ));
    }
    Ok(())
}

/// The ingest streamer against `--addr`, into `BENCH_stream.json`.
/// Fails when any batch failed or none was accepted.
fn streamer(args: &Args) -> Result<(), CliError> {
    let extra = [
        "rate",
        "tenants",
        "batches",
        "runs-per-batch",
        "shift-after",
    ];
    args.only(&[&COMMON_FLAGS[..], &extra].concat(), &["zoo"])?;
    args.required("addr")?;
    let config = streamer_config(args, StreamerConfig::default())?;
    let out = args.get("out").unwrap_or("BENCH_stream.json");

    println!(
        "streaming {} tenants x {} batches at {} Hz into http://{}/ingest",
        config.tenants, config.batches, config.rate_hz, config.addr
    );
    let report = wp_loadgen::run_stream(&config)?;
    write_report(out, &report.to_json())?;
    println!(
        "{}/{} batches accepted, {:.1} batches/s sustained; p50 {:.3} ms, \
         p95 {:.3} ms, p99 {:.3} ms; {} drift event(s), {} evicted run(s) -> {out}",
        report.batches_accepted,
        report.batches_sent,
        report.ingest_rps,
        report.p50_ms,
        report.p95_ms,
        report.p99_ms,
        report.drift_events,
        report.evicted_runs
    );
    if report.errors > 0 {
        return Err(format!("{} ingest batch(es) failed", report.errors).into());
    }
    if report.batches_accepted == 0 {
        return Err(CliError::Runtime("no ingest batch was accepted".into()));
    }
    Ok(())
}

/// Scrapes `GET /metrics`, validates the exposition against the run
/// that just finished, and writes the parsed series to `path` as a
/// self-describing experiment document. Fails loudly — a server without
/// `--obs` answers 404, a mis-rendered exposition fails the parse, a
/// request histogram whose `+Inf` buckets disagree with its counts fails
/// the sum check, and a registry that did not see this run's traffic
/// fails the floors.
///
/// The default mix ranks exhaustively, so when an indexed `/similar`
/// body is supplied, one is issued first: the scrape then asserts the
/// pruning-cascade counters moved too.
fn scrape_metrics(
    config: &LoadConfig,
    requests: u64,
    indexed_body: Option<&str>,
    path: &str,
) -> Result<(), String> {
    let addr = config.addr.as_str();
    if let Some(body) = indexed_body {
        let (status, _) = wp_loadgen::fetch(addr, "POST", "/similar", body, config.timeout)
            .map_err(|failure| format!("indexed /similar probe failed: {failure}"))?;
        if !(200..300).contains(&status) {
            return Err(format!("indexed /similar probe answered {status}"));
        }
    }
    let (status, body) = wp_loadgen::fetch(addr, "GET", "/metrics", "", config.timeout)
        .map_err(|failure| format!("GET /metrics failed: {failure}"))?;
    if status != 200 {
        return Err(format!(
            "GET /metrics answered {status} — is the server running with --obs?"
        ));
    }
    let series = wp_obs::parse_prometheus(&body)?;
    let sum_of = |family: &str| -> f64 {
        series
            .iter()
            .filter(|(name, _)| name == family || name.starts_with(&format!("{family}{{")))
            .map(|(_, v)| v)
            .sum()
    };
    // The scrape itself is one more request, hence strictly-greater.
    let counted = sum_of("wp_server_requests_total");
    if counted < requests as f64 {
        return Err(format!(
            "wp_server_requests_total counted {counted} requests, \
             but this run alone issued {requests}"
        ));
    }
    // The request histogram's `+Inf` buckets count what its `_count`
    // lines count: every request the server has recorded.
    let bucketed: f64 = series
        .iter()
        .filter(|(name, _)| {
            name.starts_with("wp_server_request_ns_bucket{") && name.ends_with(",le=\"+Inf\"}")
        })
        .map(|(_, v)| v)
        .sum();
    let spanned = sum_of("wp_server_request_count");
    if bucketed != spanned {
        return Err(format!(
            "wp_server_request_ns_bucket{{le=\"+Inf\"}} counted {bucketed} requests, \
             but wp_server_request_count counted {spanned}"
        ));
    }
    let mut floors = vec!["wp_server_connections_total", "wp_server_request_count"];
    if indexed_body.is_some() {
        floors.push("wp_index_searches_total");
    }
    for family in floors {
        if sum_of(family) <= 0.0 {
            return Err(format!("metrics series {family} is missing or zero"));
        }
    }

    let doc = obj! {
        "experiment" => "server_obs",
        "addr" => addr,
        "loadgen_requests" => requests as f64,
        "series" => Json::Arr(
            series
                .iter()
                .map(|(name, value)| obj! { "name" => name.clone(), "value" => *value })
                .collect(),
        ),
    };
    write_report(path, &doc.pretty())?;
    println!(
        "/metrics scrape ok ({} series, {counted} requests counted) -> {path}",
        series.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv).unwrap()
    }

    #[test]
    fn each_mode_keeps_its_defaults() {
        let closed = load_config(&args(&[]), LoadConfig::default()).unwrap();
        assert_eq!(closed.connections, 4);
        assert_eq!(closed.retries, 3);
        assert_eq!(closed.requests_per_connection, None);
        let streamed = streamer_config(&args(&[]), StreamerConfig::default()).unwrap();
        assert_eq!(streamed.rate_hz, 40.0);
        assert_eq!(streamed.shift_after, None);
        let set = load_config(
            &args(&["--requests", "60", "--warmup", "0.5", "--retries", "0"]),
            LoadConfig::default(),
        )
        .unwrap();
        assert_eq!(set.requests_per_connection, Some(60));
        assert_eq!(set.warmup, std::time::Duration::from_millis(500));
        assert_eq!(set.retries, 0);
    }

    #[test]
    fn out_of_range_values_are_rejected_before_any_work() {
        // No server listens on port 9: a check that ran after connecting
        // would fail for the wrong reason.
        for argv in [
            &["--addr", "127.0.0.1:9", "--connections", "0"][..],
            &["--addr", "127.0.0.1:9", "--warmup", "-1"],
            &["--addr", "127.0.0.1:9", "--requests", "0"],
            &["--addr", "127.0.0.1:9", "--timeout", "nan"],
            &["--addr", "127.0.0.1:9", "--conections", "4"],
            &["--addr", "127.0.0.1:9", "--mode", "step", "--steps", "1,0"],
            &[
                "--addr",
                "127.0.0.1:9",
                "--mode",
                "step",
                "--connections",
                "4",
            ],
            &[
                "--addr",
                "127.0.0.1:9",
                "--mode",
                "streamer",
                "--rate",
                "nan",
            ],
            &[
                "--addr",
                "127.0.0.1:9",
                "--mode",
                "streamer",
                "--tenants",
                "0",
            ],
            &[
                "--addr",
                "127.0.0.1:9",
                "--mode",
                "streamer",
                "--requests",
                "4",
            ],
            &["--addr", "127.0.0.1:9", "--mode", "open-loop"],
            &["--connections", "4"],
        ] {
            let err = cmd_loadgen(&args(argv)).expect_err("must be rejected");
            assert!(matches!(err, CliError::Usage(_)), "{argv:?}: {err:?}");
        }
    }
}
