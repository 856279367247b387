//! How `wp` reports a failed command: a usage error (an unknown
//! subcommand or flag, a missing or malformed value) prints its `error:`
//! line and then the usage text; a failure while running a well-formed
//! command prints its `error:` line alone.

use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::sync::Arc;

/// Runs `wp` with `args`: whether it exited 0, and its stderr.
fn wp(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wp"))
        .args(args)
        .env_remove("WP_FAULTS")
        .output()
        .expect("wp runs");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    (out.status.success(), stderr)
}

fn assert_usage_error(args: &[&str], cause: &str) {
    let (ok, stderr) = wp(args);
    assert!(!ok, "{args:?} must fail");
    assert!(
        stderr.starts_with(&format!("error: {cause}\n\nusage:\n")),
        "{args:?}: {stderr}"
    );
}

fn assert_one_line_error(args: &[&str], cause: &str) {
    let (ok, stderr) = wp(args);
    assert!(!ok, "{args:?} must fail");
    assert!(
        stderr.starts_with(&format!("error: {cause}")) && stderr.lines().count() == 1,
        "{args:?}: {stderr}"
    );
}

#[test]
fn unknown_subcommand_prints_the_usage() {
    assert_usage_error(&["frobnicate"], "unknown subcommand 'frobnicate'");
}

#[test]
fn unknown_flag_prints_the_usage() {
    assert_usage_error(
        &[
            "simulate",
            "--workload",
            "YCSB",
            "--sku",
            "cpu8",
            "--terminalz",
            "64",
        ],
        "unknown flag --terminalz",
    );
    assert_usage_error(
        &["loadgen", "--mode", "ramp"],
        "unknown --mode 'ramp' (use closed-loop, step or streamer)",
    );
}

#[test]
fn missing_value_prints_the_usage() {
    assert_usage_error(&["simulate", "--sku", "cpu8"], "missing --workload");
    assert_usage_error(&["trace", "--seed"], "--seed needs a value");
}

#[test]
fn malformed_value_prints_the_usage() {
    assert_usage_error(
        &["simulate", "--workload", "YCSB", "--sku", "banana"],
        "unknown SKU 'banana'",
    );
    assert_usage_error(
        &["chaos", "--timeout", "-1"],
        "--timeout: not a non-negative number of seconds: '-1'",
    );
    assert_usage_error(
        &[
            "loadgen",
            "--mode",
            "step",
            "--addr",
            "127.0.0.1:9",
            "--steps",
            "0",
        ],
        "--steps: not a positive integer: '0'",
    );
}

#[test]
fn runtime_failures_print_one_line() {
    let missing = format!("{}/no-such-corpus.json", env!("CARGO_TARGET_TMPDIR"));
    assert_one_line_error(
        &["serve", "--corpus", &missing],
        &format!("cannot read corpus file '{missing}'"),
    );

    // A one-connection ramp against a port nothing listens on. The
    // message gives the failure's class and the socket's own words.
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("a free port")
        .port();
    let refused = TcpStream::connect(("127.0.0.1", port)).expect_err("nothing listens");
    let out = format!("{}/BENCH_scaling.json", env!("CARGO_TARGET_TMPDIR"));
    assert_one_line_error(
        &[
            "loadgen",
            "--mode",
            "step",
            "--addr",
            &format!("127.0.0.1:{port}"),
            "--steps",
            "1",
            "--warmup",
            "0",
            "--step-duration",
            "0.2",
            "--out",
            &out,
        ],
        &format!("prefetch /healthz failed: reset ({refused})\n"),
    );
}

/// A corpus file whose run has 6 resource columns fails the corpus check
/// at load: one `error:` line and exit code 1, not a panic in feature
/// selection.
#[test]
fn a_corpus_run_of_the_wrong_shape_is_one_error_line() {
    let mut corpus = wp_server::corpus::simulated_corpus(7, 20);
    let run = &mut Arc::make_mut(&mut corpus.references[0]).runs_from[0];
    run.resources.data = run.resources.data.select_cols(&[0, 1, 2, 3, 4, 5]);
    let path = format!("{}/six-column-corpus.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, wp_server::corpus::corpus_to_json(&corpus)).expect("corpus written");

    let out = Command::new(env!("CARGO_BIN_EXE_wp"))
        .args(["serve", "--addr", "127.0.0.1:0", "--corpus", &path])
        .env_remove("WP_FAULTS")
        .output()
        .expect("wp runs");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "error: TPC-C: runs_from[0]: resource series must have 7 columns, got 6\n"
    );
}
