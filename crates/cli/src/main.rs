//! `wp` — command-line interface for the workload-prediction pipeline.
//!
//! ```text
//! wp workloads                                   list the benchmark catalog
//! wp simulate  --workload TPC-C --sku cpu8       run one simulated experiment
//! wp select    --strategy fanova --top 7         rank telemetry features
//! wp similar   --target YCSB --sku cpu2          find similar workloads
//! wp predict   --target YCSB --from cpu2 --to cpu8   end-to-end prediction
//! wp serve     --addr 127.0.0.1:0 --threads 4    HTTP prediction service
//! wp loadgen   --addr 127.0.0.1:8080             drive a running server
//! ```
//!
//! Every command accepts `--seed <u64>` (default `0xEDB72025`) and
//! `simulate` accepts `--json` for machine-readable output.

mod args;
mod commands;
mod loadgen;

use std::process::ExitCode;

use args::CliError;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
