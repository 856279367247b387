//! `wp` — command-line interface for the workload-prediction pipeline.
//!
//! ```text
//! wp workloads                                   list the benchmark catalog
//! wp simulate  --workload TPC-C --sku cpu8       run one simulated experiment
//! wp select    --strategy fanova --top 7         rank telemetry features
//! wp similar   --target YCSB --sku cpu2          find similar workloads
//! wp predict   --target YCSB --from cpu2 --to cpu8   end-to-end prediction
//! wp serve     --addr 127.0.0.1:0 --threads 4    HTTP prediction service
//! ```
//!
//! Every command accepts `--seed <u64>` (default `0xEDB72025`) and
//! `simulate` accepts `--json` for machine-readable output.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
