//! `rto-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON object as the last line:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits
//! non-zero, printing no result, on bad arguments or a failed set-up.

use rto_perfbench::harness::{print_result, Args};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    // Span files and the cache pass's scratch directory live under the
    // build's target directory: <target>/release/<exe> → <target>/perfbench.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = exe
        .parent()
        .and_then(|p| p.parent())
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
        .join("perfbench");
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rto-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );
    match rto_perfbench::run(&args) {
        Ok(outcome) => {
            print_result(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rto-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
