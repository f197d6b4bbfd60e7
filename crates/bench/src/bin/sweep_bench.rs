//! Serial-vs-parallel wall-clock benchmark of the case-study sweep on
//! the `rto-exp` engine, plus the determinism cross-check: the parallel
//! rows must serialize **byte-identically** to the serial rows, or the
//! binary fails.
//!
//! Writes a `BENCH_sweep.json` summary with the speedup and the core
//! count it ran on; `scripts/bench_trend` holds the speedup to its
//! bound in `bench.budget.toml` on hosts with enough cores.
//!
//! Usage: `cargo run --release -p rto-bench --bin sweep_bench [seed]
//! [--jobs N] [--seeds K] [--horizon H] [--out PATH]`

use rto_bench::opts::SWEEP_BENCH;
use rto_bench::report::write_json_lines;
use rto_bench::sweep::{default_grid, run_with, SweepRow};
use rto_core::time::Duration;
use rto_exp::ExpOptions;
use rto_obs::Stopwatch;

fn serialized(rows: &[SweepRow]) -> Result<Vec<u8>, Box<dyn std::error::Error>> {
    let mut buf = Vec::new();
    write_json_lines(rows, &mut buf)?;
    Ok(buf)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = SWEEP_BENCH.parse(std::env::args().skip(1))?;
    let seed = args.seed.unwrap_or(2014);
    let jobs: usize = args.parsed("--jobs")?.unwrap_or(4);
    let seeds: u64 = args.parsed("--seeds")?.unwrap_or(20);
    let horizon: u64 = args.parsed("--horizon")?.unwrap_or(300);
    let out = args.value("--out").unwrap_or("BENCH_sweep.json");

    let grid = default_grid();
    eprintln!(
        "sweep_bench: {} points x {seeds} seeds x {horizon} s, serial then --jobs {jobs}",
        grid.len()
    );

    // Timing runs never touch the cache: both runs must pay the full
    // simulation cost for the ratio to mean anything.
    let serial_opts = ExpOptions {
        jobs: 1,
        ..ExpOptions::default()
    };
    let sw = Stopwatch::start();
    let serial = run_with(&grid, seeds, horizon, seed, &serial_opts)?;
    let serial_ms = Duration::from_ns(sw.elapsed_ns()).as_ms_f64();

    let parallel_opts = ExpOptions {
        jobs,
        ..ExpOptions::default()
    };
    let sw = Stopwatch::start();
    let parallel = run_with(&grid, seeds, horizon, seed, &parallel_opts)?;
    let parallel_ms = Duration::from_ns(sw.elapsed_ns()).as_ms_f64();

    let identical = serialized(&serial.rows)? == serialized(&parallel.rows)?;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let speedup = if parallel_ms > 0.0 {
        serial_ms / parallel_ms
    } else {
        0.0
    };

    let summary = format!(
        concat!(
            "{{\"name\":\"sweep\",\"points\":{},\"trials_per_point\":{},",
            "\"horizon_secs\":{},\"base_seed\":{},\"jobs\":{},\"cores\":{},",
            "\"serial_ms\":{:.3},\"parallel_ms\":{:.3},\"speedup\":{:.3},",
            "\"identical\":{}}}"
        ),
        grid.len(),
        seeds,
        horizon,
        seed,
        jobs,
        cores,
        serial_ms,
        parallel_ms,
        speedup,
        identical
    );
    std::fs::write(out, format!("{summary}\n"))?;
    println!("{summary}");
    eprintln!("sweep_bench: speedup {speedup:.2}x, identical={identical}, wrote {out}");

    if !identical {
        return Err("parallel rows diverged from serial rows".into());
    }
    Ok(())
}
