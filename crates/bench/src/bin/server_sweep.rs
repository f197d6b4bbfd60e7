//! Beyond the paper: sweeps the GPU server's background utilization
//! continuously and plots how the case study's realized benefit decays
//! from the idle regime to the compensation floor — the curve on which
//! Figure 2's three scenarios are points.
//!
//! Usage: `cargo run --release -p rto-bench --bin server_sweep [seed]
//! [--json] [--jobs N] [--cache]`

use rto_bench::opts::SERVER_SWEEP;
use rto_bench::report::{text_table, write_json_lines};
use rto_bench::sweep::{default_grid, run_with};
use rto_core::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = SERVER_SWEEP.parse(std::env::args().skip(1))?;
    let json = args.switch("--json");
    let seed = args.seed.unwrap_or(2014);

    let opts = args.exp_options()?;
    eprintln!("server_sweep: background utilization 0.0..1.2, 5 seeds x 10 s per point");
    let sweep = run_with(&default_grid(), 5, 10, seed, &opts)?;
    eprintln!(
        "server_sweep: {} trials ({} simulated, {} cached) in {:.1} ms",
        sweep.stats.trials_total,
        sweep.stats.trials_simulated,
        sweep.stats.trials_cached,
        Duration::from_ns(sweep.stats.wall_ns).as_ms_f64()
    );
    let rows = sweep.rows;

    if json {
        write_json_lines(&rows, std::io::stdout().lock())?;
        return Ok(());
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.background_utilization),
                format!("{:.3}", r.normalized_benefit),
                format!("{:.3}", r.remote_rate),
                r.deadline_misses.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &["bg_util", "norm_benefit", "remote_rate", "misses"],
            &table
        )
    );
    println!(
        "(the paper's scenarios sit at ~0.95 (busy), ~0.68 (not-busy), 0.0 (idle);\n\
         misses stay 0 at every load — the compensation guarantee)"
    );
    Ok(())
}
