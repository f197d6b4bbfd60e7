//! Regenerates Figure 2: normalized total weighted benefit of the 24
//! work sets under the busy / not-busy / idle server scenarios.
//!
//! Usage: `cargo run --release -p rto-bench --bin figure2 [seed] [--json]
//! [--jobs N] [--cache]`

use rto_bench::figure2::{run_with, scenario_means};
use rto_bench::opts::FIGURE2;
use rto_bench::report::{text_table, write_json_lines};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = FIGURE2.parse(std::env::args().skip(1))?;
    let json = args.switch("--json");
    let seed = args.seed.unwrap_or(2014);

    let opts = args.exp_options()?;
    eprintln!("figure2: case study, 24 work sets x 3 scenarios, 10 s horizon, seed {seed}");
    let rows = run_with(seed, 10, &opts)?;

    if json {
        write_json_lines(&rows, std::io::stdout().lock())?;
        return Ok(());
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.work_set.to_string(),
                format!(
                    "{:?}",
                    r.weights.map(|w| w.clamp(0.0, u64::MAX as f64) as u64)
                ),
                r.scenario.to_string(),
                format!("{:.3}", r.normalized_benefit),
                r.tasks_offloaded.to_string(),
                r.remote_jobs.to_string(),
                r.compensated_jobs.to_string(),
                r.deadline_misses.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "work_set",
                "weights",
                "scenario",
                "norm_benefit",
                "offloaded",
                "remote",
                "compensated",
                "misses"
            ],
            &table_rows
        )
    );
    println!("Per-scenario mean normalized benefit (paper Figure 2 ordering):");
    for (scenario, mean) in scenario_means(&rows) {
        println!("  {scenario:>8}: {mean:.3}");
    }
    let misses: usize = rows.iter().map(|r| r.deadline_misses).sum();
    println!("Total deadline misses across all runs: {misses} (must be 0)");
    Ok(())
}
