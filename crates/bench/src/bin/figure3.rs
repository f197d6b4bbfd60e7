//! Regenerates Figure 3: normalized total benefit versus estimation
//! accuracy ratio, DP versus HEU-OE.
//!
//! Usage: `cargo run --release -p rto-bench --bin figure3 [seed] [--seeds N]
//! [--json] [--jobs N] [--cache]`

use rto_bench::figure3::{paper_ratios, run_with_opts};
use rto_bench::opts::FIGURE3;
use rto_bench::report::{text_table, write_json_lines};
use rto_workloads::random::RandomSystemParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = FIGURE3.parse(std::env::args().skip(1))?;
    let json = args.switch("--json");
    let seed = args.seed.unwrap_or(2014);
    let num_seeds: usize = args.parsed("--seeds")?.unwrap_or(50);

    eprintln!(
        "figure3: 30-task random systems, {num_seeds} seeds from {seed}, \
         ratios -40%..+40%"
    );
    let opts = args.exp_options()?;
    let rows = run_with_opts(
        seed,
        num_seeds,
        &paper_ratios(),
        &RandomSystemParams::default(),
        &opts,
    )?;

    if json {
        write_json_lines(&rows, std::io::stdout().lock())?;
        return Ok(());
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:+.0}%", r.ratio * 100.0),
                format!("{:.4}", r.dp_normalized),
                format!("{:.4}", r.heu_normalized),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &["accuracy_ratio", "dynamic_programming", "heu_oe"],
            &table_rows
        )
    );
    println!("(normalized to the x = 0 dynamic-programming plan, per seed)");
    Ok(())
}
