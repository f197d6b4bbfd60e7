//! Regenerates a Table-1-style benefit table from first principles:
//! PSNR per scaling level (synthetic frames + the vision kernels'
//! imaging pipeline) and measured response times against the simulated
//! GPU server.
//!
//! Usage: `cargo run --release -p rto-bench --bin table1 [seed] [--json]`

use rto_bench::opts::TABLE1;
use rto_bench::report::{text_table, write_json_lines};
use rto_bench::table1::run;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = TABLE1.parse(std::env::args().skip(1))?;
    let json = args.switch("--json");
    let seed = args.seed.unwrap_or(2014);

    eprintln!("table1: 8 frames x 5 levels quality, 200 probes/level timing, seed {seed}");
    let rows = run(seed, 8, 200)?;

    if json {
        write_json_lines(&rows, std::io::stdout().lock())?;
        return Ok(());
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.task.clone(),
                r.level.to_string(),
                format!("{:.2}", r.scale),
                format!("{:.4}", r.psnr_db),
                r.response_p90_ms
                    .map(|t| format!("{t:.4}"))
                    .unwrap_or_else(|| "local".to_string()),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &["task", "level", "scale", "psnr_db", "response_p90_ms"],
            &table_rows
        )
    );
    println!(
        "(compare shape with the paper's Table 1: PSNR and response time \
         both increase with the level; the last level is lossless at 99 dB)"
    );
    Ok(())
}
