//! Quality ablations: schedulability-test acceptance ratios, deadline
//! split policies, and MCKP solver optimality gaps.
//!
//! Usage: `cargo run --release -p rto-bench --bin ablation [seed] [--jobs N]
//! [--cache]`

use rto_bench::ablation::{acceptance_sweep_with, solver_gaps_with, split_policy_sweep_with};
use rto_bench::opts::ABLATION;
use rto_bench::report::text_table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = ABLATION.parse(std::env::args().skip(1))?;
    let seed = args.seed.unwrap_or(2014);
    let opts = args.exp_options()?;

    eprintln!("ablation: acceptance sweeps (200 systems/point) + solver gaps, seed {seed}");

    println!("Schedulability-test acceptance ratio vs target load:");
    let rows = acceptance_sweep_with(seed, 200, &opts);
    let t1: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.target_load),
                format!("{:.3}", r.suspension_oblivious),
                format!("{:.3}", r.theorem3),
                format!("{:.3}", r.exact),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(&["load", "naive(susp-obl)", "theorem3", "exact"], &t1)
    );

    println!("Deadline-split policy acceptance (exact test) vs target load:");
    let rows = split_policy_sweep_with(seed, 200, &opts);
    let t2: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.target_load),
                format!("{:.3}", r.proportional),
                format!("{:.3}", r.equal_slack),
                format!("{:.3}", r.setup_all),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(&["load", "proportional", "equal-slack", "setup-all"], &t2)
    );

    println!("MCKP solver mean optimality ratio (vs fine-grid DP):");
    let gaps = solver_gaps_with(seed, 100, &opts);
    println!("  HEU-OE:        {:.4}", gaps.heu_oe);
    println!("  greedy only:   {:.4}", gaps.greedy_only);
    println!("  DP @ 1k cells: {:.4}", gaps.dp_coarse);
    println!("  ({} instances)", gaps.instances);
    Ok(())
}
