//! Reproduces the §1 motivation example: SIFT at 300×200 under a 100 ms
//! deadline — 278 ms locally vs ~7 ms on the GPU, with the GPU's tail
//! justifying the compensation mechanism.
//!
//! Usage: `cargo run --release -p rto-bench --bin motivation [seed]`

use rto_bench::motivation::{run, MotivationParams};
use rto_bench::opts::MOTIVATION;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = MOTIVATION
        .parse(std::env::args().skip(1))?
        .seed
        .unwrap_or(2014);
    let params = MotivationParams::default();
    let report = run(params, 2000, seed)?;

    println!("Motivation example (paper §1): SIFT on a 300x200 frame");
    println!("  deadline:                {:.0} ms", params.deadline_ms);
    println!(
        "  local CPU WCET:          {:.0} ms  -> meets deadline: {}",
        params.cpu_ms, report.local_feasible
    );
    println!(
        "  (our own SIFT-lite on 300x200: {:.1} ms wall clock on this machine)",
        report.measured_sift_ms
    );
    println!(
        "  GPU mean service:        {:.0} ms (timing unreliable)",
        params.gpu_mean_ms
    );
    println!(
        "  offload, R = {:.0} ms:      success probability {:.3}",
        params.response_budget_ms, report.offload_success_probability
    );
    println!(
        "  measured response:       median {:.2} ms, p99 {:.2} ms",
        report.offload_median_ms, report.offload_p99_ms
    );
    println!(
        "  compensation budget:     {:.0} ms (local fallback on a reduced image)",
        report.compensation_budget_ms
    );
    println!();
    println!(
        "Conclusion: full-resolution local execution is infeasible; offloading\n\
         almost always meets the deadline but has a tail, so hard real-time\n\
         operation requires the compensation mechanism of the paper."
    );
    Ok(())
}
