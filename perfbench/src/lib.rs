//! # rto-perfbench — the end-to-end benchmark of the rto pipeline
//!
//! The paper's system is a pipeline: decide (ODM + MCKP), simulate under
//! a timing-unreliable server, sweep. Three single-threaded workloads
//! drive it through the library crates' public APIs:
//!
//! * [`fleet`] (`fleet-1k`) — one 1000-task system, 20 s per op: the
//!   engine's per-job path and report build;
//! * [`sweep`] (`casestudy-sweep`) — the Figure-2 case study over 13
//!   server loads, many tiny runs through `rto-exp`: per-run fixed cost
//!   and the server's background load;
//! * [`plan`] (`fig3-plan`) — the Figure-3 planning loop: the MCKP DP.
//!
//! [`harness`] times them and checks their outputs; [`layers`] traces
//! the calls into each layer for the per-layer run. `METRICS.md` next to
//! this crate lists every metric and the layer → end-to-end predictions.

pub mod alloc;
pub mod fleet;
pub mod harness;
pub mod layers;
pub mod noise;
pub mod plan;
pub mod sweep;

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// The workload names the command line accepts.
pub const WORKLOADS: [&str; 3] = ["fleet-1k", "casestudy-sweep", "fig3-plan"];

/// The `q`-quantile of `x` (0 when empty).
pub fn quantile(x: &[f64], q: f64) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        rto_stats::desc::quantile(x, q)
    }
}

/// Median of `x` (0 when empty).
pub fn median(x: &[f64]) -> f64 {
    quantile(x, 0.5)
}

/// Runs the named workload at its benchmark size.
///
/// # Errors
///
/// An unknown name, or a set-up that fails outright.
pub fn run(args: &harness::Args) -> Result<harness::Outcome, String> {
    match args.workload.as_str() {
        "fleet-1k" => harness::run(&fleet::Fleet::FULL, args),
        "casestudy-sweep" => harness::run(&sweep::CaseStudySweep::FULL, args),
        "fig3-plan" => harness::run(&plan::Fig3Plan::FULL, args),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
