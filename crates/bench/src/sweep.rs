//! Server-load sweep: the continuous curve behind Figure 2's three
//! points.
//!
//! The paper evaluates three discrete contention scenarios. This
//! experiment sweeps the background utilization of the same GPU server
//! continuously from idle to past saturation and records the realized
//! normalized benefit of the (fixed) case-study plan, with several seeds
//! per point. The expected shape: a plateau near the idle benefit while
//! queueing is light, a knee as waits approach the promised response
//! times, and an asymptote at 1.0 (pure compensation) once the server
//! saturates — deadline misses remaining zero throughout.
//!
//! The trial matrix (utilization points × seeds) runs on the `rto-exp`
//! engine: trials fan out over a worker pool, each drawing its RNG
//! stream from `derive_seed(base_seed, point, trial)` — a pure function
//! of the matrix coordinates — so the rows are **bit-identical for any
//! `--jobs` count**, and an optional trial cache makes warm re-runs
//! skip every unchanged point. (The serial version derived seeds as
//! `base ^ (s << 32) ^ ((util * 1000.0) as u64)`, which truncates the
//! utilization to integer millis and handed identical seeds to nearby
//! points — see `rto_exp::legacy_xor_seed` for the regression tests.)

use rto_core::odm::OffloadingDecisionManager;
use rto_exp::{
    f64_from_hex, f64_hex, run_matrix_observed, ExpOptions, MatrixSpec, RunStats, TrialData,
};
use rto_mckp::DpSolver;
use rto_obs::MetricsShard;
use rto_server::gpu::GpuServer;
use rto_server::network::NetworkModel;
use rto_server::Scenario;
use rto_sim::{SimConfig, Simulation};
use rto_workloads::case_study::{case_study_system, shape_request};
use serde::{Deserialize, Serialize};

/// One sweep data point (averaged across seeds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Background utilization of the two-board server.
    pub background_utilization: f64,
    /// Mean normalized benefit across seeds.
    pub normalized_benefit: f64,
    /// Mean fraction of offloaded jobs whose result arrived in time.
    pub remote_rate: f64,
    /// Total deadline misses across all seeds (must be 0).
    pub deadline_misses: usize,
}

/// A finished sweep: the rows plus the engine's run tallies (how many
/// trials simulated vs. served from cache, wall clock).
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// One row per utilization point, in input order.
    pub rows: Vec<SweepRow>,
    /// Engine tallies for the run.
    pub stats: RunStats,
    /// Merged per-trial metrics (sim counters, server network meters).
    /// Byte-identical for any `opts.jobs` on a cold cache; cache hits
    /// contribute nothing (see `rto_exp::MatrixRun::shard`).
    pub shard: MetricsShard,
}

/// One trial's raw measurements, as stored in the trial cache. Floats
/// are cached as IEEE-754 bit patterns so warm runs stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SweepTrial {
    benefit: f64,
    remote_rate: f64,
    misses: u64,
}

impl TrialData for SweepTrial {
    fn encode(&self) -> String {
        format!(
            "{} {} {}",
            f64_hex(self.benefit),
            f64_hex(self.remote_rate),
            self.misses
        )
    }
    fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split(' ');
        let benefit = f64_from_hex(parts.next()?)?;
        let remote_rate = f64_from_hex(parts.next()?)?;
        let misses = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(SweepTrial {
            benefit,
            remote_rate,
            misses,
        })
    }
}

/// Runs the sweep serially with no cache — see [`run_with`] for the
/// parallel/cached variant the binaries use.
///
/// # Errors
///
/// Propagates ODM/simulation configuration errors; none occur with the
/// shipped case study.
pub fn run(
    utilizations: &[f64],
    seeds: u64,
    horizon_secs: u64,
    base_seed: u64,
) -> Result<Vec<SweepRow>, Box<dyn std::error::Error>> {
    Ok(run_with(
        utilizations,
        seeds,
        horizon_secs,
        base_seed,
        &ExpOptions::default(),
    )?
    .rows)
}

/// Runs the sweep on the experiment engine: `utilizations`
/// background-load points × `seeds` trials per point, `horizon_secs`
/// each, fanned out per `opts.jobs` and cached under `opts.cache_root`.
///
/// The output is a pure function of the arguments — not of `opts`.
///
/// # Errors
///
/// Propagates ODM/simulation configuration errors; none occur with the
/// shipped case study.
pub fn run_with(
    utilizations: &[f64],
    seeds: u64,
    horizon_secs: u64,
    base_seed: u64,
    opts: &ExpOptions,
) -> Result<SweepRun, Box<dyn std::error::Error>> {
    // The plan does not depend on the server: decide once.
    let odm = OffloadingDecisionManager::new(case_study_system([1.0, 2.0, 3.0, 4.0]))?;
    let plan = odm.decide(&DpSolver::default())?;

    let spec = MatrixSpec {
        name: "sweep".into(),
        // Everything that shapes a trial besides the per-point key and
        // the seed indices; `sweep-v2` is the trial-logic revision.
        fingerprint: format!("sweep-v2\u{1f}horizon={horizon_secs}"),
        base_seed,
        // Content keys carry the utilization *bits*, so editing one
        // point invalidates exactly that point's cache entries.
        point_keys: utilizations
            .iter()
            .map(|&u| format!("util={}", f64_hex(u)))
            .collect(),
        trials_per_point: seeds as usize,
    };

    let matrix = run_matrix_observed(&spec, opts, |ctx, obs| -> Result<SweepTrial, String> {
        let util = utilizations[ctx.point];
        // Background jobs keep the presets' 45 ms mean service time;
        // arrival rate backs out of the target utilization:
        // rate = util × boards / 0.045 s.
        let background_rate = util * Scenario::NUM_BOARDS as f64 / 0.045;
        let server = GpuServer::new(
            Scenario::NUM_BOARDS,
            Scenario::SERVICE_MEAN_MS,
            Scenario::SERVICE_CV,
            background_rate,
            45.0,
            NetworkModel::wlan(),
            ctx.seed,
        )
        .map_err(|e| e.to_string())?
        .with_obs(obs.clone());
        let report = Simulation::build(odm.tasks().to_vec(), plan.clone())
            .map_err(|e| e.to_string())?
            .with_obs(obs.clone())
            .with_server(Box::new(server))
            .with_request_shaper(Box::new(shape_request))
            .run(SimConfig::for_seconds(horizon_secs, ctx.seed))
            .map_err(|e| e.to_string())?;
        let offloaded = report.total_remote() + report.total_compensated();
        Ok(SweepTrial {
            benefit: report.normalized_benefit(),
            remote_rate: if offloaded > 0 {
                report.total_remote() as f64 / offloaded as f64
            } else {
                0.0
            },
            misses: report.total_deadline_misses() as u64,
        })
    });

    let mut rows = Vec::with_capacity(utilizations.len());
    for (&util, trials) in utilizations.iter().zip(&matrix.points) {
        let mut benefit_sum = 0.0;
        let mut remote_sum = 0.0;
        let mut misses = 0usize;
        for trial in trials {
            let t = trial.as_ref().map_err(Clone::clone)?;
            benefit_sum += t.benefit;
            remote_sum += t.remote_rate;
            misses += usize::try_from(t.misses).unwrap_or(usize::MAX);
        }
        rows.push(SweepRow {
            background_utilization: util,
            normalized_benefit: benefit_sum / seeds as f64,
            remote_rate: remote_sum / seeds as f64,
            deadline_misses: misses,
        });
    }
    Ok(SweepRun {
        rows,
        stats: matrix.stats,
        shard: matrix.shard,
    })
}

/// The default utilization grid: 0.0 to 1.2 in 0.1 steps.
pub fn default_grid() -> Vec<f64> {
    (0..=12).map(|k| k as f64 / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_the_expected_shape() {
        let rows = run(&[0.0, 0.5, 0.95, 1.2], 2, 4, 33).expect("sweep runs");
        assert_eq!(rows.len(), 4);
        // Deadline misses never occur, at any load.
        assert!(rows.iter().all(|r| r.deadline_misses == 0));
        // Benefit and remote rate decrease with load.
        assert!(
            rows[0].normalized_benefit > rows[3].normalized_benefit + 0.2,
            "no contrast across the sweep: {rows:?}"
        );
        assert!(rows[0].remote_rate > rows[3].remote_rate);
        // Idle end matches the Figure 2 idle regime; saturated end decays
        // toward the compensation floor of 1.0.
        assert!(rows[0].normalized_benefit > 2.0);
        assert!(rows[3].normalized_benefit < 2.5);
        assert!(rows[3].normalized_benefit >= 1.0 - 1e-9);
    }

    /// The PR's shard byte-identity criterion: the merged metrics of a
    /// `--jobs 8` sweep render to exactly the serial run's bytes.
    #[test]
    fn parallel_sweep_shard_matches_serial_byte_for_byte() {
        let grid = [0.0, 0.9];
        let serial = run_with(&grid, 2, 2, 33, &ExpOptions::default()).expect("serial sweep");
        assert!(!serial.shard.is_empty(), "trials record metrics");
        let parallel_opts = ExpOptions {
            jobs: 8,
            ..ExpOptions::default()
        };
        let parallel = run_with(&grid, 2, 2, 33, &parallel_opts).expect("parallel sweep");
        assert_eq!(parallel.rows.len(), serial.rows.len());
        assert_eq!(parallel.shard.to_json(), serial.shard.to_json());
        // The shard actually carries the cross-layer meters.
        let json = serial.shard.to_json();
        for key in ["sim_jobs_released_total", "net_messages_total"] {
            assert!(json.contains(key), "{key} missing from shard: {json}");
        }
    }

    #[test]
    fn trial_payload_round_trips_bit_exactly() {
        let t = SweepTrial {
            benefit: 0.1 + 0.2,
            remote_rate: 2.0 / 3.0,
            misses: 7,
        };
        let back = SweepTrial::decode(&t.encode()).expect("decodes");
        assert_eq!(back.benefit.to_bits(), t.benefit.to_bits());
        assert_eq!(back.remote_rate.to_bits(), t.remote_rate.to_bits());
        assert_eq!(back.misses, 7);
        assert_eq!(SweepTrial::decode("junk"), None);
    }
}
