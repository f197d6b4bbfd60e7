//! Golden metrics: the exact bytes an observed case-study trial exports,
//! pinned by length and FNV-1a hash.
//!
//! Each trial runs the Figure-2 case study for 10 s against the
//! two-board GPU server at one background utilization, with the server
//! (`GpuServer::with_obs`) and the simulation (`Simulation::with_obs`)
//! sharing one fresh `Obs`. Three byte streams are pinned:
//!
//! * the report's `serde_json` encoding, which embeds the registry's
//!   `MetricsSnapshot` (counters, histogram quantiles);
//! * the registry's `shard().to_json()`, the mergeable export with every
//!   histogram bucket;
//! * the merge of all six trials' shards, the fold a sweep performs.
//!
//! The same trial body also runs through `rto_exp::run_matrix_observed`,
//! whose workers record every trial into one registry each, cleared
//! between trials: there the trials' reports and the merged shard are
//! pinned at one and two jobs.
//!
//! A change that only makes metrics cheaper must leave every value
//! alone.

use rto::core::odm::{OffloadingDecisionManager, OffloadingPlan};
use rto::mckp::DpSolver;
use rto::obs::{MetricsShard, Obs};
use rto::server::gpu::GpuServer;
use rto::server::network::NetworkModel;
use rto::server::Scenario;
use rto::sim::prelude::*;
use rto::workloads::case_study::{case_study_system, shape_request};
use rto_exp::{run_matrix_observed, ExpOptions, MatrixSpec};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

/// The case study planned with the DP, weights (1, 2, 3, 4).
fn planned() -> (OffloadingDecisionManager, OffloadingPlan) {
    let odm = OffloadingDecisionManager::new(case_study_system([1.0, 2.0, 3.0, 4.0]))
        .expect("valid case study");
    let plan = odm.decide(&DpSolver::default()).expect("feasible plan");
    (odm, plan)
}

/// The trial body: the case study simulated for `seconds` at background
/// utilization `util`, with the server and the simulation recording into
/// `obs`.
fn simulate(util: f64, seed: u64, seconds: u64, obs: &Obs) -> SimReport {
    let (odm, plan) = planned();
    // Background jobs keep the presets' 45 ms mean service time; the
    // arrival rate backs out of the target utilization.
    let rate = util * Scenario::NUM_BOARDS as f64 / 0.045;
    let server = GpuServer::new(
        Scenario::NUM_BOARDS,
        Scenario::SERVICE_MEAN_MS,
        Scenario::SERVICE_CV,
        rate,
        45.0,
        NetworkModel::wlan(),
        seed,
    )
    .expect("valid server")
    .with_obs(obs.clone());
    let report = Simulation::build(odm.tasks().to_vec(), plan)
        .expect("plan covers tasks")
        .with_obs(obs.clone())
        .with_server(Box::new(server))
        .with_request_shaper(Box::new(shape_request))
        .run(SimConfig::for_seconds(seconds, seed))
        .expect("valid config");
    assert_eq!(report.total_deadline_misses(), 0, "feasible plan missed");
    report
}

/// One observed 10 s trial at background utilization `util`: the
/// goldens of its report and of its registry's shard, and the shard.
fn trial(util: f64, seed: u64) -> ((usize, u64), (usize, u64), MetricsShard) {
    let obs = Obs::disabled();
    let report = simulate(util, seed, 10, &obs);
    let json = serde_json::to_string(&report).expect("report serializes");
    let shard = obs.metrics().shard();
    (
        golden(json.as_bytes()),
        golden(shard.to_json().as_bytes()),
        shard,
    )
}

/// Runs both seeds at `util` and checks each trial's report and shard.
fn check(util: f64, expected: [((usize, u64), (usize, u64)); 2]) {
    for (seed, want) in [1, 2].into_iter().zip(expected) {
        let (report, shard, _) = trial(util, seed);
        assert_eq!((report, shard), want, "util {util}, seed {seed}");
    }
}

#[test]
fn idle_server_trials() {
    check(
        0.0,
        [
            ((13_453, 0x0b28fde85847e033), (1_293, 0x1423d1dfb50ed416)),
            ((13_348, 0x7e663c87386bfd3d), (1_319, 0x398636c8340f9b29)),
        ],
    );
}

#[test]
fn half_loaded_server_trials() {
    check(
        0.6,
        [
            ((13_783, 0x4c8810a6c206299d), (1_318, 0xec2f045b2b2ce452)),
            ((13_780, 0x66037c4f29b2d9b8), (1_295, 0xcb8b3ce5efa72f9d)),
        ],
    );
}

#[test]
fn overloaded_server_trials() {
    check(
        1.2,
        [
            ((14_446, 0x2585d62a83c97490), (1_272, 0x3469dbc986d775da)),
            ((14_440, 0x6d19aa52c00075fb), (1_175, 0x1d2140aedac4ef8a)),
        ],
    );
}

#[test]
fn merged_shard_of_all_trials() {
    let mut merged = MetricsShard::default();
    for util in [0.0, 0.6, 1.2] {
        for seed in [1, 2] {
            merged.merge(&trial(util, seed).2);
        }
    }
    assert_eq!(
        golden(merged.to_json().as_bytes()),
        (3_012, 0x516cbc0bac4e3274)
    );
}

/// The load grid through the experiment engine: 13 utilizations 0.0–1.2
/// × 2 seeds, 2 s each. Each trial's report embeds its registry's
/// snapshot, so a registry that carried anything from an earlier trial
/// would move its bytes, at one job or at two.
#[test]
fn observed_matrix_of_the_load_grid() {
    let spec = MatrixSpec {
        name: "metrics-golden".to_owned(),
        fingerprint: "case-study-2s".to_owned(),
        base_seed: 2014,
        point_keys: (0..=12).map(|k| format!("util=0.{k:02}")).collect(),
        trials_per_point: 2,
    };
    for jobs in [1, 2] {
        let opts = ExpOptions {
            jobs,
            ..ExpOptions::default()
        };
        let run = run_matrix_observed(&spec, &opts, |ctx, obs| {
            let report = simulate(ctx.point as f64 / 10.0, ctx.seed, 2, obs);
            serde_json::to_string(&report).expect("report serializes")
        });
        let mut text = String::new();
        for report in run.points.iter().flatten() {
            text.push_str(report);
            text.push('\n');
        }
        text.push_str(&run.shard.to_json());
        assert_eq!(
            golden(text.as_bytes()),
            (133_556, 0xc23a_3ad9_3833_92b7),
            "jobs {jobs}"
        );
    }
}
