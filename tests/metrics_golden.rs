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
            ((13_478, 0xedacca306fc02a97), (1_222, 0x7290c38025ec472d)),
            ((13_338, 0xf55c08f74492bd76), (1_343, 0x91bd396184c31d1e)),
        ],
    );
}

#[test]
fn half_loaded_server_trials() {
    check(
        0.6,
        [
            ((13_479, 0x32e6342d91b826ee), (1_343, 0xfcec07de4c38ed1a)),
            ((13_343, 0x2cb2b6c059337a60), (1_294, 0xd78de0f33ca1881f)),
        ],
    );
}

#[test]
fn overloaded_server_trials() {
    check(
        1.2,
        [
            ((14_429, 0x0889ab2d39368270), (1_247, 0x593781b99043dcd0)),
            ((14_531, 0x093478ecc54ec3c3), (1_247, 0xbecbb33028dcbfb0)),
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
        (2_746, 0xfcdcf4662c3ebe09)
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
            (133_694, 0x1ad2_4775_ed5f_a027),
            "jobs {jobs}"
        );
    }
}
