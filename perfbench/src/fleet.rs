//! `fleet-1k`: one large system simulated end to end.
//!
//! 1000 offloadable tasks (10 µs setup, 150 µs local and compensation
//! WCET, periods 200–356 ms on a 4 ms grid, so releases line up) are
//! planned once with the exact DP. Each op simulates 20 s of them
//! against a 16-board GPU server (3 ms lognormal service) behind a WLAN
//! that loses 2 % of messages, so results come back late or never.
//! About 75k jobs per op: the engine's per-job path and the report build
//! carry the op, and the 1000-class DP carries the set-up.

use crate::harness::{check_plan, Checked, Workload};
use crate::layers::{self, Tracer};
use rto_core::benefit::BenefitFunction;
use rto_core::odm::{OdmTask, OffloadingDecisionManager, OffloadingPlan};
use rto_core::task::Task;
use rto_core::time::Duration;
use rto_exp::derive_seed;
use rto_mckp::DpSolver;
use rto_obs::Obs;
use rto_server::gpu::GpuServer;
use rto_server::network::NetworkModel;
use rto_sim::{SimConfig, SimReport};
use rto_stats::Rng;

/// GPU boards of the server.
const BOARDS: usize = 16;
/// Mean and coefficient of variation of the lognormal service time.
const SERVICE_MEAN_MS: f64 = 3.0;
const SERVICE_CV: f64 = 0.3;
/// Per-message loss of the WLAN.
const LOSS: f64 = 0.02;
/// Horizon of the audited re-run.
const AUDIT_HORIZON_MS: u64 = 250;

/// The workload at a given size.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// Offloadable tasks.
    pub tasks: usize,
    /// Simulated seconds per op.
    pub horizon_s: u64,
    /// Set-ups per run.
    pub setups: usize,
}

impl Fleet {
    /// The benchmark's size.
    pub const FULL: Fleet = Fleet {
        tasks: 1000,
        horizon_s: 20,
        setups: 15,
    };
}

/// A planned fleet, ready to simulate.
#[derive(Debug, Clone)]
pub struct FleetInput {
    /// The tasks, in plan order.
    pub tasks: Vec<OdmTask>,
    /// The DP plan.
    pub plan: OffloadingPlan,
    network: NetworkModel,
    sim_seed: u64,
    horizon: Duration,
}

/// `n` fleet tasks drawn from `rng`: local value 1 and three offload
/// levels 20–75 ms out with increasing values.
pub fn fleet_tasks(n: usize, rng: &mut Rng) -> Result<Vec<OdmTask>, String> {
    (0..n)
        .map(|i| {
            let period = Duration::from_ms(200 + 4 * rng.u64_range(0, 39));
            let task = Task::builder(i, format!("fleet-{i}"))
                .local_wcet(Duration::from_us(150))
                .setup_wcet(Duration::from_us(10))
                .compensation_wcet(Duration::from_us(150))
                .period(period)
                .build()
                .map_err(|e| e.to_string())?;
            let r1 = rng.f64_range(20.0, 30.0);
            let r2 = r1 + rng.f64_range(5.0, 15.0);
            let r3 = r2 + rng.f64_range(10.0, 30.0);
            let v1 = 1.0 + rng.f64_range(0.5, 1.5);
            let v2 = v1 + rng.f64_range(0.2, 1.0);
            let v3 = v2 + rng.f64_range(0.1, 0.5);
            let benefit =
                BenefitFunction::from_ms_points(&[(0.0, 1.0), (r1, v1), (r2, v2), (r3, v3)])
                    .map_err(|e| e.to_string())?;
            Ok(OdmTask::new(task, benefit))
        })
        .collect()
}

impl FleetInput {
    /// The op: a fresh server and simulation of the planned fleet.
    ///
    /// # Errors
    ///
    /// Any configuration or engine error, as text.
    pub fn simulate(&self, tr: &Tracer) -> Result<SimReport, String> {
        layers::simulate(
            tr,
            &Obs::disabled(),
            self.tasks.clone(),
            self.plan.clone(),
            |_| {
                GpuServer::new(
                    BOARDS,
                    SERVICE_MEAN_MS,
                    SERVICE_CV,
                    0.0,
                    1.0,
                    self.network.clone(),
                    self.sim_seed,
                )
            },
            None,
            SimConfig::new(self.horizon, self.sim_seed),
        )
    }
}

/// A Theorem-3-feasible plan must never miss a deadline.
fn check_report(report: &SimReport) -> Vec<String> {
    let misses = report.total_deadline_misses();
    if misses == 0 {
        Vec::new()
    } else {
        vec![format!("{misses} deadline misses under a feasible plan")]
    }
}

impl Workload for Fleet {
    type Input = FleetInput;
    type Output = SimReport;

    fn setups(&self) -> usize {
        self.setups
    }

    fn setup(&self, seed: u64, k: usize, tr: &Tracer) -> Result<FleetInput, String> {
        let mut rng = Rng::seed_from(derive_seed(seed, k as u64, 0));
        let tasks = fleet_tasks(self.tasks, &mut rng)?;
        let odm = OffloadingDecisionManager::new(tasks).map_err(|e| e.to_string())?;
        let plan = layers::decide(tr, &odm, &DpSolver::default())?;
        let network = NetworkModel::new(Duration::from_ms(1), 20e6, 2.0, 0.3, LOSS)
            .map_err(|e| e.to_string())?;
        Ok(FleetInput {
            tasks: odm.tasks().to_vec(),
            plan,
            network,
            sim_seed: derive_seed(seed, k as u64, 1),
            horizon: Duration::from_secs(self.horizon_s),
        })
    }

    fn check_setup(&self, input: &FleetInput) -> Vec<String> {
        check_plan(&input.tasks, &input.plan)
    }

    fn pool(&self, _input: &FleetInput) -> usize {
        1
    }

    fn op(&self, input: &FleetInput, _i: usize, tr: &Tracer) -> Result<SimReport, String> {
        input.simulate(tr)
    }

    fn check(&self, _input: &FleetInput, _i: usize, report: &SimReport) -> Checked {
        Checked {
            work: report
                .metrics
                .counter("sim_jobs_released_total")
                .unwrap_or(0) as f64,
            benefit: Some(report.normalized_benefit()),
            failures: check_report(report),
        }
    }

    fn output_text(&self, report: &SimReport) -> String {
        serde_json::to_string(report).unwrap_or_default()
    }

    fn audit(&self, input: &FleetInput) -> Vec<String> {
        // Both audits are O(segments × sub-jobs), so they check a re-run
        // over a short horizon; the full op is checked by the harness's
        // byte-identical re-run.
        let short = FleetInput {
            horizon: Duration::from_ms(AUDIT_HORIZON_MS),
            ..input.clone()
        };
        let mut failures = Vec::new();
        match short.simulate(&Tracer::off()) {
            Ok(report) => {
                failures.extend(check_report(&report));
                failures.extend(rto_sim::validate::audit_trace(&report));
                failures.extend(rto_sim::validate::audit_edf(&report));
            }
            Err(e) => failures.push(e),
        }
        failures.truncate(5);
        failures
    }
}
