//! `fig3-plan`: the Figure-3 planning loop on §6.2 random systems.
//!
//! Each op takes one 30-task system, computes the perfect-estimation DP
//! plan, then DP and HEU-OE plans at the nine distortions −40 %…+40 %,
//! and values every plan with the true benefit functions. No simulation
//! runs: `mckp::dp` is nearly the whole op, so solver changes show here.

use crate::harness::{check_plan, Checked, Workload};
use crate::layers::{self, Tracer};
use rto_core::odm::{OdmTask, OffloadingDecisionManager, OffloadingPlan};
use rto_exp::{derive_seed, f64_hex};
use rto_mckp::{DpSolver, HeuOeSolver, Solver};
use rto_stats::Rng;
use rto_workloads::random::{random_system, RandomSystemParams};

/// The workload at a given size.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Plan {
    /// Systems per set-up; ops visit them in rounds.
    pub systems: usize,
    /// Tasks per system.
    pub tasks: usize,
    /// Set-ups per run.
    pub setups: usize,
}

impl Fig3Plan {
    /// The benchmark's size: the paper's 30-task systems.
    pub const FULL: Fig3Plan = Fig3Plan {
        systems: 4,
        tasks: 30,
        setups: 31,
    };
}

/// The paper's x-axis: −40 % … +40 % in 10 % steps.
pub fn ratios() -> Vec<f64> {
    (-4..=4).map(|k| f64::from(k) / 10.0).collect()
}

/// One op's plans and their values relative to perfect estimation.
#[derive(Debug)]
pub struct PlanOutput {
    /// The perfect-estimation DP plan, then DP and HEU-OE per ratio.
    pub plans: Vec<OffloadingPlan>,
    /// Each distorted plan's true value ÷ the perfect plan's; empty for a
    /// degenerate draw (nothing worth offloading), which is skipped.
    pub normalized: Vec<f64>,
}

impl PlanOutput {
    /// The output's bytes: the plans' JSON, then the values' bit patterns.
    pub fn text(&self) -> String {
        let bits: Vec<String> = self.normalized.iter().map(|&v| f64_hex(v)).collect();
        format!(
            "{}\n{}",
            serde_json::to_string(&self.plans).unwrap_or_default(),
            bits.join(" ")
        )
    }
}

/// Decides on the distorted instance and values the plan with the true
/// benefit functions, as Figure 3 does.
fn decide_and_value(
    tr: &Tracer,
    true_tasks: &[OdmTask],
    ratio: f64,
    solver: &dyn Solver,
) -> Result<(OffloadingPlan, f64), String> {
    let odm = tr.span("core.odm.new", || {
        let distorted = true_tasks
            .iter()
            .map(|t| {
                Ok(OdmTask::new(t.task().clone(), t.benefit().distort(ratio)?)
                    .with_weight(t.weight()))
            })
            .collect::<Result<Vec<_>, rto_core::CoreError>>()?;
        OffloadingDecisionManager::new(distorted)
    });
    let odm = odm.map_err(|e| e.to_string())?;
    let plan = layers::decide(tr, &odm, solver)?;
    let value = tr
        .span("core.odm.evaluate", || plan.evaluate_against(true_tasks))
        .map_err(|e| e.to_string())?;
    Ok((plan, value))
}

/// The op on one system.
///
/// # Errors
///
/// Any ODM error, as text.
pub fn plan_system(tr: &Tracer, true_tasks: &[OdmTask]) -> Result<PlanOutput, String> {
    let dp = DpSolver::default();
    let heu = HeuOeSolver::new();
    let (perfect_plan, perfect) = decide_and_value(tr, true_tasks, 0.0, &dp)?;
    let mut out = PlanOutput {
        plans: vec![perfect_plan],
        normalized: Vec::new(),
    };
    if perfect <= 0.0 {
        return Ok(out);
    }
    for ratio in ratios() {
        for solver in [&dp as &dyn Solver, &heu] {
            let (plan, value) = decide_and_value(tr, true_tasks, ratio, solver)?;
            out.plans.push(plan);
            out.normalized.push(value / perfect);
        }
    }
    Ok(out)
}

impl Workload for Fig3Plan {
    type Input = Vec<Vec<OdmTask>>;
    type Output = PlanOutput;

    fn setups(&self) -> usize {
        self.setups
    }

    fn setup(&self, seed: u64, k: usize, _tr: &Tracer) -> Result<Vec<Vec<OdmTask>>, String> {
        let params = RandomSystemParams {
            num_tasks: self.tasks,
            ..RandomSystemParams::default()
        };
        Ok((0..self.systems)
            .map(|s| {
                random_system(
                    &params,
                    &mut Rng::seed_from(derive_seed(seed, k as u64, s as u64)),
                )
            })
            .collect())
    }

    fn check_setup(&self, systems: &Vec<Vec<OdmTask>>) -> Vec<String> {
        if systems.iter().all(|s| s.len() == self.tasks) {
            Vec::new()
        } else {
            vec!["a generated system has the wrong number of tasks".into()]
        }
    }

    fn pool(&self, systems: &Vec<Vec<OdmTask>>) -> usize {
        systems.len()
    }

    fn op(&self, systems: &Vec<Vec<OdmTask>>, i: usize, tr: &Tracer) -> Result<PlanOutput, String> {
        plan_system(tr, &systems[i])
    }

    fn check(&self, systems: &Vec<Vec<OdmTask>>, i: usize, out: &PlanOutput) -> Checked {
        let mut failures: Vec<String> = out
            .plans
            .iter()
            .flat_map(|p| check_plan(&systems[i], p))
            .collect();
        failures.truncate(5);
        let n = out.normalized.len();
        Checked {
            work: out.plans.len() as f64,
            benefit: (n > 0).then(|| out.normalized.iter().sum::<f64>() / n as f64),
            failures,
        }
    }

    fn output_text(&self, out: &PlanOutput) -> String {
        out.text()
    }

    fn audit(&self, _systems: &Vec<Vec<OdmTask>>) -> Vec<String> {
        Vec::new()
    }
}
