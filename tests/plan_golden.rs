//! Golden plans: the exact `serde_json` bytes of exact-DP offloading
//! plans, pinned by length and FNV-1a hash.
//!
//! Three planning problems are covered:
//!
//! * the robot-vision case study under all 24 importance-weight
//!   permutations (the Figure-2 work sets);
//! * one §6.2 random 30-task system at the nine estimation errors
//!   −40 %…+40 %, as Figure 3 plans it;
//! * one 300-task §6.2 system with WCETs scaled down by 10x, so that a
//!   300-class DP has real choices to make;
//! * one 1000-task fleet of light tasks, where the DP's windows are
//!   narrowest.
//!
//! A change to the DP's answer, tie-breaking included, shows up here as
//! a changed hash; a change that only makes the solver faster must leave
//! every value alone.

use rto::core::benefit::BenefitFunction;
use rto::core::odm::{Decision, OdmTask, OffloadingDecisionManager, OffloadingPlan};
use rto::core::task::Task;
use rto::core::time::Duration;
use rto::mckp::DpSolver;
use rto::stats::Rng;
use rto::workloads::case_study::{case_study_system, weight_permutations};
use rto::workloads::random::{random_system, RandomSystemParams};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn dp_plan(tasks: Vec<OdmTask>) -> OffloadingPlan {
    OffloadingDecisionManager::new(tasks)
        .expect("valid system")
        .decide(&DpSolver::default())
        .expect("feasible plan")
}

/// Asserts the plans' JSON length and hash, printing both on failure.
fn assert_golden(plans: &[OffloadingPlan], len: usize, hash: u64) {
    let json = serde_json::to_string(plans).expect("plans serialize");
    let got = (json.len(), fnv1a(json.as_bytes()));
    assert_eq!(
        got,
        (len, hash),
        "plan bytes changed: got (len {}, hash {:#018x})",
        got.0,
        got.1
    );
}

#[test]
fn case_study_all_weight_permutations() {
    let plans: Vec<OffloadingPlan> = weight_permutations()
        .into_iter()
        .map(|w| dp_plan(case_study_system(w)))
        .collect();
    assert_eq!(plans.len(), 24);
    assert_golden(&plans, 16_831, 0x09b8_02e2_c73b_13f3);
}

#[test]
fn random_system_at_nine_distortions() {
    let tasks = random_system(&RandomSystemParams::default(), &mut Rng::seed_from(2014));
    let plans: Vec<OffloadingPlan> = (-4..=4)
        .map(|k| {
            let ratio = f64::from(k) / 10.0;
            let distorted = tasks
                .iter()
                .map(|t| {
                    let g = t.benefit().distort(ratio).expect("ratio > -1");
                    OdmTask::new(t.task().clone(), g).with_weight(t.weight())
                })
                .collect();
            dp_plan(distorted)
        })
        .collect();
    assert_golden(&plans, 51_100, 0xa3a8_a73a_ae71_efb6);
}

#[test]
fn three_hundred_class_system() {
    let params = RandomSystemParams {
        num_tasks: 300,
        wcet_range_ms: (0.01, 2.0),
        ..RandomSystemParams::default()
    };
    let plan = dp_plan(random_system(&params, &mut Rng::seed_from(300)));
    assert_eq!(plan.decisions().len(), 300);
    assert!(
        plan.num_offloaded() > 0 && plan.num_offloaded() < 300,
        "the capacity should bind: {} of 300 offloaded",
        plan.num_offloaded()
    );
    assert_golden(&[plan], 56_270, 0x18bf_781b_8c35_614f);
}

/// `n` light fleet tasks, drawn as the `fleet-1k` benchmark workload
/// draws them but with WCETs 1.4x larger: 14 µs setup, 210 µs local and
/// compensation WCET, periods 200–356 ms on a 4 ms grid, local value 1
/// and three offload levels 20–75 ms out with increasing values. The
/// heaviest items sum to ~1.05 of the capacity and the lightest to
/// ~0.78, so the plan must trade levels against each other.
fn fleet_tasks(n: usize, rng: &mut Rng) -> Vec<OdmTask> {
    (0..n)
        .map(|i| {
            let period = Duration::from_ms(200 + 4 * rng.u64_range(0, 39));
            let task = Task::builder(i, format!("fleet-{i}"))
                .local_wcet(Duration::from_us(210))
                .setup_wcet(Duration::from_us(14))
                .compensation_wcet(Duration::from_us(210))
                .period(period)
                .build()
                .expect("valid task");
            let r1 = rng.f64_range(20.0, 30.0);
            let r2 = r1 + rng.f64_range(5.0, 15.0);
            let r3 = r2 + rng.f64_range(10.0, 30.0);
            let v1 = 1.0 + rng.f64_range(0.5, 1.5);
            let v2 = v1 + rng.f64_range(0.2, 1.0);
            let v3 = v2 + rng.f64_range(0.1, 0.5);
            let benefit =
                BenefitFunction::from_ms_points(&[(0.0, 1.0), (r1, v1), (r2, v2), (r3, v3)])
                    .expect("valid benefit");
            OdmTask::new(task, benefit)
        })
        .collect()
}

#[test]
fn thousand_class_fleet() {
    let plan = dp_plan(fleet_tasks(1000, &mut Rng::seed_from(2014)));
    let mut levels = [0usize; 4];
    for d in plan.decisions() {
        match d.decision {
            Decision::Local => levels[0] += 1,
            Decision::Offload { level, .. } => levels[level] += 1,
        }
    }
    assert_eq!(levels, [34, 65, 570, 331], "levels 0/1/2/3");
    assert_golden(&[plan], 222_260, 0x8cb5_e48b_caa9_ce85);
}
