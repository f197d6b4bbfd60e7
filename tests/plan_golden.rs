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
//!   300-class DP has real choices to make.
//!
//! A change to the DP's answer, tie-breaking included, shows up here as
//! a changed hash; a change that only makes the solver faster must leave
//! every value alone.

use rto::core::odm::{OdmTask, OffloadingDecisionManager, OffloadingPlan};
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
