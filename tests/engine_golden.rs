//! Golden reports: the exact `SimReport::write_json` bytes of a few
//! fixed simulations, pinned by length and FNV-1a hash.
//!
//! The configurations cover EDF and deadline-monotonic scheduling,
//! periodic and sporadic releases, uniform-fraction execution times, a
//! lossy contended GPU server, the black-hole server, and one system of
//! more than 100 tasks. Any change to the engine's schedule, its
//! bookkeeping, or the report build shows up here as a changed hash; a
//! change that only makes the engine faster must leave every value
//! alone. Every configuration is planned Theorem-3-feasible, so each
//! also checks the paper's guarantee: zero deadline misses.

use rto::core::benefit::BenefitFunction;
use rto::core::odm::{OdmTask, OffloadingDecisionManager, OffloadingPlan};
use rto::core::task::Task;
use rto::core::time::Duration;
use rto::mckp::{DpSolver, HeuOeSolver, Solver};
use rto::server::gpu::{BlackHoleServer, OffloadRequest, OffloadServer};
use rto::server::Scenario;
use rto::sim::prelude::*;

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `n` offloadable tasks with staggered periods and two offload levels.
fn system(n: usize, solver: &dyn Solver) -> (Vec<OdmTask>, OffloadingPlan) {
    let tasks = (0..n)
        .map(|i| {
            let period = 200 + 40 * (i as u64 % 8);
            let task = Task::builder(i, format!("t{i}"))
                .local_wcet(ms(6 + i as u64 % 5))
                .setup_wcet(ms(1))
                .compensation_wcet(ms(6 + i as u64 % 5))
                .period(ms(period))
                .build()
                .expect("valid task");
            let r = 70.0 + 10.0 * (i % 4) as f64;
            let g = BenefitFunction::from_ms_points(&[
                (0.0, 1.0),
                (r, 3.0 + i as f64),
                (2.0 * r, 4.0 + i as f64),
            ])
            .expect("valid benefit");
            OdmTask::new(task, g)
        })
        .collect();
    let odm = OffloadingDecisionManager::new(tasks).expect("valid system");
    let plan = odm.decide(solver).expect("feasible plan");
    (odm.tasks().to_vec(), plan)
}

/// A fleet of `n` tasks whose WCETs shrink with `n`, so the local
/// utilization stays near 0.86 and HEU-OE offloads only part of it.
fn fleet(n: usize) -> (Vec<OdmTask>, OffloadingPlan) {
    let wcet_us = 240_000 / n as u64;
    let tasks = (0..n)
        .map(|i| {
            let task = Task::builder(i, format!("fleet-{i}"))
                .local_wcet(Duration::from_us(wcet_us))
                .setup_wcet(Duration::from_us(wcet_us / 10))
                .compensation_wcet(Duration::from_us(wcet_us))
                .period(ms(200 + 4 * (i as u64 % 40)))
                .build()
                .expect("valid task");
            let g = BenefitFunction::from_ms_points(&[(0.0, 1.0), (20.0, 2.0), (60.0, 2.5)])
                .expect("valid benefit");
            OdmTask::new(task, g)
        })
        .collect();
    let odm = OffloadingDecisionManager::new(tasks).expect("valid system");
    let plan = odm.decide(&HeuOeSolver::new()).expect("feasible plan");
    (odm.tasks().to_vec(), plan)
}

/// Binds a planned system to a simulation with the given server.
fn bind(
    (tasks, plan): (Vec<OdmTask>, OffloadingPlan),
    server: Box<dyn OffloadServer>,
) -> Simulation {
    Simulation::build(tasks, plan)
        .expect("plan covers tasks")
        .with_server(server)
}

/// Runs one configuration and returns `(length, FNV-1a)` of its JSON
/// report, after checking it missed no deadline.
fn golden(sim: Simulation, config: SimConfig) -> (usize, u64) {
    let report = sim.run(config).expect("valid config");
    assert_eq!(report.total_deadline_misses(), 0, "feasible plan missed");
    let mut bytes = Vec::new();
    report.write_json(&mut bytes).expect("serializes");
    (bytes.len(), fnv1a(&bytes))
}

fn scenario(scenario: Scenario, seed: u64) -> Box<dyn OffloadServer> {
    Box::new(scenario.build_server(seed).expect("preset valid"))
}

#[test]
fn edf_periodic_wcet_lossy_server() {
    let sim = bind(
        system(4, &DpSolver::default()),
        scenario(Scenario::Busy, 11),
    );
    let got = golden(sim, SimConfig::for_seconds(10, 1));
    assert_eq!(got, (112_376, 0xec319607ee475142));
}

#[test]
fn edf_sporadic_uniform_black_hole() {
    let sim = bind(system(6, &DpSolver::default()), Box::new(BlackHoleServer));
    let got = golden(
        sim,
        SimConfig::for_seconds(10, 2)
            .with_release(ReleasePolicy::SporadicJitter { max_extra: ms(30) })
            .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.3 }),
    );
    assert_eq!(got, (144_717, 0xb664dd7e3afd775e));
}

#[test]
fn dm_sporadic_uniform_lossy_server() {
    let sim = bind(
        system(3, &DpSolver::default()),
        scenario(Scenario::NotBusy, 13),
    );
    let got = golden(
        sim,
        SimConfig::for_seconds(10, 3)
            .with_scheduler(SchedulerPolicy::DeadlineMonotonic)
            .with_release(ReleasePolicy::SporadicJitter { max_extra: ms(15) })
            .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.5 }),
    );
    assert_eq!(got, (82_477, 0x070a44547f1606a7));
}

#[test]
fn dm_periodic_wcet_black_hole() {
    let sim = bind(system(3, &HeuOeSolver::new()), Box::new(BlackHoleServer));
    let got = golden(
        sim,
        SimConfig::for_seconds(5, 4).with_scheduler(SchedulerPolicy::DeadlineMonotonic),
    );
    assert_eq!(got, (45_566, 0x4144c6a6b356dd4c));
}

#[test]
fn fleet_of_120_tasks_lossy_server() {
    // Light kernels, so the two-board server keeps up with the fleet.
    let sim =
        bind(fleet(120), scenario(Scenario::Idle, 15)).with_request_shaper(Box::new(|task, _| {
            OffloadRequest::new(task.id().0).with_compute_scale(0.02)
        }));
    let got = golden(
        sim,
        SimConfig::for_seconds(5, 5)
            .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.4 }),
    );
    assert_eq!(got, (1_267_758, 0xfa3e7b88c8386a56));
}
