//! The compensation timer at its boundary, against a scripted server.
//!
//! The exact-fill pair — an offloaded task (`C` 30, `C_1` 10, `C_2` 30,
//! `T` = `D` = 100 ms, `R` = 20 ms, density 40/80) next to a local 45/90
//! task, Theorem-3 load exactly 1 — runs against answers chosen around
//! the timer: lost, `R − 1 ns`, exactly `R`, `R + 1 ns` and after the
//! job's next release, each script uniform and one mixed. An answer at
//! exactly `R` is accepted, so the timer acts only on a lost or later
//! answer. The engine arms the other timers only for a trace sink, so
//! every script also checks that a traced run is the untraced one.

use rto::core::benefit::BenefitFunction;
use rto::core::odm::{OdmTask, OffloadingDecisionManager, OffloadingPlan};
use rto::core::task::{Task, TaskId};
use rto::core::time::Duration;
use rto::mckp::DpSolver;
use rto::obs::{MemorySink, Obs, TraceEvent};
use rto::server::gpu::ScriptedServer;
use rto::sim::job::{JobRecord, Outcome};
use rto::sim::prelude::*;
use std::sync::Arc;

const R: Duration = Duration::from_ms(20);
const PERIOD: Duration = Duration::from_ms(100);
/// Ten offloaded jobs, the last timer firing by 940 ms.
const HORIZON: Duration = Duration::from_secs(1);
const JOBS: usize = 10;

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

fn exact_fill_pair() -> (Vec<OdmTask>, OffloadingPlan) {
    let offloaded = Task::builder(0, "offloaded")
        .local_wcet(ms(30))
        .setup_wcet(ms(10))
        .compensation_wcet(ms(30))
        .period(PERIOD)
        .build()
        .expect("valid task");
    let local = Task::builder(1, "local-heavy")
        .local_wcet(ms(45))
        .period(ms(90))
        .build()
        .expect("valid task");
    let g_offloaded = BenefitFunction::from_ms_points(&[(0.0, 1.0), (20.0, 9.0)]).expect("valid");
    let g_local = BenefitFunction::from_ms_points(&[(0.0, 1.0)]).expect("valid");
    let odm = OffloadingDecisionManager::new(vec![
        OdmTask::new(offloaded, g_offloaded),
        OdmTask::new(local, g_local),
    ])
    .expect("valid system");
    let plan = odm.decide(&DpSolver::default()).expect("feasible");
    assert_eq!(plan.num_offloaded(), 1);
    assert!((plan.total_density() - 1.0).abs() < 1e-9, "exact fill");
    (odm.tasks().to_vec(), plan)
}

fn run(script: &[Option<Duration>], policy: DeadlinePolicy, obs: Option<Obs>) -> SimReport {
    let (tasks, plan) = exact_fill_pair();
    let mut sim = Simulation::build(tasks, plan)
        .expect("valid plan")
        .with_server(Box::new(ScriptedServer::new(script.to_vec())));
    if let Some(obs) = obs {
        sim = sim.with_obs(obs);
    }
    sim.run(SimConfig::new(HORIZON, 1).with_deadline_policy(policy))
        .expect("run")
}

/// The scripts: each answer alone, then all of them in turn.
fn scripts() -> Vec<(&'static str, Vec<Option<Duration>>)> {
    let ns = Duration::from_ns(1);
    let answers = [
        ("lost", None),
        ("R - 1 ns", Some(R - ns)),
        ("exactly R", Some(R)),
        ("R + 1 ns", Some(R + ns)),
        ("after the next release", Some(PERIOD)),
    ];
    let mut scripts: Vec<_> = answers
        .iter()
        .map(|&(name, answer)| (name, vec![answer; JOBS]))
        .collect();
    let mixed = answers.iter().map(|&(_, a)| a).cycle().take(JOBS).collect();
    scripts.push(("mixed", mixed));
    scripts
}

fn in_time(answer: Option<Duration>) -> bool {
    answer.is_some_and(|delay| delay <= R)
}

#[test]
fn the_timer_acts_exactly_when_the_answer_misses_r() {
    for (name, script) in scripts() {
        let plain = run(&script, DeadlinePolicy::PlanSplit, None);
        let sink = Arc::new(MemorySink::new());
        let traced = run(
            &script,
            DeadlinePolicy::PlanSplit,
            Some(Obs::with_sink(sink.clone())),
        );
        assert_eq!(plain.total_deadline_misses(), 0, "{name}");
        assert_eq!(
            serde_json::to_string(&plain).expect("serializes"),
            serde_json::to_string(&traced).expect("serializes"),
            "{name}: tracing changed the run"
        );

        // The offloaded task's jobs submit in release order, one each.
        let offloaded: Vec<&JobRecord> = plain
            .jobs
            .iter()
            .filter(|j| j.task_id == TaskId(0))
            .collect();
        assert_eq!(offloaded.len(), JOBS, "{name}");
        for (job, &answer) in offloaded.iter().zip(&script) {
            let expected = if in_time(answer) {
                Outcome::Remote
            } else {
                Outcome::Compensated
            };
            assert_eq!(job.outcome, Some(expected), "{name}: job {}", job.job_id);
        }

        // Every timer fires before the horizon in the traced run, and it
        // finds its job served exactly when the answer came within `R`.
        let fired: Vec<(usize, bool)> = sink
            .events()
            .iter()
            .filter_map(|(_, event)| match *event {
                TraceEvent::CompensationTimerFired { job_id, stale, .. } => Some((job_id, stale)),
                _ => None,
            })
            .collect();
        let expected: Vec<(usize, bool)> = offloaded
            .iter()
            .zip(&script)
            .map(|(job, &answer)| (job.job_id, in_time(answer)))
            .collect();
        assert_eq!(fired, expected, "{name}");
    }
}

/// The check is load-bearing: with every answer lost or late, the naive
/// same-deadline policy runs the compensation too late and misses.
#[test]
fn naive_same_deadline_misses_when_answers_fail() {
    for (name, script) in scripts() {
        if script.iter().any(|&answer| in_time(answer)) {
            continue;
        }
        let naive = run(&script, DeadlinePolicy::NaiveSameDeadline, None);
        assert!(
            naive.total_deadline_misses() > 0,
            "{name}: naive EDF expected to miss"
        );
    }
}
