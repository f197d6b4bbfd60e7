//! Adversarial self-consistency for the calendar-queue engine:
//! byte-identical `SimReport`s for repeated runs across random systems
//! × seeds × scheduler × release × deadline policies × server
//! scenarios, plus boundary tests pinning the half-open `[0, horizon)`
//! contract at the exact edge. (This suite's original job — proving
//! the calendar engine byte-identical to the legacy `BinaryHeap`
//! engine — is done: the heap soaked as the differential oracle and
//! has been deleted. The event-queue unit tests keep a test-local
//! reference heap for pop-order cross-checks.)
//!
//! The same runs check the report's bookkeeping against the simple
//! quadratic code it replaced, kept here as test oracles: the online
//! preemption count against a fold over the trace's segments, and the
//! one-pass per-task statistics against a per-task filter over all
//! jobs.

use proptest::prelude::*;
use rto_core::benefit::BenefitFunction;
use rto_core::odm::{Decision, OdmTask, OffloadingDecisionManager, OffloadingPlan};
use rto_core::task::Task;
use rto_core::time::{Duration, Instant};
use rto_mckp::DpSolver;
use rto_server::gpu::PerfectServer;
use rto_server::Scenario;
use rto_sim::job::{JobRecord, Outcome, Segment, SubJobKind};
use rto_sim::metrics::TaskStats;
use rto_sim::prelude::*;
use rto_stats::Summary;
use std::collections::BTreeMap;

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

fn build_system(
    specs: &[(u64, u64, u64, u64, u64)],
) -> Option<(Vec<OdmTask>, rto_core::odm::OffloadingPlan)> {
    let mut tasks = Vec::new();
    for (i, &(c, c1, c2, t, r)) in specs.iter().enumerate() {
        let c = c.min(t);
        let task = Task::builder(i, format!("t{i}"))
            .local_wcet(ms(c))
            .setup_wcet(ms(c1))
            .compensation_wcet(ms(c2))
            .period(ms(t))
            .build()
            .ok()?;
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0), (r as f64, 5.0 + i as f64)]).ok()?;
        tasks.push(OdmTask::new(task, g));
    }
    let odm = OffloadingDecisionManager::new(tasks).ok()?;
    let plan = odm.decide(&DpSolver::default()).ok()?;
    Some((odm.tasks().to_vec(), plan))
}

/// Oracle: every extra (merged) segment of a sub-job implies one
/// earlier preemption.
fn preemptions_by_segment_fold(trace: &[Segment]) -> usize {
    let mut seg_counts: BTreeMap<(usize, SubJobKind), usize> = BTreeMap::new();
    for seg in trace {
        *seg_counts.entry((seg.job_id, seg.kind)).or_insert(0) += 1;
    }
    seg_counts.values().map(|&c| c - 1).sum()
}

/// Oracle: per-task statistics by filtering all jobs once per task.
fn per_task_by_filter(
    tasks: &[OdmTask],
    plan: &OffloadingPlan,
    jobs: &[JobRecord],
    horizon: Instant,
) -> Vec<TaskStats> {
    tasks
        .iter()
        .map(|t| {
            let task_id = t.task().id();
            let local_value = t.benefit().local_value() * t.weight();
            let level_value = match plan.get(task_id).map(|e| e.decision) {
                Some(Decision::Offload { level, .. }) => {
                    t.benefit().points()[level].value * t.weight()
                }
                _ => 0.0,
            };
            let mut stats = TaskStats {
                task_id,
                released: 0,
                accountable: 0,
                completed: 0,
                misses: 0,
                local_jobs: 0,
                remote_jobs: 0,
                compensated_jobs: 0,
                response_time: None,
                realized_benefit: 0.0,
                baseline_benefit: 0.0,
            };
            let mut rts: Vec<f64> = Vec::new();
            for job in jobs.iter().filter(|j| j.task_id == task_id) {
                stats.released += 1;
                if job.abs_deadline > horizon {
                    continue;
                }
                stats.accountable += 1;
                stats.baseline_benefit += local_value;
                if job.missed_deadline(horizon) {
                    stats.misses += 1;
                }
                if let (Some(_), Some(outcome)) = (job.completed_at, job.outcome) {
                    stats.completed += 1;
                    if let Some(rt) = job.response_time() {
                        rts.push(rt.as_ms_f64());
                    }
                    match outcome {
                        Outcome::Local => {
                            stats.local_jobs += 1;
                            stats.realized_benefit += local_value;
                        }
                        Outcome::Remote => {
                            stats.remote_jobs += 1;
                            stats.realized_benefit += level_value;
                        }
                        Outcome::Compensated => {
                            stats.compensated_jobs += 1;
                            stats.realized_benefit += local_value;
                        }
                    }
                }
            }
            stats.response_time = Summary::of(&rts);
            stats
        })
        .collect()
}

fn system_strategy() -> impl Strategy<Value = Vec<(u64, u64, u64, u64, u64)>> {
    prop::collection::vec(
        (5u64..=20, 1u64..=5, 5u64..=20, 80u64..=200).prop_flat_map(|(c, c1, c2, t)| {
            let max_r = t.saturating_sub(c1 + c2 + 1).max(1);
            (Just(c), Just(c1), Just(c2), Just(t), 1u64..=max_r)
        }),
        1..=4,
    )
}

fn scheduler_strategy() -> impl Strategy<Value = SchedulerPolicy> {
    prop_oneof![
        Just(SchedulerPolicy::Edf),
        Just(SchedulerPolicy::DeadlineMonotonic),
    ]
}

fn release_strategy() -> impl Strategy<Value = ReleasePolicy> {
    prop_oneof![
        Just(ReleasePolicy::Periodic),
        (1u64..=60).prop_map(|extra| ReleasePolicy::SporadicJitter {
            max_extra: ms(extra)
        }),
    ]
}

fn deadline_strategy() -> impl Strategy<Value = DeadlinePolicy> {
    prop_oneof![
        Just(DeadlinePolicy::PlanSplit),
        Just(DeadlinePolicy::NaiveSameDeadline),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Same inputs, repeated runs — the reports must serialize to the
    /// same bytes. Any hidden nondeterminism in the event queue (tie
    /// ordering, rebuild timing, overflow handoffs) would surface here
    /// as a diverging rerun under some random policy mix.
    #[test]
    fn engine_runs_are_deterministic(
        specs in system_strategy(),
        seed in 0u64..1000,
        scenario in 0usize..3,
        scheduler in scheduler_strategy(),
        release in release_strategy(),
        deadline in deadline_strategy(),
    ) {
        if let Some((tasks, plan)) = build_system(&specs) {
            let scenario = [Scenario::Idle, Scenario::NotBusy, Scenario::Busy][scenario];
            let run = || {
                let server = scenario.build_server(seed).expect("scenario server");
                Simulation::build(tasks.clone(), plan.clone())
                    .expect("plan covers tasks")
                    .with_server(Box::new(server))
                    .run(
                        SimConfig::for_seconds(2, seed)
                            .with_scheduler(scheduler)
                            .with_release(release)
                            .with_deadline_policy(deadline)
                            .with_exec_time(ExecutionTimeModel::UniformFraction {
                                min_fraction: 0.3,
                            }),
                    )
                    .expect("valid config")
            };
            let first = run();
            let second = run();
            // Structural equality first (better failure messages), then
            // the serialized bytes (the external contract).
            prop_assert_eq!(&first, &second);
            let first_bytes = serde_json::to_string(&first).expect("serializes");
            let second_bytes = serde_json::to_string(&second).expect("serializes");
            prop_assert_eq!(first_bytes, second_bytes, "reruns serialized differently");
            // The online bookkeeping against the quadratic oracles.
            prop_assert_eq!(first.preemptions, preemptions_by_segment_fold(&first.trace));
            let horizon = Instant::ZERO + first.horizon;
            prop_assert_eq!(
                &first.per_task,
                &per_task_by_filter(&tasks, &plan, &first.jobs, horizon)
            );
        }
    }
}

/// The horizon is half-open: an event scheduled *exactly* at the horizon
/// must never execute. The server response here lands precisely on the
/// horizon (setup finishes at 5 ms, response time 995 ms, horizon 1 s),
/// so the job must show no `response_at` even though the event was
/// enqueued.
#[test]
fn event_exactly_at_horizon_never_executes() {
    // One offloaded task, one job in the horizon: the next release and
    // the job's deadline land exactly on the 1 s horizon (period 1 s),
    // so the job is still accountable while nothing new is scheduled.
    let specs = [(50u64, 5u64, 50u64, 1000u64, 100u64)];
    let (tasks, plan) = build_system(&specs).expect("valid system");
    assert_eq!(plan.num_offloaded(), 1, "task must offload for this test");
    {
        let report = Simulation::build(tasks.clone(), plan.clone())
            .expect("plan covers tasks")
            .with_server(Box::new(PerfectServer {
                response_time: ms(995),
            }))
            .run(SimConfig::for_seconds(1, 0))
            .expect("valid config");
        let job = &report.jobs[0];
        assert_eq!(
            job.setup_finished_at,
            Some(rto_core::time::Instant::ZERO + ms(5)),
            "setup must finish at 5 ms for the response to land on the horizon"
        );
        assert_eq!(
            job.response_at, None,
            "response at exactly the horizon must never be processed"
        );
        // The compensation timer (at 105 ms) fired well inside the
        // horizon, so the job still completes the paper's way.
        assert_eq!(report.total_compensated(), 1);
        // And nothing in the trace runs at or past the horizon.
        let horizon = rto_core::time::Instant::ZERO + ms(1000);
        assert!(report.trace.iter().all(|seg| seg.end <= horizon));
    }
    // Control: one tick earlier and the response *is* processed.
    let (tasks, plan) = build_system(&specs).expect("valid system");
    let report = Simulation::build(tasks, plan)
        .expect("plan covers tasks")
        .with_server(Box::new(PerfectServer {
            response_time: ms(995).saturating_sub(Duration::from_ns(1)),
        }))
        .run(SimConfig::for_seconds(1, 0))
        .expect("valid config");
    assert!(
        report.jobs[0].response_at.is_some(),
        "response one tick inside the horizon must be processed"
    );
}

/// A release landing *exactly* on the horizon is never scheduled: a
/// 100 ms-period task over a 1 s horizon releases jobs at 0..=900 ms —
/// ten jobs, not eleven.
#[test]
fn release_at_horizon_never_schedules() {
    let t = Task::builder(0, "periodic")
        .local_wcet(ms(10))
        .period(ms(100))
        .build()
        .expect("valid task");
    let g = BenefitFunction::from_ms_points(&[(0.0, 1.0)]).expect("valid benefit");
    let odm = OffloadingDecisionManager::new(vec![OdmTask::new(t, g)]).expect("valid odm");
    let plan = odm.decide(&DpSolver::default()).expect("plan");
    let report = Simulation::build(odm.tasks().to_vec(), plan)
        .expect("plan covers tasks")
        .run(SimConfig::for_seconds(1, 0))
        .expect("valid config");
    assert_eq!(
        report.per_task[0].released, 10,
        "the release at t == horizon must not be scheduled"
    );
}
