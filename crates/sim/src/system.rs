//! The full-system simulation: EDF processor + offloading runtime +
//! compensation timers + server.

use crate::error::SimError;
use crate::event::{Event, EventQueue};
use crate::job::{JobRecord, Outcome, Segment, SubJobKind};
use crate::metrics::{aggregate, SimReport, SubJobLog};
use rto_core::compensation::{CompensationManager, ResultDisposition, TimerDisposition};
use rto_core::odm::{Decision, OdmTask, OffloadingPlan};
use rto_core::task::TaskId;
use rto_core::time::{Duration, Instant};
use rto_obs::{span, Counter, Histogram, Obs, Phase, TraceEvent};
use rto_server::gpu::{BlackHoleServer, OffloadRequest, OffloadServer};
use rto_stats::Rng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Maps the simulator's sub-job kind onto the observability phase tag.
fn phase_of(kind: SubJobKind) -> Phase {
    match kind {
        SubJobKind::LocalWhole => Phase::LocalWhole,
        SubJobKind::Setup => Phase::Setup,
        SubJobKind::PostProcess => Phase::PostProcess,
        SubJobKind::Compensation => Phase::Compensation,
    }
}

/// Pre-resolved metric handles so the hot path never locks the registry.
struct SimMetrics {
    jobs_released: Counter,
    offloads: Counter,
    requests_lost: Counter,
    responses: Counter,
    responses_late: Counter,
    compensations: Counter,
    misses: Counter,
    preemptions: Counter,
    server_response_ns: Histogram,
    ready_queue_depth: Histogram,
}

impl SimMetrics {
    fn new(obs: &Obs) -> Self {
        let m = obs.metrics();
        SimMetrics {
            jobs_released: m.counter("sim_jobs_released_total"),
            offloads: m.counter("sim_offloads_total"),
            requests_lost: m.counter("sim_requests_lost_total"),
            responses: m.counter("sim_server_responses_total"),
            responses_late: m.counter("sim_server_responses_late_total"),
            compensations: m.counter("sim_compensations_total"),
            misses: m.counter("sim_deadline_misses_total"),
            preemptions: m.counter("sim_preemptions_total"),
            server_response_ns: m.histogram("sim_server_response_ns"),
            ready_queue_depth: m.histogram("sim_ready_queue_depth"),
        }
    }
}

/// How job releases recur.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReleasePolicy {
    /// Strictly periodic releases (the critical-instant pattern).
    Periodic,
    /// Sporadic: period plus a uniform extra gap in `[0, max_extra]`.
    SporadicJitter {
        /// Maximum extra inter-arrival gap.
        max_extra: Duration,
    },
}

/// How actual execution times relate to WCETs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionTimeModel {
    /// Every execution takes exactly its WCET (worst case).
    Wcet,
    /// Uniformly distributed in `[min_fraction · WCET, WCET]`.
    UniformFraction {
        /// Lower bound as a fraction of the WCET (in `[0, 1]`).
        min_fraction: f64,
    },
}

impl ExecutionTimeModel {
    /// Samples an actual execution time for a sub-job with the given
    /// WCET. The contract — relied on by every call site, none of which
    /// re-clamps — is: zero demand stays zero (zero-work sub-jobs
    /// complete instantly, without touching the ready queue), and any
    /// nonzero demand costs at least one tick, so the scheduler always
    /// makes progress.
    fn sample(&self, wcet: Duration, rng: &mut Rng) -> Duration {
        if wcet.is_zero() {
            return Duration::ZERO;
        }
        let d = match *self {
            ExecutionTimeModel::Wcet => wcet,
            ExecutionTimeModel::UniformFraction { min_fraction } => {
                let f = rng.f64_range(min_fraction.clamp(0.0, 1.0), 1.0);
                // `f` is clamped to [0,1], so scaling cannot fail; the
                // fallback over-approximates with the full WCET, the
                // safe direction for demand (lint L3).
                wcet.scale_f64(f).unwrap_or(wcet)
            }
        };
        d.max(Duration::from_ns(1))
    }
}

/// Which absolute deadline the setup sub-job gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlinePolicy {
    /// The plan's split deadline `D_{i,1}` (the paper's algorithm).
    #[default]
    PlanSplit,
    /// Naive EDF: both phases carry the original deadline `D_i` (the
    /// baseline §5.1 argues performs poorly).
    NaiveSameDeadline,
}

/// Which scheduling policy orders the ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Preemptive EDF over sub-job absolute deadlines (the paper's
    /// algorithm).
    #[default]
    Edf,
    /// Preemptive deadline-monotonic fixed priorities: all sub-jobs of a
    /// task share the priority implied by the task's relative deadline
    /// (baseline; EDF is optimal on one processor, DM is not).
    DeadlineMonotonic,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Simulated time span.
    pub horizon: Duration,
    /// RNG seed (controls execution times and release jitter; the server
    /// has its own seed).
    pub seed: u64,
    /// Release recurrence.
    pub release: ReleasePolicy,
    /// Actual-execution-time model.
    pub exec_time: ExecutionTimeModel,
    /// Setup-deadline assignment.
    pub deadline_policy: DeadlinePolicy,
    /// Ready-queue ordering policy.
    pub scheduler: SchedulerPolicy,
}

impl SimConfig {
    /// A default configuration: worst-case execution times, periodic
    /// releases, plan-split deadlines.
    pub fn new(horizon: Duration, seed: u64) -> Self {
        SimConfig {
            horizon,
            seed,
            release: ReleasePolicy::Periodic,
            exec_time: ExecutionTimeModel::Wcet,
            deadline_policy: DeadlinePolicy::PlanSplit,
            scheduler: SchedulerPolicy::Edf,
        }
    }

    /// Shorthand for an `n`-second horizon.
    pub fn for_seconds(n: u64, seed: u64) -> Self {
        SimConfig::new(Duration::from_secs(n), seed)
    }

    /// Sets the release policy.
    pub fn with_release(mut self, release: ReleasePolicy) -> Self {
        self.release = release;
        self
    }

    /// Sets the execution-time model.
    pub fn with_exec_time(mut self, exec_time: ExecutionTimeModel) -> Self {
        self.exec_time = exec_time;
        self
    }

    /// Sets the deadline policy.
    pub fn with_deadline_policy(mut self, policy: DeadlinePolicy) -> Self {
        self.deadline_policy = policy;
        self
    }

    /// Sets the scheduler policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Per-task resolved plan parameters.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Local,
    Offload {
        level: usize,
        response_time: Duration,
        setup_deadline: Duration,
        setup_wcet: Duration,
        /// What actually executes if the timer fires: the real per-level
        /// compensation WCET (`C_{i,2}`), regardless of what the plan
        /// budgeted — a plan that trusted a server bound and budgeted
        /// only `C_{i,3}` pays the honest price if the bound is violated.
        timeout_wcet: Duration,
    },
}

/// Shapes the [`OffloadRequest`] sent for a task at a given level (e.g.
/// image payload sizes per scaling level in the case study).
pub type RequestShaper = Box<dyn Fn(&rto_core::task::Task, usize) -> OffloadRequest>;

/// A configured simulation, ready to [`Simulation::run`].
pub struct Simulation {
    tasks: Vec<OdmTask>,
    modes: Vec<Mode>,
    benefits: Vec<(f64, f64)>, // per task: (weighted local value, weighted level value)
    server: Box<dyn OffloadServer>,
    shaper: Option<RequestShaper>,
    /// The installed context; `run` makes a disabled one when none is.
    obs: Option<Obs>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("tasks", &self.tasks.len())
            .field("modes", &self.modes)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Binds tasks to a plan (the plan must cover exactly these tasks).
    ///
    /// The server defaults to a black hole (every offload lost — pure
    /// compensation); install a real model with
    /// [`Simulation::with_server`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] when a task has no plan entry,
    /// two tasks share an id, or the task list is empty.
    pub fn build(tasks: Vec<OdmTask>, plan: OffloadingPlan) -> Result<Self, SimError> {
        if tasks.is_empty() {
            return Err(SimError::config("no tasks"));
        }
        // One id → decision map for the whole plan, so binding costs
        // O(tasks · log tasks) rather than a plan scan per task. The
        // first entry for an id wins, as with `OffloadingPlan::get`;
        // each entry binds one task, so a second task with the same id
        // finds it taken.
        let mut unbound: BTreeMap<TaskId, Option<Decision>> = BTreeMap::new();
        for entry in plan.decisions() {
            unbound.entry(entry.task_id).or_insert(Some(entry.decision));
        }
        let mut modes = Vec::with_capacity(tasks.len());
        let mut benefits = Vec::with_capacity(tasks.len());
        for t in &tasks {
            let id = t.task().id();
            let decision = unbound
                .get_mut(&id)
                .ok_or_else(|| SimError::config(format!("no plan entry for {id}")))?
                .take()
                .ok_or_else(|| SimError::config(format!("duplicate task id {id}")))?;
            let local_value = t.benefit().local_value() * t.weight();
            match decision {
                Decision::Local => {
                    modes.push(Mode::Local);
                    benefits.push((local_value, 0.0));
                }
                Decision::Offload {
                    level,
                    response_time,
                    setup_deadline,
                    setup_wcet,
                    ..
                } => {
                    if level >= t.benefit().num_levels() {
                        return Err(SimError::config(format!(
                            "plan level {level} out of range for {}",
                            t.task().id()
                        )));
                    }
                    // The timeout path always runs the real per-level
                    // compensation code.
                    let timeout_wcet = t.benefit().points()[level]
                        .compensation_wcet
                        .unwrap_or_else(|| t.task().compensation_wcet());
                    modes.push(Mode::Offload {
                        level,
                        response_time,
                        setup_deadline,
                        setup_wcet,
                        timeout_wcet,
                    });
                    let level_value = t.benefit().points()[level].value * t.weight();
                    benefits.push((local_value, level_value));
                }
            }
        }
        Ok(Simulation {
            tasks,
            modes,
            benefits,
            server: Box::new(BlackHoleServer),
            shaper: None,
            obs: None,
        })
    }

    /// Installs the offload server model.
    pub fn with_server(mut self, server: Box<dyn OffloadServer>) -> Self {
        self.server = server;
        self
    }

    /// Installs a request shaper (payload sizes / compute scale per task
    /// and level).
    pub fn with_request_shaper(mut self, shaper: RequestShaper) -> Self {
        self.shaper = Some(shaper);
        self
    }

    /// Installs an observability context: every runtime transition is
    /// recorded into its trace sink, and the run's metrics land in its
    /// registry (snapshotted into [`SimReport::metrics`]).
    ///
    /// The default context is disabled and costs nothing per event.
    /// Observability never influences scheduling or the RNG streams:
    /// instrumented and uninstrumented runs with the same seed produce
    /// identical traces.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Runs the simulation to the horizon.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for a zero horizon; propagates
    /// [`SimError::Core`] only on internal protocol bugs (never on
    /// validated inputs).
    pub fn run(self, config: SimConfig) -> Result<SimReport, SimError> {
        if config.horizon.is_zero() {
            return Err(SimError::config("zero horizon"));
        }
        let mut rng = Rng::seed_from(config.seed);
        let exec_rng = rng.fork(1);
        let release_rng = rng.fork(2);
        let obs = self.obs.unwrap_or_default();
        let m = SimMetrics::new(&obs);
        // Steady state holds at most one release, one response, and one
        // timer per task; pre-sizing keeps `push` off the allocator on
        // the hot path (A7).
        let event_cap = self.tasks.len().saturating_mul(3).max(16);
        // The run records are sized once, from the horizon and the
        // periods, instead of growing by doubling.
        let (jobs, subjobs) = record_bounds(&self.tasks, &self.modes, config.horizon);
        let mut engine = Engine {
            ready: BinaryHeap::with_capacity(self.tasks.len()),
            tasks: self.tasks,
            modes: self.modes,
            benefits: self.benefits,
            server: self.server,
            shaper: self.shaper,
            config,
            horizon: Instant::ZERO + config.horizon,
            clock: Instant::ZERO,
            events: EventQueue::with_capacity(event_cap),
            partial: Vec::new(),
            jobs: Vec::with_capacity(jobs),
            job_task: Vec::with_capacity(jobs),
            subjobs: Vec::with_capacity(subjobs),
            subjob_slot: Vec::with_capacity(jobs),
            trace: Vec::with_capacity(subjobs),
            busy: Duration::ZERO,
            preemptions: 0,
            exec_rng,
            release_rng,
            obs,
            m,
            running: None,
            running_end: Instant::ZERO,
        };
        engine.run()
    }
}

/// The most jobs [`Simulation::run`] reserves records for before the
/// first event, so that an absurd horizon does not reserve gigabytes up
/// front. 2^17 jobs is ~20 MB of job records, task indexes and lookup
/// rows, and the twice as many sub-job logs and trace segments it
/// allows add ~25 MB. A longer run grows its records past it as it goes.
const MAX_RESERVED_JOBS: usize = 1 << 17;

/// Upper bounds on the jobs and sub-jobs a run over `horizon` records,
/// each capped at [`MAX_RESERVED_JOBS`] jobs' worth.
///
/// Task `i` releases at time zero and then at least a period apart, and
/// only before the horizon, so it releases at most `⌈H / T_i⌉` jobs:
/// exactly that many under periodic releases, an upper bound under
/// sporadic ones. A local job logs one sub-job; an offloaded job logs
/// its setup and then either its post-processing or its compensation.
fn record_bounds(tasks: &[OdmTask], modes: &[Mode], horizon: Duration) -> (usize, usize) {
    let (mut jobs, mut subjobs) = (0usize, 0usize);
    for (task, mode) in tasks.iter().zip(modes) {
        // Periods are validated nonzero; `max(1)` keeps the division total.
        let released = horizon
            .as_ns()
            .div_ceil(task.task().period().as_ns().max(1));
        let released = usize::try_from(released).unwrap_or(usize::MAX);
        let per_job = match mode {
            Mode::Local => 1,
            Mode::Offload { .. } => 2,
        };
        jobs = jobs.saturating_add(released);
        subjobs = subjobs.saturating_add(released.saturating_mul(per_job));
    }
    (
        jobs.min(MAX_RESERVED_JOBS),
        subjobs.min(2 * MAX_RESERVED_JOBS),
    )
}

/// A ready-queue key: the policy's priority key in the high half and the
/// sub-job's index into `Engine::subjobs` in the low half, so one `u128`
/// compare orders by priority and then by index.
///
/// Under EDF the priority key is the sub-job's absolute deadline; under
/// deadline-monotonic it is the owning task's relative deadline (a
/// static priority). Sub-job indices are assigned in release order, so
/// sub-jobs of equal priority run first-released first.
fn ready_key(priority_key: u64, subjob: usize) -> u128 {
    // `usize` is at most 64 bits on every target the sim supports.
    u128::from(priority_key).wrapping_shl(64) | u128::from(subjob as u64)
}

/// The sub-job index of a [`ready_key`].
fn subjob_of(key: u128) -> usize {
    // The low half came from a `usize`; an index that did not fit would
    // name no sub-job, and the run fails with an invariant error.
    usize::try_from(key & u128::from(u64::MAX)).unwrap_or(usize::MAX)
}

/// The running simulation state.
struct Engine {
    tasks: Vec<OdmTask>,
    modes: Vec<Mode>,
    benefits: Vec<(f64, f64)>,
    server: Box<dyn OffloadServer>,
    shaper: Option<RequestShaper>,
    config: SimConfig,
    horizon: Instant,
    clock: Instant,
    events: EventQueue,
    /// Ready sub-jobs as min-ordered [`ready_key`]s. A sub-job's
    /// deadline, job and kind are read from its `subjobs` log, and its
    /// remaining work is its logged `work` unless `partial` holds it.
    ready: BinaryHeap<Reverse<u128>>,
    /// `(sub-job index, remaining work)` of each ready sub-job that has
    /// run a slice without finishing. Only sub-jobs cut off by an event
    /// or the horizon are here, so the table stays a few entries long.
    partial: Vec<(usize, Duration)>,
    jobs: Vec<JobRecord>,
    /// The releasing task's index for each job, pushed in lockstep with
    /// `jobs`, so a job's task is one array read. Never serialized.
    job_task: Vec<usize>,
    subjobs: Vec<SubJobLog>,
    /// Dense sub-job lookup: `subjob_slot[job_id][kind.slot()]` is the
    /// index into `subjobs`, or `usize::MAX` while unreleased. One row
    /// is pushed per job, so this replaces a `HashMap<(usize,
    /// SubJobKind), usize>` with two array indexes on the hot path.
    subjob_slot: Vec<[usize; SubJobKind::COUNT]>,
    trace: Vec<Segment>,
    busy: Duration,
    /// Resumptions of a preempted sub-job, counted as they happen: each
    /// opens one more segment for its sub-job, so this equals the sum
    /// over sub-jobs of (segments − 1).
    preemptions: usize,
    exec_rng: Rng,
    release_rng: Rng,
    obs: Obs,
    m: SimMetrics,
    /// The sub-job currently holding the processor span (for
    /// start/preempt trace events), and when its last slice ended.
    running: Option<(usize, SubJobKind)>,
    running_end: Instant,
}

impl Engine {
    fn run(&mut self) -> Result<SimReport, SimError> {
        for i in 0..self.tasks.len() {
            self.events
                .push(Instant::ZERO, Event::Release { task_index: i });
        }
        // analyze: allow(A8): each pass drains due events and either advances the clock to the next event / horizon or exits; the zero-length-step invariant below denies stalls
        loop {
            // Drain all events due at or before the clock (batched:
            // one call peeks and pops, and a same-instant burst streams
            // out of the calendar bucket's sorted run).
            while let Some((t, ev)) = self.events.pop_due(self.clock) {
                self.handle_event(ev, t)?;
            }
            match self.ready.pop() {
                Some(Reverse(key)) => {
                    let idx = subjob_of(key);
                    let (job_id, kind, deadline, work) = match self.subjobs.get(idx) {
                        Some(log) => (log.job_id, log.kind, log.abs_deadline, log.work),
                        None => return Err(SimError::invariant("ready key names no sub-job")),
                    };
                    let remaining = match self.partial.iter().position(|&(i, _)| i == idx) {
                        Some(at) => self.partial.swap_remove(at).1,
                        None => work,
                    };
                    let next_event = self.events.peek_time().unwrap_or(Instant::MAX);
                    let completion = self.clock + remaining;
                    let run_until = completion.min(next_event).min(self.horizon);
                    if run_until <= self.clock {
                        // Ready entries always carry nonzero remaining
                        // work, due events are fully drained above, and
                        // the loop exits at the horizon — so a
                        // zero-length step is unreachable. If the
                        // invariant ever breaks, a release build must
                        // fail the run rather than spin forever making
                        // no progress (a `debug_assert!` guarded this
                        // before, i.e. not at all in release).
                        return Err(SimError::invariant("zero-length scheduling step"));
                    }
                    let executed = run_until.since(self.clock);
                    self.busy += executed;
                    // Trace the processor hand-off: close the previous
                    // span (a preemption, since it did not complete) and
                    // open one for this sub-job.
                    let cur = (job_id, kind);
                    if self.running != Some(cur) {
                        if let Some((pj, pk)) = self.running.take() {
                            self.obs.emit_in(
                                self.running_end.as_ns(),
                                span::phase_ctx(pj, phase_of(pk)),
                                TraceEvent::SubJobPreempted {
                                    job_id: pj,
                                    task_id: self.jobs[pj].task_id.0,
                                    phase: phase_of(pk),
                                },
                            );
                            self.m.preemptions.inc();
                        }
                        // A sub-job with work done opens another segment:
                        // a resumption.
                        if remaining < work {
                            self.preemptions += 1;
                        }
                        self.obs.emit_in(
                            self.clock.as_ns(),
                            span::phase_ctx(job_id, phase_of(kind)),
                            TraceEvent::SubJobStarted {
                                job_id,
                                task_id: self.jobs[job_id].task_id.0,
                                phase: phase_of(kind),
                            },
                        );
                        self.running = Some(cur);
                    }
                    self.running_end = run_until;
                    // Merge contiguous same-sub-job segments.
                    match self.trace.last_mut() {
                        Some(last)
                            if last.end == self.clock
                                && last.job_id == job_id
                                && last.kind == kind =>
                        {
                            last.end = run_until;
                        }
                        _ => self.trace.push(Segment {
                            start: self.clock,
                            end: run_until,
                            job_id,
                            kind,
                            abs_deadline: deadline,
                        }),
                    }
                    let remaining = remaining.saturating_sub(executed);
                    self.clock = run_until;
                    if remaining.is_zero() {
                        self.running = None;
                        self.complete_subjob(job_id, kind, self.clock)?;
                    } else {
                        self.partial.push((idx, remaining));
                        self.ready.push(Reverse(key));
                    }
                    if self.clock >= self.horizon {
                        break;
                    }
                }
                None => match self.events.pop() {
                    Some((t, ev)) if t < self.horizon => {
                        self.clock = self.clock.max(t);
                        self.handle_event(ev, t)?;
                    }
                    _ => break,
                },
            }
        }
        Ok(self.report())
    }

    fn handle_event(&mut self, ev: Event, t: Instant) -> Result<(), SimError> {
        match ev {
            Event::Release { task_index } => self.handle_release(task_index, t),
            Event::ServerResponse { job_id } => self.handle_response(job_id, t),
            Event::CompensationTimer { job_id } => self.handle_timer(job_id, t),
        }
    }

    fn handle_release(&mut self, task_index: usize, t0: Instant) -> Result<(), SimError> {
        let task = self.tasks[task_index].task();
        let job_id = self.jobs.len();
        let abs_deadline = t0 + task.deadline();
        let mode = self.modes[task_index];
        let (deadline_rel, period, local_wcet) =
            (task.deadline(), task.period(), task.local_wcet());
        let compensation = match mode {
            Mode::Offload { response_time, .. } => Some(CompensationManager::new(response_time)),
            Mode::Local => None,
        };
        self.jobs.push(JobRecord {
            job_id,
            task_id: task.id(),
            released_at: t0,
            abs_deadline,
            completed_at: None,
            outcome: None,
            compensation,
            setup_finished_at: None,
            response_at: None,
        });
        // One task index and one dense sub-job-lookup row per job, in
        // lockstep with `jobs`.
        self.job_task.push(task_index);
        self.subjob_slot.push([usize::MAX; SubJobKind::COUNT]);
        self.obs.emit_in(
            t0.as_ns(),
            span::job_ctx(job_id),
            TraceEvent::JobReleased {
                job_id,
                task_id: task.id().0,
                deadline_ns: abs_deadline.as_ns(),
            },
        );
        self.m.jobs_released.inc();
        match mode {
            Mode::Local => {
                let work = self.config.exec_time.sample(local_wcet, &mut self.exec_rng);
                self.release_subjob(job_id, SubJobKind::LocalWhole, work, abs_deadline, t0)?;
            }
            Mode::Offload {
                setup_deadline,
                setup_wcet,
                ..
            } => {
                let d1 = match self.config.deadline_policy {
                    DeadlinePolicy::PlanSplit => setup_deadline,
                    DeadlinePolicy::NaiveSameDeadline => deadline_rel,
                };
                let work = self.config.exec_time.sample(setup_wcet, &mut self.exec_rng);
                self.release_subjob(job_id, SubJobKind::Setup, work, t0 + d1, t0)?;
            }
        }
        // Schedule the next release.
        let gap = match self.config.release {
            ReleasePolicy::Periodic => period,
            ReleasePolicy::SporadicJitter { max_extra } => {
                let extra = Duration::from_ns(if max_extra.is_zero() {
                    0
                } else {
                    self.release_rng.u64_range(0, max_extra.as_ns())
                });
                period + extra
            }
        };
        let next = t0 + gap;
        if next < self.horizon {
            self.events.push(next, Event::Release { task_index });
        }
        Ok(())
    }

    fn handle_response(&mut self, job_id: usize, t: Instant) -> Result<(), SimError> {
        let (disposition, abs_deadline, sent_at) = {
            let job = &mut self.jobs[job_id];
            if job.response_at.is_none() {
                job.response_at = Some(t);
            }
            let mgr = job.compensation.as_mut().ok_or_else(|| {
                SimError::invariant("response event for a job that was never offloaded")
            })?;
            (
                mgr.result_arrived(t)?,
                job.abs_deadline,
                job.setup_finished_at,
            )
        };
        let late = disposition != ResultDisposition::Accepted;
        self.obs.emit_in(
            t.as_ns(),
            span::offload_ctx(job_id),
            TraceEvent::ServerResponseArrived {
                job_id,
                task_id: self.jobs[job_id].task_id.0,
                late,
            },
        );
        self.m.responses.inc();
        if late {
            self.m.responses_late.inc();
        }
        if let Some(sent) = sent_at {
            self.m.server_response_ns.record(t.since(sent).as_ns());
        }
        if disposition == ResultDisposition::Accepted {
            let task_index = self.task_index_of(job_id)?;
            let c3 = self.tasks[task_index].task().postprocess_wcet();
            let work = self.config.exec_time.sample(c3, &mut self.exec_rng);
            self.release_subjob(job_id, SubJobKind::PostProcess, work, abs_deadline, t)?;
        }
        Ok(())
    }

    fn handle_timer(&mut self, job_id: usize, t: Instant) -> Result<(), SimError> {
        let (disposition, abs_deadline) = {
            let job = &mut self.jobs[job_id];
            let mgr = job.compensation.as_mut().ok_or_else(|| {
                SimError::invariant("compensation timer fired for a job that was never offloaded")
            })?;
            (mgr.timer_fired(t)?, job.abs_deadline)
        };
        self.obs.emit_in(
            t.as_ns(),
            span::timer_ctx(job_id),
            TraceEvent::CompensationTimerFired {
                job_id,
                task_id: self.jobs[job_id].task_id.0,
                stale: disposition == TimerDisposition::Stale,
            },
        );
        if disposition == TimerDisposition::StartedCompensation {
            self.m.compensations.inc();
            let task_index = self.task_index_of(job_id)?;
            let c2 = match self.modes[task_index] {
                Mode::Offload { timeout_wcet, .. } => timeout_wcet,
                Mode::Local => {
                    return Err(SimError::invariant(
                        "compensation timer fired for a local-mode task",
                    ))
                }
            };
            let work = self.config.exec_time.sample(c2, &mut self.exec_rng);
            self.release_subjob(job_id, SubJobKind::Compensation, work, abs_deadline, t)?;
        }
        Ok(())
    }

    fn task_index_of(&self, job_id: usize) -> Result<usize, SimError> {
        self.job_task
            .get(job_id)
            .copied()
            .ok_or_else(|| SimError::invariant(format!("job {job_id} was never released")))
    }

    /// Makes a sub-job ready; zero-work sub-jobs complete instantly.
    fn release_subjob(
        &mut self,
        job_id: usize,
        kind: SubJobKind,
        work: Duration,
        deadline: Instant,
        now: Instant,
    ) -> Result<(), SimError> {
        let idx = self.subjobs.len();
        if let Some(slot) = self
            .subjob_slot
            .get_mut(job_id)
            .and_then(|row| row.get_mut(kind.slot()))
        {
            *slot = idx;
        }
        self.subjobs.push(SubJobLog {
            job_id,
            kind,
            released_at: now,
            work,
            abs_deadline: deadline,
            completed_at: None,
        });
        self.obs.emit_in(
            now.as_ns(),
            span::phase_ctx(job_id, phase_of(kind)),
            TraceEvent::SubJobDispatched {
                job_id,
                task_id: self.jobs[job_id].task_id.0,
                phase: phase_of(kind),
            },
        );
        if work.is_zero() {
            self.complete_subjob(job_id, kind, now)
        } else {
            let priority_key = match self.config.scheduler {
                SchedulerPolicy::Edf => deadline.as_ns(),
                SchedulerPolicy::DeadlineMonotonic => {
                    let task_index = self.task_index_of(job_id)?;
                    self.tasks[task_index].task().deadline().as_ns()
                }
            };
            self.ready.push(Reverse(ready_key(priority_key, idx)));
            self.m.ready_queue_depth.record(self.ready.len() as u64);
            Ok(())
        }
    }

    /// Handles a sub-job finishing at `now`.
    fn complete_subjob(
        &mut self,
        job_id: usize,
        kind: SubJobKind,
        now: Instant,
    ) -> Result<(), SimError> {
        // `usize::MAX` (unreleased) falls through the bounds check.
        let idx = self
            .subjob_slot
            .get(job_id)
            .and_then(|row| row.get(kind.slot()))
            .copied()
            .unwrap_or(usize::MAX);
        if let Some(log) = self.subjobs.get_mut(idx) {
            log.completed_at = Some(now);
        }
        self.obs.emit_in(
            now.as_ns(),
            span::phase_ctx(job_id, phase_of(kind)),
            TraceEvent::SubJobCompleted {
                job_id,
                task_id: self.jobs[job_id].task_id.0,
                phase: phase_of(kind),
            },
        );
        match kind {
            SubJobKind::LocalWhole => {
                let job = &mut self.jobs[job_id];
                job.completed_at = Some(now);
                job.outcome = Some(Outcome::Local);
            }
            SubJobKind::Setup => {
                let timer_at = {
                    let job = &mut self.jobs[job_id];
                    job.setup_finished_at = Some(now);
                    let mgr = job.compensation.as_mut().ok_or_else(|| {
                        SimError::invariant("setup sub-job finished on a non-offloaded job")
                    })?;
                    mgr.setup_finished(now)?
                };
                // Fire the offload request, then arm the timer. Enqueue
                // order matters: a response arriving exactly at `R_i`
                // must be processed before the timer (the manager accepts
                // boundary results). So a timer acts only when the answer
                // is lost or arrives after `timer_at`; any other timer
                // finds its job served, and is armed only for a sink,
                // which records it as stale.
                let task_index = self.task_index_of(job_id)?;
                let level = match self.modes[task_index] {
                    Mode::Offload { level, .. } => level,
                    Mode::Local => {
                        return Err(SimError::invariant("setup sub-job on a local-mode task"))
                    }
                };
                let request = match &self.shaper {
                    Some(shaper) => shaper(self.tasks[task_index].task(), level),
                    None => OffloadRequest::new(self.jobs[job_id].task_id.0),
                }
                .with_span(span::offload_ctx(job_id));
                let task_id = self.jobs[job_id].task_id.0;
                self.obs.emit_in(
                    now.as_ns(),
                    span::offload_ctx(job_id),
                    TraceEvent::OffloadRequestSent {
                        job_id,
                        task_id,
                        payload_bytes: request.payload_bytes,
                    },
                );
                self.m.offloads.inc();
                let arrival = self.server.submit(&request, now).arrival();
                match arrival {
                    Some(arrives_at) => {
                        self.events
                            .push(arrives_at, Event::ServerResponse { job_id });
                    }
                    None => {
                        self.obs.emit_in(
                            now.as_ns(),
                            span::offload_ctx(job_id),
                            TraceEvent::OffloadRequestLost { job_id, task_id },
                        );
                        self.m.requests_lost.inc();
                    }
                }
                if arrival.is_none_or(|at| at > timer_at) || self.obs.tracing_enabled() {
                    self.obs.emit_in(
                        now.as_ns(),
                        span::timer_ctx(job_id),
                        TraceEvent::CompensationTimerArmed {
                            job_id,
                            task_id,
                            fires_at_ns: timer_at.as_ns(),
                        },
                    );
                    self.events
                        .push(timer_at, Event::CompensationTimer { job_id });
                }
            }
            SubJobKind::PostProcess | SubJobKind::Compensation => {
                let job = &mut self.jobs[job_id];
                let mgr = job.compensation.as_mut().ok_or_else(|| {
                    SimError::invariant("completion sub-job on a non-offloaded job")
                })?;
                let outcome = mgr.completion_finished()?;
                job.completed_at = Some(now);
                job.outcome = Some(match outcome {
                    rto_core::compensation::JobOutcome::Remote => Outcome::Remote,
                    rto_core::compensation::JobOutcome::Compensated => Outcome::Compensated,
                });
            }
        }
        Ok(())
    }

    fn report(&mut self) -> SimReport {
        // Deadline verdicts for accountable jobs, in deadline order so
        // the trace stays monotonic. A verdict is final at the deadline
        // for completed jobs and at the horizon for unfinished ones. The
        // list only orders trace records, so it is built only for a sink
        // that wants them.
        if self.obs.tracing_enabled() {
            let mut verdicts: Vec<(u64, usize)> = self
                .jobs
                .iter()
                .filter(|j| j.abs_deadline <= self.horizon)
                .map(|j| {
                    let ts = match j.completed_at {
                        Some(done) => done.max(j.abs_deadline).min(self.horizon),
                        None => self.horizon,
                    };
                    (ts.as_ns(), j.job_id)
                })
                .collect();
            verdicts.sort_unstable();
            for (ts_ns, job_id) in verdicts {
                let job = &self.jobs[job_id];
                let task_id = job.task_id.0;
                let event = if job.missed_deadline(self.horizon) {
                    TraceEvent::DeadlineMissed { job_id, task_id }
                } else {
                    TraceEvent::DeadlineMet { job_id, task_id }
                };
                self.obs.emit_in(ts_ns, span::job_ctx(job_id), event);
            }
        }

        let task_ids: Vec<TaskId> = self.tasks.iter().map(|t| t.task().id()).collect();
        let per_task = aggregate(
            &task_ids,
            &self.benefits,
            &self.jobs,
            &self.job_task,
            self.horizon,
        );
        let misses: usize = per_task.iter().map(|t| t.misses).sum();
        self.m.misses.add(misses as u64);
        SimReport {
            horizon: self.config.horizon,
            seed: self.config.seed,
            per_task,
            jobs: std::mem::take(&mut self.jobs),
            trace: std::mem::take(&mut self.trace),
            subjobs: std::mem::take(&mut self.subjobs),
            busy_time: self.busy,
            preemptions: self.preemptions,
            metrics: self.obs.metrics().snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rto_core::benefit::BenefitFunction;
    use rto_core::odm::OffloadingDecisionManager;
    use rto_core::task::Task;
    use rto_mckp::DpSolver;
    use rto_server::gpu::PerfectServer;
    use rto_server::Scenario;

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    fn offloadable_task(id: usize, c: u64, c1: u64, c2: u64, t: u64) -> Task {
        Task::builder(id, format!("t{id}"))
            .local_wcet(ms(c))
            .setup_wcet(ms(c1))
            .compensation_wcet(ms(c2))
            .period(ms(t))
            .build()
            .unwrap()
    }

    fn plan_for(tasks: Vec<OdmTask>) -> (Vec<OdmTask>, OffloadingPlan) {
        let odm = OffloadingDecisionManager::new(tasks).unwrap();
        let plan = odm.decide(&DpSolver::default()).unwrap();
        (odm.tasks().to_vec(), plan)
    }

    #[test]
    fn local_only_system_meets_deadlines() {
        let t1 = offloadable_task(0, 30, 2, 30, 100);
        let t2 = offloadable_task(1, 40, 2, 40, 100);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t1, g.clone()), OdmTask::new(t2, g)]);
        let report = Simulation::build(tasks, plan)
            .unwrap()
            .run(SimConfig::for_seconds(2, 1))
            .unwrap();
        assert_eq!(report.total_deadline_misses(), 0);
        // 20 jobs of each task accountable in 2 s.
        assert_eq!(report.per_task[0].accountable, 20);
        assert!(report.utilization() > 0.6 && report.utilization() <= 0.71);
    }

    #[test]
    fn offloaded_with_perfect_server_all_remote() {
        let t = offloadable_task(0, 50, 5, 50, 200);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0), (100.0, 9.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t, g)]);
        assert_eq!(plan.num_offloaded(), 1);
        let report = Simulation::build(tasks, plan)
            .unwrap()
            .with_server(Box::new(PerfectServer {
                response_time: ms(20),
            }))
            .run(SimConfig::for_seconds(2, 2))
            .unwrap();
        assert_eq!(report.total_deadline_misses(), 0);
        assert_eq!(report.total_compensated(), 0);
        assert_eq!(report.total_remote(), 10);
        // Realized benefit: 10 jobs at value 9.
        assert!((report.total_realized_benefit() - 90.0).abs() < 1e-9);
        assert!((report.total_baseline_benefit() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn black_hole_server_all_compensated_no_misses() {
        let t = offloadable_task(0, 50, 5, 50, 200);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0), (100.0, 9.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t, g)]);
        let report = Simulation::build(tasks, plan)
            .unwrap()
            .run(SimConfig::for_seconds(2, 3))
            .unwrap();
        // The whole point of the paper: server totally dead, zero misses.
        assert_eq!(report.total_deadline_misses(), 0);
        assert_eq!(report.total_remote(), 0);
        assert_eq!(report.total_compensated(), 10);
        assert!((report.total_realized_benefit() - 10.0).abs() < 1e-9);
        assert!((report.normalized_benefit() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slow_server_triggers_compensation() {
        let t = offloadable_task(0, 50, 5, 50, 200);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0), (100.0, 9.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t, g)]);
        let report = Simulation::build(tasks, plan)
            .unwrap()
            .with_server(Box::new(PerfectServer {
                response_time: ms(150), // beyond R = 100
            }))
            .run(SimConfig::for_seconds(2, 4))
            .unwrap();
        assert_eq!(report.total_deadline_misses(), 0);
        assert_eq!(report.total_remote(), 0);
        assert_eq!(report.total_compensated(), 10);
        // Late responses were recorded but dropped.
        assert!(report.jobs.iter().all(|j| j.response_at.is_some()));
    }

    #[test]
    fn response_exactly_at_timer_counts_remote() {
        let t = offloadable_task(0, 50, 5, 50, 200);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0), (100.0, 9.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t, g)]);
        let report = Simulation::build(tasks, plan)
            .unwrap()
            .with_server(Box::new(PerfectServer {
                response_time: ms(100), // exactly R
            }))
            .run(SimConfig::for_seconds(1, 5))
            .unwrap();
        // The response event (insertion order) precedes the timer at the
        // same instant, and the manager accepts results at the boundary.
        assert_eq!(report.total_remote(), 5);
        assert_eq!(report.total_compensated(), 0);
    }

    #[test]
    fn mixed_system_under_scenario_server() {
        let t1 = offloadable_task(0, 60, 5, 60, 400);
        let t2 = offloadable_task(1, 80, 5, 80, 400);
        let g1 = BenefitFunction::from_ms_points(&[(0.0, 1.0), (150.0, 5.0)]).unwrap();
        let g2 = BenefitFunction::from_ms_points(&[(0.0, 2.0), (200.0, 8.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t1, g1), OdmTask::new(t2, g2)]);
        let server = Scenario::Idle.build_server(99).unwrap();
        let report = Simulation::build(tasks, plan)
            .unwrap()
            .with_server(Box::new(server))
            .run(SimConfig::for_seconds(10, 6))
            .unwrap();
        assert_eq!(report.total_deadline_misses(), 0);
        // Idle server: most offloads should come back in time.
        let remote = report.total_remote();
        let compensated = report.total_compensated();
        assert!(
            remote > compensated,
            "idle server should mostly succeed: {remote} vs {compensated}"
        );
    }

    #[test]
    fn sporadic_jitter_reduces_job_count() {
        let t = offloadable_task(0, 10, 2, 10, 100);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t, g)]);
        let periodic = Simulation::build(tasks.clone(), plan.clone())
            .unwrap()
            .run(SimConfig::for_seconds(2, 7))
            .unwrap();
        let sporadic = Simulation::build(tasks, plan)
            .unwrap()
            .run(
                SimConfig::for_seconds(2, 7)
                    .with_release(ReleasePolicy::SporadicJitter { max_extra: ms(50) }),
            )
            .unwrap();
        assert!(sporadic.per_task[0].released < periodic.per_task[0].released);
        assert_eq!(sporadic.total_deadline_misses(), 0);
    }

    #[test]
    fn uniform_fraction_exec_lowers_utilization() {
        let t = offloadable_task(0, 50, 2, 50, 100);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t, g)]);
        let wcet = Simulation::build(tasks.clone(), plan.clone())
            .unwrap()
            .run(SimConfig::for_seconds(2, 8))
            .unwrap();
        let relaxed = Simulation::build(tasks, plan)
            .unwrap()
            .run(
                SimConfig::for_seconds(2, 8)
                    .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.2 }),
            )
            .unwrap();
        assert!(relaxed.utilization() < wcet.utilization());
        assert_eq!(relaxed.total_deadline_misses(), 0);
    }

    #[test]
    fn naive_deadline_policy_misses_where_split_does_not() {
        // One offloaded task next to a heavy local task. Under the paper's
        // split, the setup sub-job's early deadline makes it run first, so
        // the compensation timer fires early and the fallback fits. Under
        // naive same-deadline EDF the setup procrastinates behind the
        // local task, and the late compensation overruns the deadline.
        let a = offloadable_task(0, 30, 10, 30, 100); // offloaded, R=20
        let b = Task::builder(1, "local-heavy")
            .local_wcet(ms(45))
            .period(ms(90))
            .build()
            .unwrap();
        let ga = BenefitFunction::from_ms_points(&[(0.0, 1.0), (20.0, 9.0)]).unwrap();
        let gb = BenefitFunction::from_ms_points(&[(0.0, 1.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(a, ga), OdmTask::new(b, gb)]);
        assert_eq!(plan.num_offloaded(), 1);
        // Theorem-3 load: 40/80 + 45/90 = 1.0 — exactly feasible.
        assert!((plan.total_density() - 1.0).abs() < 1e-9);
        let split = Simulation::build(tasks.clone(), plan.clone())
            .unwrap()
            .run(SimConfig::for_seconds(2, 9))
            .unwrap();
        assert_eq!(split.total_deadline_misses(), 0);
        let naive = Simulation::build(tasks, plan)
            .unwrap()
            .run(
                SimConfig::for_seconds(2, 9)
                    .with_deadline_policy(DeadlinePolicy::NaiveSameDeadline),
            )
            .unwrap();
        // Black-hole server: every job needs compensation; naive deadlines
        // leave too little room.
        assert!(
            naive.total_deadline_misses() > 0,
            "naive EDF expected to miss"
        );
    }

    #[test]
    fn deadline_monotonic_misses_where_edf_does_not() {
        // The classic non-DM-schedulable, EDF-schedulable pair at
        // utilization 1.0: (C=25, T=D=50) and (C=40, T=D=80). Under DM the
        // short-deadline task preempts at t=50 and the long one finishes
        // at 90 > 80; EDF finishes it at 65.
        let a = Task::builder(0, "short")
            .local_wcet(ms(25))
            .period(ms(50))
            .build()
            .unwrap();
        let b = Task::builder(1, "long")
            .local_wcet(ms(40))
            .period(ms(80))
            .build()
            .unwrap();
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(a, g.clone()), OdmTask::new(b, g)]);
        let edf = Simulation::build(tasks.clone(), plan.clone())
            .unwrap()
            .run(SimConfig::for_seconds(2, 12))
            .unwrap();
        assert_eq!(edf.total_deadline_misses(), 0, "EDF is optimal here");
        let dm = Simulation::build(tasks, plan)
            .unwrap()
            .run(SimConfig::for_seconds(2, 12).with_scheduler(SchedulerPolicy::DeadlineMonotonic))
            .unwrap();
        assert!(dm.total_deadline_misses() > 0, "DM should miss at U = 1");
        // The DM run is still a structurally valid trace.
        assert!(crate::validate::audit_trace(&dm).is_empty());
    }

    #[test]
    fn build_validation() {
        let t = offloadable_task(0, 10, 2, 10, 100);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t, g.clone())]);
        assert!(Simulation::build(vec![], plan.clone()).is_err());
        // Plan missing a task.
        let extra = OdmTask::new(offloadable_task(7, 10, 2, 10, 100), g.clone());
        let mut both = tasks.clone();
        both.push(extra);
        assert!(Simulation::build(both, plan.clone()).is_err());
        // Two tasks sharing an id would both bind to its one plan entry,
        // and the report would credit each with both tasks' jobs.
        let twin = OdmTask::new(offloadable_task(0, 20, 2, 20, 200), g);
        let mut twins = tasks;
        twins.push(twin);
        let err = Simulation::build(twins, plan).unwrap_err();
        assert!(
            matches!(err, SimError::BadConfig(ref msg) if msg.contains("duplicate task id")),
            "expected a duplicate-id config error, got {err:?}"
        );
    }

    #[test]
    fn zero_horizon_rejected() {
        let t = offloadable_task(0, 10, 2, 10, 100);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t, g)]);
        let sim = Simulation::build(tasks, plan).unwrap();
        assert!(sim.run(SimConfig::new(Duration::ZERO, 0)).is_err());
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let t = offloadable_task(0, 40, 5, 40, 150);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0), (60.0, 5.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t, g)]);
        let run = |seed| {
            Simulation::build(tasks.clone(), plan.clone())
                .unwrap()
                .with_server(Box::new(Scenario::NotBusy.build_server(seed).unwrap()))
                .run(
                    SimConfig::for_seconds(5, seed)
                        .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.5 }),
                )
                .unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_eq!(a.total_realized_benefit(), b.total_realized_benefit());
        let c = run(43);
        assert_ne!(a.trace, c.trace);
    }

    /// Regression: a zero-length scheduling step must fail the run with
    /// a typed invariant error. Before, it was only `debug_assert!`ed —
    /// a release build hitting it would spin forever making no
    /// progress. The engine is constructed directly with a corrupt
    /// ready sub-job (zero work) since no valid input can reach the
    /// state.
    #[test]
    fn zero_length_step_is_an_error_not_a_hang() {
        let config = SimConfig::for_seconds(1, 0);
        let obs = Obs::disabled();
        let m = SimMetrics::new(&obs);
        let mut engine = Engine {
            tasks: Vec::new(),
            modes: Vec::new(),
            benefits: Vec::new(),
            server: Box::new(BlackHoleServer),
            shaper: None,
            config,
            horizon: Instant::ZERO + config.horizon,
            clock: Instant::ZERO,
            events: EventQueue::new(),
            ready: BinaryHeap::new(),
            partial: Vec::new(),
            jobs: Vec::new(),
            job_task: Vec::new(),
            subjobs: Vec::new(),
            subjob_slot: Vec::new(),
            trace: Vec::new(),
            busy: Duration::ZERO,
            preemptions: 0,
            exec_rng: Rng::seed_from(0),
            release_rng: Rng::seed_from(1),
            obs,
            m,
            running: None,
            running_end: Instant::ZERO,
        };
        engine.subjobs.push(SubJobLog {
            job_id: 0,
            kind: SubJobKind::LocalWhole,
            released_at: Instant::ZERO,
            work: Duration::ZERO,
            abs_deadline: Instant::ZERO,
            completed_at: None,
        });
        engine.ready.push(Reverse(ready_key(0, 0)));
        let err = engine.run().unwrap_err();
        assert!(
            matches!(err, SimError::Invariant(ref msg) if msg.contains("zero-length")),
            "expected the zero-length-step invariant error, got {err:?}"
        );
    }

    fn local_task(id: usize, c: u64, t: u64) -> OdmTask {
        let task = Task::builder(id, format!("l{id}"))
            .local_wcet(ms(c))
            .period(ms(t))
            .build()
            .unwrap();
        OdmTask::new(
            task,
            BenefitFunction::from_ms_points(&[(0.0, 1.0)]).unwrap(),
        )
    }

    /// The ready queue orders by (priority key, sub-job index), under
    /// both policies: sub-jobs of equal priority run in release order,
    /// and a preempted sub-job resumes with exactly the work it has left.
    #[test]
    fn ready_queue_runs_ties_in_release_order_and_resumes_remaining_work() {
        for scheduler in [SchedulerPolicy::Edf, SchedulerPolicy::DeadlineMonotonic] {
            // Three tasks with one deadline: every period releases three
            // jobs of equal priority, which must run in job-id (release)
            // order, whichever task comes first in the list.
            for order in [[0, 1, 2], [2, 0, 1]] {
                let costs = [10, 20, 5];
                let tasks = order.map(|i| local_task(i, costs[i], 100)).to_vec();
                let (tasks, plan) = plan_for(tasks);
                let report = Simulation::build(tasks, plan)
                    .unwrap()
                    .run(SimConfig::for_seconds(1, 1).with_scheduler(scheduler))
                    .unwrap();
                assert_eq!(report.trace.len(), report.jobs.len(), "{scheduler:?}");
                assert!(
                    report.trace.windows(2).all(|w| w[0].job_id < w[1].job_id),
                    "{scheduler:?} {order:?}: equal priorities out of release order"
                );
            }
            // A short-deadline task preempts a long job twice per period;
            // the long job's segments add up to its sampled work exactly,
            // and it completes where its last segment ends.
            let (tasks, plan) = plan_for(vec![local_task(0, 10, 30), local_task(1, 50, 200)]);
            let report = Simulation::build(tasks, plan)
                .unwrap()
                .run(
                    SimConfig::for_seconds(1, 3)
                        .with_scheduler(scheduler)
                        .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.9 }),
                )
                .unwrap();
            assert_eq!(report.total_deadline_misses(), 0);
            let mut resumptions = 0;
            for log in &report.subjobs {
                let segments: Vec<&Segment> = report
                    .trace
                    .iter()
                    .filter(|s| s.job_id == log.job_id && s.kind == log.kind)
                    .collect();
                let ran = segments.iter().fold(Duration::ZERO, |acc, s| acc + s.len());
                assert_eq!(ran, log.work, "{scheduler:?} job {}", log.job_id);
                assert_eq!(log.completed_at, segments.last().map(|s| s.end));
                resumptions += segments.len() - 1;
            }
            assert!(
                resumptions >= 10,
                "{scheduler:?}: {resumptions} resumptions"
            );
            assert_eq!(report.preemptions, resumptions, "{scheduler:?}");
        }
    }

    /// The sampling contract lives in `sample` alone: zero demand stays
    /// zero (zero-work sub-jobs complete instantly) and nonzero demand
    /// costs at least one tick — call sites no longer re-clamp.
    #[test]
    fn sample_zero_stays_zero_nonzero_at_least_one_tick() {
        let mut rng = Rng::seed_from(7);
        let models = [
            ExecutionTimeModel::Wcet,
            ExecutionTimeModel::UniformFraction { min_fraction: 0.0 },
        ];
        for model in models {
            assert_eq!(model.sample(Duration::ZERO, &mut rng), Duration::ZERO);
            for _ in 0..64 {
                let d = model.sample(Duration::from_ns(1), &mut rng);
                assert!(d >= Duration::from_ns(1), "sampled below one tick: {d:?}");
            }
        }
        // The worst-case model passes the WCET through unchanged.
        let mut rng = Rng::seed_from(8);
        assert_eq!(ExecutionTimeModel::Wcet.sample(ms(5), &mut rng), ms(5));
    }

    /// Two runs of the identical configuration serialize to the same
    /// bytes — the engine is fully deterministic (the cross-policy
    /// adversarial proptest lives in `tests/engine_differential.rs`).
    #[test]
    fn identical_configs_reproduce_byte_identical_runs() {
        let t1 = offloadable_task(0, 60, 5, 60, 400);
        let t2 = offloadable_task(1, 80, 5, 80, 400);
        let g1 = BenefitFunction::from_ms_points(&[(0.0, 1.0), (150.0, 5.0)]).unwrap();
        let g2 = BenefitFunction::from_ms_points(&[(0.0, 2.0), (200.0, 8.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t1, g1), OdmTask::new(t2, g2)]);
        let run = || {
            let server = Scenario::NotBusy.build_server(5).unwrap();
            Simulation::build(tasks.clone(), plan.clone())
                .unwrap()
                .with_server(Box::new(server))
                .run(
                    SimConfig::for_seconds(5, 11)
                        .with_exec_time(ExecutionTimeModel::UniformFraction { min_fraction: 0.3 }),
                )
                .unwrap()
        };
        assert_eq!(
            serde_json::to_string(&run()).unwrap(),
            serde_json::to_string(&run()).unwrap(),
            "identical configurations produced diverging runs"
        );
    }

    /// The reservation bound is the release count itself under periodic
    /// releases, and an upper bound under sporadic ones.
    #[test]
    fn record_bounds_match_periodic_and_bound_sporadic_releases() {
        let t1 = offloadable_task(0, 60, 5, 60, 400);
        let t2 = offloadable_task(1, 80, 5, 80, 300);
        let g1 = BenefitFunction::from_ms_points(&[(0.0, 1.0), (150.0, 5.0)]).unwrap();
        let g2 = BenefitFunction::from_ms_points(&[(0.0, 2.0), (200.0, 8.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t1, g1), OdmTask::new(t2, g2)]);
        let jitter = ReleasePolicy::SporadicJitter { max_extra: ms(150) };
        // Horizons on, just past and between release instants.
        for horizon_ms in [1, 299, 300, 301, 1_200, 1_201, 5_000, 5_999] {
            for release in [ReleasePolicy::Periodic, jitter] {
                let sim = Simulation::build(tasks.clone(), plan.clone())
                    .unwrap()
                    .with_server(Box::new(Scenario::NotBusy.build_server(3).unwrap()));
                let (jobs, subjobs) = record_bounds(&sim.tasks, &sim.modes, ms(horizon_ms));
                let report = sim
                    .run(SimConfig::new(ms(horizon_ms), 9).with_release(release))
                    .unwrap();
                let at = format!("{horizon_ms} ms, {release:?}");
                if release == ReleasePolicy::Periodic {
                    assert_eq!(report.jobs.len(), jobs, "{at}");
                } else {
                    assert!(report.jobs.len() <= jobs, "{at}");
                }
                assert!(report.subjobs.len() <= subjobs, "{at}");
            }
        }
        // An absurd horizon reserves no more than the cap.
        let sim = Simulation::build(tasks, plan).unwrap();
        let (jobs, subjobs) = record_bounds(&sim.tasks, &sim.modes, Duration::MAX);
        assert_eq!((jobs, subjobs), (MAX_RESERVED_JOBS, 2 * MAX_RESERVED_JOBS));
    }

    #[test]
    fn request_shaper_is_used() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = calls.clone();
        let t = offloadable_task(0, 50, 5, 50, 200);
        let g = BenefitFunction::from_ms_points(&[(0.0, 1.0), (100.0, 9.0)]).unwrap();
        let (tasks, plan) = plan_for(vec![OdmTask::new(t, g)]);
        let _ = Simulation::build(tasks, plan)
            .unwrap()
            .with_server(Box::new(PerfectServer {
                response_time: ms(10),
            }))
            .with_request_shaper(Box::new(move |task, level| {
                calls2.fetch_add(1, Ordering::Relaxed);
                OffloadRequest::new(task.id().0).with_compute_scale(level as f64)
            }))
            .run(SimConfig::for_seconds(1, 10))
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 5);
    }
}
