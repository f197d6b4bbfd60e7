//! Bench-side tracing. Spans are taken around the calls into each layer
//! from the benchmark's own code, and three decorators split a layer
//! further without changing what it computes:
//!
//! * [`TimedSolver`] splits `OffloadingDecisionManager::decide` into the
//!   MCKP solve and the rest (instance build, Theorem-3 cross-check);
//! * [`TimedServer`] totals the time and count of `OffloadServer::submit`
//!   calls of one simulation;
//! * [`StampSink`] stamps host time at the engine's last in-loop record
//!   and at its first deadline verdict, which splits `Simulation::run`
//!   into its event loop and its report build.
//!
//! Spans stay in memory and are written out when the run ends. A span's
//! self time is its duration minus its children's. The stamping sink
//! turns on every engine and server trace record, which an untraced op
//! never builds, so each span also counts the records emitted inside it:
//! the attribution charges them their measured cost and removes it.

use crate::alloc;
use rto_core::odm::{OdmTask, OffloadingPlan};
use rto_mckp::{MckpInstance, Selection, SolveError, Solver};
use rto_obs::{Obs, Record, TraceEvent, TraceSink};
use rto_server::gpu::{GpuServer, OffloadRequest, OffloadServer, SubmitOutcome};
use rto_server::ServerError;
use rto_sim::system::RequestShaper;
use rto_sim::{SimConfig, SimReport, Simulation};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Host nanoseconds since the first call, the timebase of every span.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed interval of one layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `crate.module.call`, or `op` / `setup` for a root.
    pub name: &'static str,
    /// Start, host ns.
    pub start_ns: u64,
    /// End, host ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which root (set-up or op) the span belongs to.
    pub op: u32,
    /// Calls folded into this span (aggregated server submits), else 1.
    pub calls: u64,
    /// Trace records emitted in the span's own time, not its children's.
    pub records: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: Vec<(&'static str, f64)>,
    op: u32,
}

/// Span and sample recorder. When off, every method is a branch and a
/// direct call, so the untraced run pays nothing measurable.
///
/// A mutex rather than a `RefCell`, because `rto-exp` trial bodies must
/// be `Sync`; the benchmark runs them on one thread, so it never waits.
pub struct Tracer {
    on: bool,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            inner: Mutex::default(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            inner: Mutex::default(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracer mutex poisoned: an op panicked mid-span")
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut g = self.lock();
            let id = g.spans.len();
            let (parent, op) = (g.open.last().copied(), g.op);
            g.spans.push(Span {
                name,
                start_ns: now_ns(),
                end_ns: 0,
                parent,
                op,
                calls: 1,
                records: 0,
            });
            g.open.push(id);
            id
        };
        let out = f();
        let end = now_ns();
        let mut g = self.lock();
        g.spans[id].end_ns = end;
        g.open.pop();
        out
    }

    /// Runs `f` as a new root span (`op` or `setup`) with a fresh op id.
    pub fn root<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.on {
            self.lock().op += 1;
        }
        self.span(name, f)
    }

    /// Records an interval measured elsewhere, under `parent` or else
    /// the innermost open span; returns its index.
    pub fn record(
        &self,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
        calls: u64,
        records: u64,
    ) -> usize {
        let mut g = self.lock();
        let id = g.spans.len();
        let parent = parent.or_else(|| g.open.last().copied());
        let op = g.op;
        g.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            calls,
            records,
        });
        id
    }

    /// Records one value of a per-layer quantity.
    pub fn sample(&self, name: &'static str, value: f64) {
        if self.on {
            self.lock().samples.push((name, value));
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Values recorded under `name`.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.lock()
            .samples
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect()
    }
}

/// Per-span self times (duration minus children), indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, &c)| s.dur().saturating_sub(c))
        .collect()
}

/// Durations (`self_only` false) or self times of every span named `name`.
pub fn times(spans: &[Span], name: &str, self_only: bool) -> Vec<f64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(s, &st)| if self_only { st } else { s.dur() } as f64)
        .collect()
}

/// Self time divided by the number of direct children, for every span
/// named `name`: the engine's cost per trial for `exp.engine.matrix`.
pub fn self_per_child(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += 1;
        }
    }
    let selfs = self_times(spans);
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == name && children[*i] > 0)
        .map(|(i, _)| selfs[i] as f64 / children[i] as f64)
        .collect()
}

/// One layer's row of the attribution table, summed over the traced ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Self time, ns.
    pub self_ns: u64,
    /// Trace records emitted in that self time.
    pub records: u64,
}

/// Self time and records per span name, summed over the `op` roots, plus
/// the total op time: the attribution table.
pub fn attribution(spans: &[Span]) -> (BTreeMap<&'static str, LayerTotal>, u64) {
    let selfs = self_times(spans);
    let in_op: Vec<bool> = {
        let mut in_op = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            // Parents precede children, so one forward pass suffices.
            in_op[i] = match s.parent {
                Some(p) => in_op[p],
                None => s.name == "op",
            };
        }
        in_op
    };
    let mut by_name = BTreeMap::new();
    let mut total = 0;
    for ((s, &st), &inside) in spans.iter().zip(&selfs).zip(&in_op) {
        if inside {
            let row: &mut LayerTotal = by_name.entry(s.name).or_default();
            row.self_ns += st;
            row.records += s.records;
            if s.parent.is_none() {
                total += s.dur();
            }
        }
    }
    (by_name, total)
}

/// Writes the spans of the first `max_ops` roots as JSON lines.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_spans(path: &std::path::Path, spans: &[Span], max_ops: u32) -> std::io::Result<()> {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.op <= max_ops) {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"calls\":{},\"records\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.calls, s.records
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Stamps the host time of the engine's records: the last one before the
/// first deadline verdict ends the event loop, since `Simulation::run`
/// emits verdicts only while building its report.
#[derive(Debug, Default)]
pub struct StampSink {
    records: AtomicU64,
    loop_records: AtomicU64,
    last_loop_ns: AtomicU64,
    first_verdict_ns: AtomicU64,
}

impl StampSink {
    /// Records seen.
    pub fn records(&self) -> u64 {
        self.records.load(Relaxed)
    }

    /// Records seen before the first deadline verdict: the event loop's.
    pub fn loop_records(&self) -> u64 {
        self.loop_records.load(Relaxed)
    }

    /// Host time of the last in-loop record, if any.
    pub fn loop_end_ns(&self) -> Option<u64> {
        Some(self.last_loop_ns.load(Relaxed)).filter(|&t| t > 0)
    }
}

impl TraceSink for StampSink {
    fn record(&self, rec: &Record) {
        self.records.fetch_add(1, Relaxed);
        let now = now_ns();
        let verdict = matches!(
            rec.event,
            TraceEvent::DeadlineMet { .. } | TraceEvent::DeadlineMissed { .. }
        );
        if self.first_verdict_ns.load(Relaxed) == 0 {
            if verdict {
                self.first_verdict_ns.store(now, Relaxed);
            } else {
                self.last_loop_ns.store(now, Relaxed);
                self.loop_records.fetch_add(1, Relaxed);
            }
        }
    }
}

/// Time, outcome and trace-record counts of one simulation's server calls.
#[derive(Debug, Default)]
pub struct ServerTally {
    ns: Cell<u64>,
    calls: Cell<u64>,
    lost: Cell<u64>,
    records: Cell<u64>,
}

/// Times every `submit` of the wrapped server into a [`ServerTally`], and
/// counts the records the server emits into `stamps` meanwhile.
pub struct TimedServer<S> {
    inner: S,
    tally: Rc<ServerTally>,
    stamps: Arc<StampSink>,
}

impl<S: OffloadServer> OffloadServer for TimedServer<S> {
    fn submit(&mut self, request: &OffloadRequest, now: rto_core::time::Instant) -> SubmitOutcome {
        let records = self.stamps.records();
        let start = Instant::now();
        let out = self.inner.submit(request, now);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let t = &self.tally;
        t.ns.set(t.ns.get() + ns);
        t.calls.set(t.calls.get() + 1);
        t.records
            .set(t.records.get() + (self.stamps.records() - records));
        if out == SubmitOutcome::Lost {
            t.lost.set(t.lost.get() + 1);
        }
        out
    }
}

/// Times each solve as a `mckp.dp.solve` span (the DP, whose peak heap it
/// also samples) or a `mckp.heu.solve` span (HEU-OE, the only other
/// solver the workloads use) under the open `core.odm.decide` span.
pub struct TimedSolver<'a> {
    inner: &'a dyn Solver,
    tracer: &'a Tracer,
}

impl<'a> TimedSolver<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Solver, tracer: &'a Tracer) -> Self {
        TimedSolver { inner, tracer }
    }
}

impl Solver for TimedSolver<'_> {
    fn solve(&self, instance: &MckpInstance) -> Result<Selection, SolveError> {
        let outer_peak = alloc::peak_bytes();
        let live = alloc::reset_peak();
        let dp = self.inner.name() == "dp";
        let name = if dp {
            "mckp.dp.solve"
        } else {
            "mckp.heu.solve"
        };
        let out = self.tracer.span(name, || self.inner.solve(instance));
        let peak = alloc::peak_bytes();
        alloc::restore_peak(outer_peak.max(peak));
        if dp {
            self.tracer
                .sample("mckp.dp.peak_mb", alloc::mb(peak.saturating_sub(live)));
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Decides `odm` with `solver`, as a `core.odm.decide` span whose solve
/// is a child span when tracing.
///
/// # Errors
///
/// Propagates the ODM's error as text.
pub fn decide(
    tr: &Tracer,
    odm: &rto_core::odm::OffloadingDecisionManager,
    solver: &dyn Solver,
) -> Result<OffloadingPlan, String> {
    tr.span("core.odm.decide", || {
        if tr.enabled() {
            odm.decide(&TimedSolver::new(solver, tr))
        } else {
            odm.decide(solver)
        }
    })
    .map_err(|e| e.to_string())
}

/// One simulation as the workloads run it: build the server from the
/// observability context, bind tasks to the plan, run.
///
/// Untraced, this is exactly the library calls. Traced, the server is a
/// [`TimedServer`], `base`'s registry sits behind a [`StampSink`], and the
/// run is recorded as `sim.system.{build,run,loop,report}` and
/// `server.gpu.{new,submit}` spans plus per-run samples.
///
/// # Errors
///
/// Any configuration or engine error, as text.
pub fn simulate(
    tr: &Tracer,
    base: &Obs,
    tasks: Vec<OdmTask>,
    plan: OffloadingPlan,
    server: impl FnOnce(&Obs) -> Result<GpuServer, ServerError>,
    shaper: Option<RequestShaper>,
    config: SimConfig,
) -> Result<SimReport, String> {
    let stamps = tr.enabled().then(|| Arc::new(StampSink::default()));
    let obs = match &stamps {
        Some(s) => Obs::new(s.clone(), base.metrics().clone()),
        None => base.clone(),
    };
    let server = tr
        .span("server.gpu.new", || server(&obs))
        .map_err(|e| e.to_string())?;
    let tally = Rc::new(ServerTally::default());
    let server: Box<dyn OffloadServer> = match &stamps {
        Some(s) => Box::new(TimedServer {
            inner: server,
            tally: tally.clone(),
            stamps: s.clone(),
        }),
        None => Box::new(server),
    };
    let mut sim = tr
        .span("sim.system.build", || Simulation::build(tasks, plan))
        .map_err(|e| e.to_string())?
        .with_obs(obs)
        .with_server(server);
    if let Some(shaper) = shaper {
        sim = sim.with_request_shaper(shaper);
    }
    let Some(stamps) = stamps else {
        return sim.run(config).map_err(|e| e.to_string());
    };

    let allocs = alloc::allocs();
    let start = now_ns();
    let report = sim.run(config);
    let end = now_ns();
    let allocs = alloc::allocs() - allocs;
    let report = report.map_err(|e| e.to_string())?;

    let loop_end = stamps.loop_end_ns().unwrap_or(end).clamp(start, end);
    let server_records = tally.records.get();
    let run = tr.record("sim.system.run", (start, end), None, 1, 0);
    let lp = tr.record(
        "sim.system.loop",
        (start, loop_end),
        Some(run),
        1,
        stamps.loop_records().saturating_sub(server_records),
    );
    let server_ns = tally.ns.get().min(loop_end - start);
    tr.record(
        "server.gpu.submit",
        (start, start + server_ns),
        Some(lp),
        tally.calls.get(),
        server_records,
    );
    tr.record(
        "sim.system.report",
        (loop_end, end),
        Some(run),
        1,
        stamps.records() - stamps.loop_records(),
    );

    let m = &report.metrics;
    let jobs = m.counter("sim_jobs_released_total").unwrap_or(0) as f64;
    let events = jobs
        + m.counter("sim_offloads_total").unwrap_or(0) as f64
        + m.counter("sim_server_responses_total").unwrap_or(0) as f64;
    let history = report.jobs.len() * std::mem::size_of::<rto_sim::job::JobRecord>()
        + report.trace.len() * std::mem::size_of::<rto_sim::job::Segment>()
        + report.subjobs.len() * std::mem::size_of::<rto_sim::metrics::SubJobLog>();
    let depth = m
        .histogram("sim_ready_queue_depth")
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum as f64 / h.count as f64);
    let calls = tally.calls.get() as f64;
    tr.sample("sim.events", events);
    tr.sample(
        "sim.loop_ns_per_job",
        (loop_end - start) as f64 / jobs.max(1.0),
    );
    tr.sample("sim.history_mb", alloc::mb(history));
    tr.sample("sim.allocs_per_job", allocs as f64 / jobs.max(1.0));
    tr.sample("sim.ready_depth_mean", depth);
    tr.sample("server.submits", calls);
    tr.sample("server.submit_ns", tally.ns.get() as f64 / calls.max(1.0));
    tr.sample(
        "server.lost_share",
        tally.lost.get() as f64 / calls.max(1.0),
    );
    tr.sample("obs.records", stamps.records() as f64);
    Ok(report)
}
