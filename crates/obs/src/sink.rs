//! Trace sinks: where [`Record`]s go.
//!
//! A [`TraceSink`] receives timestamped, span-annotated records from
//! the instrumented runtime. Six implementations cover the common
//! cases:
//!
//! * [`NullSink`] — the default; discards everything with near-zero
//!   overhead (no locks, no allocation, `enabled()` is `false` so
//!   emitters can skip event construction entirely).
//! * [`MemorySink`] — buffers records in memory, for tests and analysis.
//! * [`RingSink`] — keeps only the most recent records (bounded memory),
//!   backing the live `/spans/recent` endpoint.
//! * [`JsonlSink`] — one JSON object per line, append-only, suitable
//!   for `jq`/pandas pipelines and golden-file testing.
//! * [`ChromeTraceSink`] — Chrome/Perfetto trace-event JSON with
//!   `B`/`E` duration spans on a CPU lane and per-request server lanes,
//!   `i` instants for point events, and `s`/`f` flow arrows tying an
//!   offload's CPU side to its server lane when records carry span
//!   contexts. Load the output at `chrome://tracing` or
//!   <https://ui.perfetto.dev>.
//! * [`FanoutSink`] — duplicates every record to several child sinks.

use crate::event::TraceEvent;
use crate::span::SpanContext;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// One recorded observation: a timestamp, an optional causal span
/// context, and the event itself. All-`Copy`, so recording through the
/// disabled path never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Monotonic timestamp in nanoseconds (simulated time for the
    /// simulator, host time for the experiment engine, 0 for offline
    /// emitters).
    pub ts_ns: u64,
    /// The causal span this event belongs to, if the emitter knows it.
    pub span: Option<SpanContext>,
    /// The event.
    pub event: TraceEvent,
}

impl Record {
    /// A record with no span context.
    pub fn new(ts_ns: u64, event: TraceEvent) -> Record {
        Record {
            ts_ns,
            span: None,
            event,
        }
    }

    /// A record annotated with a span context.
    pub fn spanned(ts_ns: u64, ctx: SpanContext, event: TraceEvent) -> Record {
        Record {
            ts_ns,
            span: Some(ctx),
            event,
        }
    }

    /// Appends this record as one JSON object (no trailing newline):
    /// the event's fixed-order fields, then — only when a span context
    /// is attached — `span` and optional `parent` as the *last* keys,
    /// so span-less output stays byte-identical to the pre-span format.
    pub fn write_json(&self, out: &mut String) {
        self.event.write_json(self.ts_ns, out);
        if let Some(ctx) = self.span {
            out.pop();
            let _ = write!(out, ",\"span\":{}", ctx.span.raw());
            if let Some(parent) = ctx.parent {
                let _ = write!(out, ",\"parent\":{}", parent.raw());
            }
            out.push('}');
        }
    }

    /// Renders this record as one JSON line (convenience wrapper around
    /// [`Record::write_json`]).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(112);
        self.write_json(&mut s);
        s
    }
}

/// A destination for trace records.
///
/// Implementations must be thread-safe: the registry hands out
/// `Arc<dyn TraceSink>` and sub-systems may record concurrently.
pub trait TraceSink: Send + Sync {
    /// Whether this sink wants records at all. Emitters may (but need
    /// not) skip event construction when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one observation.
    fn record(&self, rec: &Record);
}

/// The default sink: discards every record.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&self, _rec: &Record) {}
}

/// An in-memory sink for tests and post-hoc analysis.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<Record>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the record buffer, recovering from poisoning: appends to a
    /// `Vec` cannot leave it inconsistent, and observability must never
    /// take the process down (lint L3).
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Record>> {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Clones out everything recorded so far, in record order.
    pub fn snapshot(&self) -> Vec<Record> {
        self.lock().clone()
    }

    /// Clones out `(ts_ns, event)` pairs, dropping span annotations —
    /// the pre-span view most assertions want.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        self.lock().iter().map(|r| (r.ts_ns, r.event)).collect()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<Record> {
        std::mem::take(&mut *self.lock())
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, rec: &Record) {
        self.lock().push(*rec);
    }
}

/// A bounded in-memory sink that keeps only the most recent records.
///
/// Backs the live `/spans/recent` endpoint: long sweeps can run with
/// tracing on without unbounded memory growth.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    records: Mutex<VecDeque<Record>>,
}

impl RingSink {
    /// Creates a ring keeping at most `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            records: Mutex::new(VecDeque::new()),
        }
    }

    /// Lock with poison recovery (append/pop only; lint L3).
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Record>> {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The most recent records, oldest first.
    pub fn recent(&self) -> Vec<Record> {
        self.lock().iter().copied().collect()
    }

    /// Number of records currently held (at most the capacity).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing is currently held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingSink {
    fn record(&self, rec: &Record) {
        let mut buf = self.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(*rec);
    }
}

/// Duplicates every record to several child sinks.
///
/// Enabled iff any child is; disabled children are skipped per record.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// Fans out to `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("children", &self.sinks.len())
            .finish()
    }
}

impl TraceSink for FanoutSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, rec: &Record) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.record(rec);
            }
        }
    }
}

/// Writes one JSON object per line to any [`Write`] target.
///
/// I/O errors cannot propagate through [`TraceSink::record`]; the sink
/// records the first failure and reports it via
/// [`JsonlSink::had_io_error`] and on [`JsonlSink::into_inner`].
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
    errored: AtomicBool,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
            errored: AtomicBool::new(false),
        }
    }

    /// Whether any write so far failed.
    pub fn had_io_error(&self) -> bool {
        // analyze: allow(L6): sticky error flag; readers only need eventual visibility
        self.errored.load(Ordering::Relaxed)
    }

    /// Appends one pre-rendered line (no trailing newline needed) to
    /// the stream, with the same swallowed-error discipline as
    /// [`TraceSink::record`]. Used for auxiliary JSONL views (e.g. the
    /// `spans` summary rows) that share the event stream's file.
    pub fn write_line(&self, line: &str) {
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if w.write_all(line.as_bytes()).is_err() || w.write_all(b"\n").is_err() {
            // analyze: allow(L6): sticky one-way flag; ordering with the write itself is irrelevant
            self.errored.store(true, Ordering::Relaxed);
        }
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Reports a previously swallowed write error or a flush failure.
    pub fn into_inner(self) -> std::io::Result<W> {
        let mut w = self
            .writer
            .into_inner()
            // Poison recovery: the writer state survives a panic intact
            // enough to flush; a swallowed panic must not cascade
            // (lint L3).
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        w.flush()?;
        // analyze: allow(L6): sticky error flag read after the writer mutex synchronized
        if self.errored.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("a trace write failed earlier"));
        }
        Ok(w)
    }
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and streams JSONL into it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, rec: &Record) {
        let mut line = String::with_capacity(112);
        rec.write_json(&mut line);
        line.push('\n');
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if w.write_all(line.as_bytes()).is_err() {
            // analyze: allow(L6): sticky one-way flag; ordering with the write itself is irrelevant
            self.errored.store(true, Ordering::Relaxed);
        }
    }
}

/// The CPU lane's Chrome thread id.
const CPU_TID: u64 = 0;
/// First server lane; each concurrently in-flight request gets its own.
const SERVER_TID_BASE: u64 = 100;

/// The Chrome `tid` of server lane `lane`, with the lane index bounded
/// before widening so the interval analysis (A4) can prove the
/// arithmetic never wraps. 65 535 concurrent lanes is far beyond any
/// real trace.
fn lane_tid(lane: usize) -> u64 {
    SERVER_TID_BASE + lane.min(65_535) as u64
}

#[derive(Debug, Default)]
struct ChromeState {
    /// `(ts_ns, rendered trace-event JSON)`, in record order. Rendering
    /// stable-sorts by timestamp, so out-of-order arrivals from
    /// multi-threaded runs cannot misorder the document.
    events: Vec<(u64, String)>,
    /// `Some(job_id)` per occupied server lane.
    server_lanes: Vec<Option<usize>>,
    /// High-water mark of server lanes ever used (for metadata).
    lanes_used: usize,
    /// Whether a CPU span is currently open (for balance at render).
    cpu_open: Option<(usize, usize)>,
    /// Largest timestamp seen.
    last_ts_ns: u64,
}

/// Collects records into Chrome/Perfetto trace-event JSON.
///
/// * Sub-job execution renders as `B`/`E` spans on the CPU lane
///   (`tid 0`): `SubJobDispatched` opens, `SubJobPreempted` /
///   `SubJobCompleted` close. On a uniprocessor the spans nest
///   trivially.
/// * Each in-flight offload renders as a `B`/`E` span on its own server
///   lane (`tid 100+`), opened by `OffloadRequestSent` and closed by
///   `ServerResponseArrived` or `OffloadRequestLost`. When the record
///   carries a span context, Perfetto flow arrows (`ph:"s"`/`ph:"f"`)
///   link the CPU side to the server lane in both directions.
/// * Everything else renders as an `i` instant.
///
/// The document always carries stable `process_name`/`thread_name`
/// metadata and emits events in nondecreasing `ts` order, so Perfetto
/// never drops or misorders events from multi-threaded `rto-exp` runs.
///
/// Call [`ChromeTraceSink::render`] at the end to get the complete JSON
/// document (open spans are closed at the last seen timestamp).
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    state: Mutex<ChromeState>,
}

fn chrome_ts(ts_ns: u64) -> f64 {
    // analyze: allow(L4): already-recorded observational ns sample; Chrome's trace format wants f64 microseconds
    ts_ns as f64 / 1000.0
}

fn push_span(events: &mut Vec<(u64, String)>, ph: char, name: &str, ts_ns: u64, tid: u64) {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{:?},\"pid\":1,\"tid\":{tid}}}",
        chrome_ts(ts_ns)
    );
    events.push((ts_ns, s));
}

fn push_instant(events: &mut Vec<(u64, String)>, name: &str, ts_ns: u64, tid: u64, detail: &str) {
    let mut s = String::with_capacity(128);
    let _ = write!(
        s,
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:?},\"pid\":1,\"tid\":{tid},\"args\":{{{detail}}}}}",
        chrome_ts(ts_ns)
    );
    events.push((ts_ns, s));
}

/// One leg of a Perfetto flow arrow. `ph` is `'s'` (start) or `'f'`
/// (finish; rendered with `bp:"e"` so it binds to the enclosing slice).
fn push_flow(events: &mut Vec<(u64, String)>, ph: char, id: &str, ts_ns: u64, tid: u64) {
    let mut s = String::with_capacity(128);
    let bp = if ph == 'f' { ",\"bp\":\"e\"" } else { "" };
    let _ = write!(
        s,
        "{{\"name\":\"offload\",\"cat\":\"offload\",\"ph\":\"{ph}\",\"id\":\"{id}\"{bp},\"ts\":{:?},\"pid\":1,\"tid\":{tid}}}",
        chrome_ts(ts_ns)
    );
    events.push((ts_ns, s));
}

impl ChromeTraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the accumulated Chrome state, recovering from poisoning
    /// (appends only — a panic cannot corrupt it; lint L3).
    fn lock(&self) -> std::sync::MutexGuard<'_, ChromeState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Renders the complete Chrome trace-event JSON document.
    ///
    /// Open spans (e.g. a response that never arrived) are closed at the
    /// last recorded timestamp so the file always loads cleanly.
    pub fn render(&self) -> String {
        let state = self.lock();
        let mut out = String::with_capacity(64 + state.events.len() * 100);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |s: &str, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(s);
        };
        // Stable process/lane names first, so viewers label the rows.
        emit(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"rto\"}}",
            &mut out,
        );
        emit(
            "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":1,\"args\":{\"sort_index\":0}}",
            &mut out,
        );
        let mut meta = String::new();
        let _ = write!(
            meta,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{CPU_TID},\"args\":{{\"name\":\"cpu\"}}}}"
        );
        emit(&meta, &mut out);
        for lane in 0..state.lanes_used {
            let mut meta = String::new();
            let _ = write!(
                meta,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"server slot {lane}\"}}}}",
                lane_tid(lane)
            );
            emit(&meta, &mut out);
        }
        // Monotonic ts order: stable sort keeps the record order of
        // equal-timestamp events (so B precedes E at the same instant).
        let mut ordered: Vec<&(u64, String)> = state.events.iter().collect();
        ordered.sort_by_key(|e| e.0);
        for (_, e) in ordered {
            emit(e, &mut out);
        }
        // Balance any open spans at the final timestamp.
        let mut closers: Vec<(u64, String)> = Vec::new();
        if let Some((job, task)) = state.cpu_open {
            push_span(
                &mut closers,
                'E',
                &format!("T{task}/J{job}"),
                state.last_ts_ns,
                CPU_TID,
            );
        }
        for (lane, slot) in state.server_lanes.iter().enumerate() {
            if let Some(job) = slot {
                push_span(
                    &mut closers,
                    'E',
                    &format!("J{job} offload"),
                    state.last_ts_ns,
                    lane_tid(lane),
                );
            }
        }
        for (_, c) in &closers {
            emit(c, &mut out);
        }
        out.push_str("]}");
        out
    }

    /// Renders and writes the document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Number of trace-event records collected so far.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&self, rec: &Record) {
        let ts_ns = rec.ts_ns;
        let mut state = self.lock();
        state.last_ts_ns = state.last_ts_ns.max(ts_ns);
        match rec.event {
            TraceEvent::SubJobDispatched { .. } => {
                // Dispatch is readiness, not execution; instant only.
                let detail = format!("\"job\":{}", rec.event.job_id().unwrap_or(0));
                push_instant(&mut state.events, rec.event.kind(), ts_ns, CPU_TID, &detail);
            }
            TraceEvent::SubJobStarted {
                job_id, task_id, ..
            } => {
                // Close a dangling span first (defensive; should not happen).
                if let Some((j, t)) = state.cpu_open.take() {
                    push_span(
                        &mut state.events,
                        'E',
                        &format!("T{t}/J{j}"),
                        ts_ns,
                        CPU_TID,
                    );
                }
                state.cpu_open = Some((job_id, task_id));
                push_span(
                    &mut state.events,
                    'B',
                    &format!("T{task_id}/J{job_id}"),
                    ts_ns,
                    CPU_TID,
                );
            }
            TraceEvent::SubJobPreempted {
                job_id, task_id, ..
            }
            | TraceEvent::SubJobCompleted {
                job_id, task_id, ..
            } => {
                // Close only the matching span: zero-work sub-jobs can
                // complete while another sub-job holds the processor.
                if state.cpu_open == Some((job_id, task_id)) {
                    state.cpu_open = None;
                    push_span(
                        &mut state.events,
                        'E',
                        &format!("T{task_id}/J{job_id}"),
                        ts_ns,
                        CPU_TID,
                    );
                }
            }
            TraceEvent::OffloadRequestSent { job_id, .. } => {
                let lane = state
                    .server_lanes
                    .iter()
                    .position(Option::is_none)
                    .unwrap_or_else(|| {
                        state.server_lanes.push(None);
                        state.server_lanes.len() - 1
                    });
                if let Some(slot) = state.server_lanes.get_mut(lane) {
                    *slot = Some(job_id);
                }
                state.lanes_used = state.lanes_used.max(lane + 1);
                push_span(
                    &mut state.events,
                    'B',
                    &format!("J{job_id} offload"),
                    ts_ns,
                    lane_tid(lane),
                );
                // Causal arrow: CPU (setup completion) -> server lane.
                if rec.span.is_some() {
                    let id = format!("J{job_id}req");
                    push_flow(&mut state.events, 's', &id, ts_ns, CPU_TID);
                    push_flow(&mut state.events, 'f', &id, ts_ns, lane_tid(lane));
                }
            }
            TraceEvent::OffloadRequestLost { job_id, .. }
            | TraceEvent::ServerResponseArrived { job_id, .. } => {
                if let Some(lane) = state
                    .server_lanes
                    .iter()
                    .position(|slot| *slot == Some(job_id))
                {
                    if let Some(slot) = state.server_lanes.get_mut(lane) {
                        *slot = None;
                    }
                    push_span(
                        &mut state.events,
                        'E',
                        &format!("J{job_id} offload"),
                        ts_ns,
                        lane_tid(lane),
                    );
                    // Causal arrow back: server lane -> CPU, for
                    // responses that actually arrived.
                    if rec.span.is_some()
                        && matches!(rec.event, TraceEvent::ServerResponseArrived { .. })
                    {
                        let id = format!("J{job_id}resp");
                        push_flow(&mut state.events, 's', &id, ts_ns, lane_tid(lane));
                        push_flow(&mut state.events, 'f', &id, ts_ns, CPU_TID);
                    }
                } else {
                    push_instant(
                        &mut state.events,
                        rec.event.kind(),
                        ts_ns,
                        CPU_TID,
                        &format!("\"job\":{job_id}"),
                    );
                }
            }
            _ => {
                let mut detail = String::new();
                if let Some(j) = rec.event.job_id() {
                    let _ = write!(detail, "\"job\":{j}");
                }
                if let Some(t) = rec.event.task_id() {
                    if !detail.is_empty() {
                        detail.push(',');
                    }
                    let _ = write!(detail, "\"task\":{t}");
                }
                push_instant(&mut state.events, rec.event.kind(), ts_ns, CPU_TID, &detail);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use crate::span;

    fn rec(ts_ns: u64, event: TraceEvent) -> Record {
        Record::new(ts_ns, event)
    }

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.record(&rec(
            0,
            TraceEvent::DeadlineMet {
                job_id: 0,
                task_id: 0,
            },
        ));
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemorySink::new();
        sink.record(&rec(
            1,
            TraceEvent::DeadlineMet {
                job_id: 0,
                task_id: 0,
            },
        ));
        sink.record(&rec(
            2,
            TraceEvent::DeadlineMissed {
                job_id: 1,
                task_id: 0,
            },
        ));
        let records = sink.take();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ts_ns, 1);
        assert!(matches!(
            records[1].event,
            TraceEvent::DeadlineMissed { job_id: 1, .. }
        ));
        assert!(sink.is_empty());
    }

    #[test]
    fn ring_sink_keeps_only_the_newest() {
        let sink = RingSink::with_capacity(2);
        for job_id in 0..5 {
            sink.record(&rec(
                job_id as u64,
                TraceEvent::DeadlineMet { job_id, task_id: 0 },
            ));
        }
        let recent = sink.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].ts_ns, 3);
        assert_eq!(recent[1].ts_ns, 4);
    }

    #[test]
    fn fanout_duplicates_to_enabled_children() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let fan = FanoutSink::new(vec![a.clone(), Arc::new(NullSink), b.clone()]);
        assert!(fan.enabled());
        fan.record(&rec(
            9,
            TraceEvent::DeadlineMet {
                job_id: 0,
                task_id: 0,
            },
        ));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert!(!FanoutSink::new(vec![Arc::new(NullSink)]).enabled());
    }

    #[test]
    fn record_json_appends_span_fields_last() {
        let e = TraceEvent::JobReleased {
            job_id: 3,
            task_id: 1,
            deadline_ns: 50,
        };
        // Span-less output is byte-identical to the event encoding.
        assert_eq!(rec(12, e).to_json(), e.to_json(12));
        let spanned = Record::spanned(12, span::job_ctx(3), e).to_json();
        assert_eq!(
            spanned,
            format!(
                "{}\"span\":{}}}",
                e.to_json(12).trim_end_matches('}').to_string() + ",",
                span::SpanId::job(3).raw()
            )
        );
        let with_parent = Record::spanned(12, span::phase_ctx(3, Phase::Setup), e).to_json();
        assert!(with_parent.ends_with(&format!(
            "\"span\":{},\"parent\":{}}}",
            span::SpanId::phase(3, Phase::Setup).raw(),
            span::SpanId::job(3).raw()
        )));
        let _: serde_json::Value = serde_json::from_str(&with_parent).expect("valid JSON");
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let sink = JsonlSink::new(Vec::<u8>::new());
        sink.record(&rec(
            5,
            TraceEvent::JobReleased {
                job_id: 0,
                task_id: 1,
                deadline_ns: 9,
            },
        ));
        sink.record(&rec(
            6,
            TraceEvent::DeadlineMet {
                job_id: 0,
                task_id: 1,
            },
        ));
        sink.write_line("{\"view\":\"span\"}");
        assert!(!sink.had_io_error());
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"ts_ns\":5,\"event\":\"job_released\""));
        assert!(lines[1].contains("deadline_met"));
        assert_eq!(lines[2], "{\"view\":\"span\"}");
    }

    #[test]
    fn chrome_sink_produces_balanced_spans() {
        let sink = ChromeTraceSink::new();
        sink.record(&rec(
            0,
            TraceEvent::SubJobStarted {
                job_id: 0,
                task_id: 0,
                phase: Phase::Setup,
            },
        ));
        sink.record(&rec(
            10,
            TraceEvent::SubJobCompleted {
                job_id: 0,
                task_id: 0,
                phase: Phase::Setup,
            },
        ));
        sink.record(&rec(
            10,
            TraceEvent::OffloadRequestSent {
                job_id: 0,
                task_id: 0,
                payload_bytes: 64,
            },
        ));
        sink.record(&rec(
            30,
            TraceEvent::ServerResponseArrived {
                job_id: 0,
                task_id: 0,
                late: false,
            },
        ));
        let doc = sink.render();
        assert_eq!(doc.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(doc.matches("\"ph\":\"E\"").count(), 2);
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"process_name\""));
        // Valid JSON end to end.
        let _: serde_json::Value = serde_json::from_str(&doc).expect("chrome doc parses");
    }

    #[test]
    fn chrome_sink_closes_dangling_spans_on_render() {
        let sink = ChromeTraceSink::new();
        sink.record(&rec(
            0,
            TraceEvent::OffloadRequestSent {
                job_id: 7,
                task_id: 1,
                payload_bytes: 1,
            },
        ));
        sink.record(&rec(
            50,
            TraceEvent::DeadlineMissed {
                job_id: 7,
                task_id: 1,
            },
        ));
        let doc = sink.render();
        // The never-answered request still gets an E at the last ts.
        assert_eq!(doc.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(doc.matches("\"ph\":\"E\"").count(), 1);
        assert!(doc.contains("\"ph\":\"i\""));
    }

    #[test]
    fn chrome_lanes_are_reused_and_named() {
        let sink = ChromeTraceSink::new();
        // Two overlapping requests -> two lanes; a third after one frees
        // reuses lane 0.
        sink.record(&rec(
            0,
            TraceEvent::OffloadRequestSent {
                job_id: 0,
                task_id: 0,
                payload_bytes: 1,
            },
        ));
        sink.record(&rec(
            1,
            TraceEvent::OffloadRequestSent {
                job_id: 1,
                task_id: 1,
                payload_bytes: 1,
            },
        ));
        sink.record(&rec(
            2,
            TraceEvent::ServerResponseArrived {
                job_id: 0,
                task_id: 0,
                late: false,
            },
        ));
        sink.record(&rec(
            3,
            TraceEvent::OffloadRequestSent {
                job_id: 2,
                task_id: 0,
                payload_bytes: 1,
            },
        ));
        sink.record(&rec(
            4,
            TraceEvent::ServerResponseArrived {
                job_id: 1,
                task_id: 1,
                late: false,
            },
        ));
        sink.record(&rec(
            5,
            TraceEvent::ServerResponseArrived {
                job_id: 2,
                task_id: 0,
                late: false,
            },
        ));
        let doc = sink.render();
        assert!(doc.contains("server slot 0"));
        assert!(doc.contains("server slot 1"));
        assert!(!doc.contains("server slot 2"));
    }

    #[test]
    fn chrome_spanned_offloads_emit_flow_arrows() {
        let sink = ChromeTraceSink::new();
        sink.record(&Record::spanned(
            10,
            span::offload_ctx(0),
            TraceEvent::OffloadRequestSent {
                job_id: 0,
                task_id: 0,
                payload_bytes: 64,
            },
        ));
        sink.record(&Record::spanned(
            30,
            span::offload_ctx(0),
            TraceEvent::ServerResponseArrived {
                job_id: 0,
                task_id: 0,
                late: false,
            },
        ));
        let doc = sink.render();
        assert_eq!(doc.matches("\"ph\":\"s\"").count(), 2);
        assert_eq!(doc.matches("\"ph\":\"f\"").count(), 2);
        assert!(doc.contains("\"id\":\"J0req\""));
        assert!(doc.contains("\"id\":\"J0resp\""));
        let _: serde_json::Value = serde_json::from_str(&doc).expect("chrome doc parses");
    }

    #[test]
    fn chrome_render_orders_out_of_order_timestamps() {
        let sink = ChromeTraceSink::new();
        // Multi-threaded emitters can record out of timestamp order.
        sink.record(&rec(
            50,
            TraceEvent::DeadlineMet {
                job_id: 1,
                task_id: 0,
            },
        ));
        sink.record(&rec(
            5,
            TraceEvent::DeadlineMissed {
                job_id: 0,
                task_id: 0,
            },
        ));
        let doc = sink.render();
        let positions: Vec<usize> = ["deadline_missed", "deadline_met"]
            .iter()
            .map(|k| doc.find(k).expect("event present"))
            .collect();
        assert!(positions[0] < positions[1], "render must sort by ts");
    }
}
