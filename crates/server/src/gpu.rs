//! The GPU server: a discrete-event model of a multi-board accelerator
//! shared with background load.
//!
//! Requests travel uplink through the [`crate::network::NetworkModel`],
//! queue FIFO for the earliest-free GPU board, occupy it for a sampled
//! service time, and travel back downlink. A Poisson **background load**
//! competes for the same boards — this is the knob behind the case study's
//! busy / not-busy / idle scenarios: background arrivals inflate the queue
//! wait that offloaded requests experience, occasionally far beyond any
//! estimated response time.
//!
//! The model is intentionally *work-conserving and causal*: background
//! arrivals are generated lazily as simulated time advances, so a server
//! instance can be driven by any client-side timeline (the `rto-sim`
//! event loop, a measurement proxy, a bench).

use crate::error::ServerError;
use crate::network::{NetMeter, NetworkModel};
use rto_core::time::{Duration, Instant};
use rto_obs::{Counter, Histogram, Obs, SpanContext, TraceEvent};
use rto_stats::dist::{Distribution, Exponential, LogNormal};
use rto_stats::Rng;

/// One offloaded computation as seen by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadRequest {
    /// Client-side task id (opaque to the server).
    pub task_id: usize,
    /// Uplink payload size in bytes (input data, e.g. the scaled image).
    pub payload_bytes: u64,
    /// Downlink payload size in bytes (results).
    pub response_bytes: u64,
    /// Relative computational cost: the sampled GPU service time is
    /// multiplied by this factor (1.0 = the nominal kernel).
    pub compute_scale: f64,
    /// Causal span context of the client-side offload attempt, if the
    /// caller traces spans. Travels with the request so server-side
    /// events (network transfers, fleet routing) attach to the same
    /// span tree as the client's release/completion events.
    pub span: Option<SpanContext>,
}

impl OffloadRequest {
    /// Creates a nominal request (64 KiB up, 4 KiB down, scale 1).
    pub fn new(task_id: usize) -> Self {
        OffloadRequest {
            task_id,
            payload_bytes: 64 * 1024,
            response_bytes: 4 * 1024,
            compute_scale: 1.0,
            span: None,
        }
    }

    /// Sets the uplink payload size.
    pub fn with_payload_bytes(mut self, bytes: u64) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Sets the downlink payload size.
    pub fn with_response_bytes(mut self, bytes: u64) -> Self {
        self.response_bytes = bytes;
        self
    }

    /// Sets the compute-cost scale factor.
    pub fn with_compute_scale(mut self, scale: f64) -> Self {
        self.compute_scale = scale;
        self
    }

    /// Attaches the client-side span context.
    pub fn with_span(mut self, span: SpanContext) -> Self {
        self.span = Some(span);
        self
    }
}

/// The result of submitting a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The response will arrive at the client at this instant.
    Response {
        /// Client-side arrival instant of the response.
        arrives_at: Instant,
    },
    /// The request or response was lost in the network; the client will
    /// never hear back.
    Lost,
}

impl SubmitOutcome {
    /// The response arrival instant, if any.
    pub fn arrival(&self) -> Option<Instant> {
        match self {
            SubmitOutcome::Response { arrives_at } => Some(*arrives_at),
            SubmitOutcome::Lost => None,
        }
    }
}

/// Anything that can serve offloaded requests.
///
/// The trait is object-safe so the simulator can swap server
/// implementations (real model, perfect stub, black hole) at run time.
pub trait OffloadServer {
    /// Submits `request` at client-side instant `now`; returns when (if
    /// ever) the response arrives back at the client.
    fn submit(&mut self, request: &OffloadRequest, now: Instant) -> SubmitOutcome;
}

/// The full GPU-server model.
#[derive(Debug)]
pub struct GpuServer {
    network: NetworkModel,
    /// Busy-until instant per GPU board.
    boards: Vec<Instant>,
    service: LogNormal,
    /// The background process's service time and inter-arrival gap
    /// (both in ms); `None` for an idle server.
    background: Option<(Exponential, Exponential)>,
    next_background: Instant,
    rng: Rng,
    /// When attached (see [`GpuServer::with_obs`]), every uplink and
    /// downlink transfer is metered and traced; `None` keeps the
    /// unobserved hot path allocation-free.
    meter: Option<NetMeter>,
}

/// One background inter-arrival gap. Every gap advances the clock by at
/// least 1 ns, so the lazy background process makes progress at any
/// rate: a gap that rounds to 0 ns would stall `generate_background`.
fn background_gap(gap: &Exponential, rng: &mut Rng) -> Duration {
    Duration::from_ms_f64_clamped(gap.sample(rng)).max(Duration::from_ns(1))
}

impl GpuServer {
    /// Creates a server.
    ///
    /// * `num_boards` — number of GPU boards (the paper's server has 2);
    /// * `service_mean_ms` / `service_cv` — lognormal GPU service time of
    ///   an offloaded kernel at `compute_scale` 1;
    /// * `background_rate_per_sec` — Poisson arrival rate of competing
    ///   background jobs (0 = idle server);
    /// * `background_service_mean_ms` — mean service time of background
    ///   jobs (exponential);
    /// * `network` — the client↔server network model;
    /// * `seed` — RNG seed.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError`] on zero boards or non-positive service
    /// parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        num_boards: usize,
        service_mean_ms: f64,
        service_cv: f64,
        background_rate_per_sec: f64,
        background_service_mean_ms: f64,
        network: NetworkModel,
        seed: u64,
    ) -> Result<Self, ServerError> {
        if num_boards == 0 {
            return Err(ServerError::new("server needs at least one GPU board"));
        }
        if background_rate_per_sec < 0.0 || !background_rate_per_sec.is_finite() {
            return Err(ServerError::new(format!(
                "background rate {background_rate_per_sec}/s must be non-negative"
            )));
        }
        let err = |e: rto_stats::dist::ParamError| ServerError::new(e.to_string());
        let service = LogNormal::from_mean_cv(service_mean_ms, service_cv).map_err(err)?;
        let background = if background_rate_per_sec > 0.0 {
            Some((
                Exponential::from_mean(background_service_mean_ms).map_err(err)?,
                Exponential::new(background_rate_per_sec / 1e3).map_err(err)?,
            ))
        } else {
            None
        };
        let mut rng = Rng::seed_from(seed);
        let next_background = match &background {
            Some((_, gap)) => Instant::ZERO + background_gap(gap, &mut rng),
            None => Instant::MAX,
        };
        Ok(GpuServer {
            network,
            boards: vec![Instant::ZERO; num_boards],
            service,
            background,
            next_background,
            rng,
            meter: None,
        })
    }

    /// Attaches an observability bundle: uplink/downlink transfers are
    /// metered (`net_messages_total`, `net_messages_lost_total`,
    /// `net_transfer_ns`, each handle resolved once, on first use) and
    /// traced (`net_transfer` records carrying the request's span). The
    /// RNG stream is identical to the unobserved server, so attaching
    /// observation never perturbs a seeded run.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.meter = Some(NetMeter::new(obs));
        self
    }

    /// Builds the case-study server for a contention scenario, with the
    /// default WLAN network. See [`crate::scenario::Scenario`].
    ///
    /// # Errors
    ///
    /// Returns [`ServerError`] if preset assembly fails (it cannot with
    /// the shipped presets).
    pub fn from_scenario(
        scenario: crate::scenario::Scenario,
        seed: u64,
    ) -> Result<Self, ServerError> {
        scenario.build_server(seed)
    }

    /// Advances the lazy background-arrival process to `now`, occupying
    /// boards as jobs arrive.
    fn generate_background(&mut self, now: Instant) {
        let Some((service, gap)) = &self.background else {
            return;
        };
        // analyze: allow(A8): progress witness — `background_gap` is at least 1 ns, so `next_background` strictly increases each pass and passes `now`
        while self.next_background <= now {
            let t = self.next_background;
            // Background job takes the earliest-free board.
            let board = Self::earliest_board(&self.boards);
            let start = self.boards[board].max(t);
            let service_ms = service.sample(&mut self.rng);
            self.boards[board] = start + Duration::from_ms_f64_clamped(service_ms);
            self.next_background = t + background_gap(gap, &mut self.rng);
        }
    }

    fn earliest_board(boards: &[Instant]) -> usize {
        boards
            .iter()
            .enumerate()
            .min_by_key(|(_, &busy)| busy)
            .map(|(i, _)| i)
            // `num_boards` is validated ≥ 1 at construction; the
            // fallback keeps this total (lint L3).
            .unwrap_or(0)
    }

    /// Current busy-until instants, for inspection in tests.
    pub fn board_states(&self) -> &[Instant] {
        &self.boards
    }
}

impl GpuServer {
    /// One network transfer, metered/traced when observation is on.
    /// Both arms draw the identical RNG stream.
    fn transfer(&mut self, bytes: u64, at: Instant, span: Option<SpanContext>) -> Option<Duration> {
        match &mut self.meter {
            Some(meter) => {
                self.network
                    .sample_transfer_metered(bytes, &mut self.rng, meter, at.as_ns(), span)
            }
            None => self.network.sample_transfer(bytes, &mut self.rng),
        }
    }
}

impl OffloadServer for GpuServer {
    // analyze: hot-path
    fn submit(&mut self, request: &OffloadRequest, now: Instant) -> SubmitOutcome {
        // Uplink.
        let uplink = match self.transfer(request.payload_bytes, now, request.span) {
            Some(d) => d,
            None => return SubmitOutcome::Lost,
        };
        let at_server = now + uplink;
        self.generate_background(at_server);
        // Dispatch to the earliest-free board.
        let board = Self::earliest_board(&self.boards);
        let start = self.boards[board].max(at_server);
        let service_ms = self.service.sample(&mut self.rng) * request.compute_scale;
        let done = start + Duration::from_ms_f64_clamped(service_ms);
        self.boards[board] = done;
        // Downlink.
        match self.transfer(request.response_bytes, done, request.span) {
            Some(d) => SubmitOutcome::Response {
                arrives_at: done + d,
            },
            None => SubmitOutcome::Lost,
        }
    }
}

/// A server that always answers after a fixed delay — the timing
/// *reliable* baseline, for tests and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfectServer {
    /// The fixed round-trip response time.
    pub response_time: Duration,
}

impl OffloadServer for PerfectServer {
    fn submit(&mut self, _request: &OffloadRequest, now: Instant) -> SubmitOutcome {
        SubmitOutcome::Response {
            arrives_at: now + self.response_time,
        }
    }
}

/// A server that answers from a script — for checks that choose every
/// answer: the k-th submission gets the k-th entry, `None` (lost) or
/// `Some(delay)` (the answer arrives `delay` after the submission), and
/// every submission past the end of the script is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedServer {
    script: Vec<Option<Duration>>,
    submitted: usize,
}

impl ScriptedServer {
    /// A server that plays `script` from its first entry.
    pub fn new(script: Vec<Option<Duration>>) -> Self {
        ScriptedServer {
            script,
            submitted: 0,
        }
    }
}

impl OffloadServer for ScriptedServer {
    fn submit(&mut self, _request: &OffloadRequest, now: Instant) -> SubmitOutcome {
        let answer = self.script.get(self.submitted).copied().flatten();
        self.submitted = self.submitted.saturating_add(1);
        match answer {
            Some(delay) => SubmitOutcome::Response {
                arrives_at: now + delay,
            },
            None => SubmitOutcome::Lost,
        }
    }
}

/// A server that never answers — total outage, for failure-injection
/// tests: the client must meet every deadline purely through
/// compensation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlackHoleServer;

impl OffloadServer for BlackHoleServer {
    fn submit(&mut self, _request: &OffloadRequest, _now: Instant) -> SubmitOutcome {
        SubmitOutcome::Lost
    }
}

/// A reservation-backed server: wraps any server and **guarantees** a
/// response within `bound` (late or lost inner responses are delivered at
/// exactly the bound).
///
/// This models the resource-reservation approach of Toma & Chen (ECRTS
/// 2013), which the paper contrasts with: when such a pessimistic
/// worst-case response bound exists and the promised `R_i` is set at or
/// beyond it, the completion phase only ever runs the post-processing
/// `C_{i,3}` (see `rto_core::odm::OdmTask::with_server_bound`).
#[derive(Debug)]
pub struct BoundedServer<S> {
    inner: S,
    bound: Duration,
}

impl<S: OffloadServer> BoundedServer<S> {
    /// Wraps `inner` with a hard response bound.
    pub fn new(inner: S, bound: Duration) -> Self {
        BoundedServer { inner, bound }
    }

    /// The guaranteed bound.
    pub fn bound(&self) -> Duration {
        self.bound
    }
}

impl<S: OffloadServer> OffloadServer for BoundedServer<S> {
    fn submit(&mut self, request: &OffloadRequest, now: Instant) -> SubmitOutcome {
        let cap = now + self.bound;
        match self.inner.submit(request, now) {
            SubmitOutcome::Response { arrives_at } if arrives_at <= cap => {
                SubmitOutcome::Response { arrives_at }
            }
            // Late or lost: the reservation delivers at the bound.
            _ => SubmitOutcome::Response { arrives_at: cap },
        }
    }
}

/// An [`OffloadServer`] decorator that traces and meters every
/// submission.
///
/// The wrapper is transparent for outcomes: it delegates to the inner
/// server and passes the [`SubmitOutcome`] straight through. On the way
/// it emits [`TraceEvent::OffloadRequestSent`] /
/// [`TraceEvent::OffloadRequestLost`] / [`TraceEvent::ServerResponseArrived`]
/// (timestamped with the client-side `now` / arrival instants) and
/// records three metrics in the [`Obs`] registry:
///
/// * `server_submits_total` — submissions seen,
/// * `server_lost_total` — submissions that will never answer,
/// * `server_response_ns` — round-trip histogram of answered requests.
///
/// The server layer does not know simulator job ids, so the wrapper
/// stamps events with its own monotonically increasing submission
/// counter as `job_id`. When the *simulator* is also instrumented (via
/// `Simulation::with_obs`), prefer instrumenting only one of the two
/// layers, or the send/lost events will appear twice with different
/// ids.
pub struct ObservedServer<S> {
    inner: S,
    obs: Obs,
    seq: usize,
    submits: Counter,
    lost: Counter,
    response_ns: Histogram,
}

impl<S> std::fmt::Debug for ObservedServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedServer")
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl<S: OffloadServer> ObservedServer<S> {
    /// Wraps `inner`, registering its metrics in `obs`.
    pub fn new(inner: S, obs: Obs) -> Self {
        ObservedServer {
            inner,
            seq: 0,
            submits: obs.metrics().counter("server_submits_total"),
            lost: obs.metrics().counter("server_lost_total"),
            response_ns: obs.metrics().histogram("server_response_ns"),
            obs,
        }
    }

    /// Unwraps the inner server.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The inner server.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the inner server.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: OffloadServer> OffloadServer for ObservedServer<S> {
    fn submit(&mut self, request: &OffloadRequest, now: Instant) -> SubmitOutcome {
        let job_id = self.seq;
        self.seq += 1;
        self.submits.inc();
        self.obs.emit_with(
            now.as_ns(),
            request.span,
            TraceEvent::OffloadRequestSent {
                job_id,
                task_id: request.task_id,
                payload_bytes: request.payload_bytes,
            },
        );
        let outcome = self.inner.submit(request, now);
        match outcome {
            SubmitOutcome::Response { arrives_at } => {
                self.response_ns.record(arrives_at.since(now).as_ns());
                self.obs.emit_with(
                    arrives_at.as_ns(),
                    request.span,
                    TraceEvent::ServerResponseArrived {
                        job_id,
                        task_id: request.task_id,
                        late: false,
                    },
                );
            }
            SubmitOutcome::Lost => {
                self.lost.inc();
                self.obs.emit_with(
                    now.as_ns(),
                    request.span,
                    TraceEvent::OffloadRequestLost {
                        job_id,
                        task_id: request.task_id,
                    },
                );
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_server(seed: u64) -> GpuServer {
        GpuServer::new(2, 7.0, 0.2, 0.0, 0.0, NetworkModel::ideal(), seed).unwrap()
    }

    #[test]
    fn validation() {
        assert!(GpuServer::new(0, 7.0, 0.2, 0.0, 0.0, NetworkModel::ideal(), 1).is_err());
        assert!(GpuServer::new(2, -1.0, 0.2, 0.0, 0.0, NetworkModel::ideal(), 1).is_err());
        assert!(GpuServer::new(2, 7.0, 0.2, -1.0, 1.0, NetworkModel::ideal(), 1).is_err());
    }

    #[test]
    fn idle_server_responds_near_service_time() {
        let mut s = idle_server(7);
        let req = OffloadRequest::new(0);
        let mut total = 0.0;
        let n = 200;
        for k in 0..n {
            let now = Instant::from_ns(k as u64 * 100_000_000); // 100ms apart
            match s.submit(&req, now) {
                SubmitOutcome::Response { arrives_at } => {
                    total += arrives_at.since(now).as_ms_f64();
                }
                SubmitOutcome::Lost => panic!("ideal network cannot lose"),
            }
        }
        let mean = total / n as f64;
        assert!((mean - 7.0).abs() < 1.0, "mean response {mean} ms");
    }

    #[test]
    fn responses_are_causal_and_deterministic() {
        let req = OffloadRequest::new(0);
        let mut a = idle_server(9);
        let mut b = idle_server(9);
        for k in 0..50 {
            let now = Instant::from_ns(k * 10_000_000);
            let ra = a.submit(&req, now);
            let rb = b.submit(&req, now);
            assert_eq!(ra, rb, "same seed must give same outcome");
            if let Some(t) = ra.arrival() {
                assert!(t > now, "response cannot precede submission");
            }
        }
    }

    #[test]
    fn background_load_inflates_response_times() {
        let req = OffloadRequest::new(0);
        // Background: 300 jobs/s of mean 10 ms on 2 boards = heavily loaded.
        let mut busy = GpuServer::new(2, 7.0, 0.2, 300.0, 10.0, NetworkModel::ideal(), 11).unwrap();
        let mut idle = idle_server(11);
        let mut busy_total = 0.0;
        let mut idle_total = 0.0;
        let n = 100;
        for k in 0..n {
            let now = Instant::from_ns(k as u64 * 50_000_000);
            busy_total += busy
                .submit(&req, now)
                .arrival()
                .expect("ideal network")
                .since(now)
                .as_ms_f64();
            idle_total += idle
                .submit(&req, now)
                .arrival()
                .expect("ideal network")
                .since(now)
                .as_ms_f64();
        }
        assert!(
            busy_total / n as f64 > 2.0 * idle_total / n as f64,
            "busy {busy_total} vs idle {idle_total}"
        );
    }

    #[test]
    fn huge_background_rate_still_makes_progress() {
        // 10^12 arrivals/s: every gap rounds to 0 ns, so only the
        // 1-ns floor moves the background clock. Submitting at 1 ms
        // takes ~10^6 passes and must return.
        let mut s = GpuServer::new(2, 60.0, 0.35, 1e12, 45.0, NetworkModel::ideal(), 1).unwrap();
        let now = Instant::from_ns(1_000_000);
        let out = s.submit(&OffloadRequest::new(0), now);
        assert!(out.arrival().is_some_and(|t| t > now));
        // Arrivals at 1, 2, …, 10^6 ns: one pass per nanosecond.
        assert_eq!(s.next_background, now + Duration::from_ns(1));
    }

    #[test]
    fn compute_scale_scales_service() {
        let req_small = OffloadRequest::new(0).with_compute_scale(1.0);
        let req_big = OffloadRequest::new(0).with_compute_scale(10.0);
        let mut s1 = idle_server(13);
        let mut s2 = idle_server(13);
        let mut small = 0.0;
        let mut big = 0.0;
        for k in 0..100 {
            let now = Instant::from_ns(k * 1_000_000_000);
            small += s1
                .submit(&req_small, now)
                .arrival()
                .unwrap()
                .since(now)
                .as_ms_f64();
            big += s2
                .submit(&req_big, now)
                .arrival()
                .unwrap()
                .since(now)
                .as_ms_f64();
        }
        assert!((big / small - 10.0).abs() < 0.5, "ratio {}", big / small);
    }

    #[test]
    fn lossy_network_loses_requests() {
        let net = NetworkModel::new(Duration::ZERO, 1e9, 0.0, 0.0, 0.5).unwrap();
        let mut s = GpuServer::new(1, 1.0, 0.1, 0.0, 0.0, net, 17).unwrap();
        let req = OffloadRequest::new(0);
        let lost = (0..1000)
            .filter(|&k| {
                matches!(
                    s.submit(&req, Instant::from_ns(k * 1_000_000)),
                    SubmitOutcome::Lost
                )
            })
            .count();
        // Loss on uplink or downlink: P = 1 - 0.5*0.5 = 0.75.
        assert!((lost as f64 / 1000.0 - 0.75).abs() < 0.06, "lost {lost}");
    }

    #[test]
    fn boards_fill_in_parallel() {
        let mut s = idle_server(19);
        let req = OffloadRequest::new(0);
        // Two immediate submissions occupy two different boards.
        s.submit(&req, Instant::ZERO);
        s.submit(&req, Instant::ZERO);
        let states = s.board_states();
        assert!(states.iter().all(|&b| b > Instant::ZERO));
    }

    #[test]
    fn perfect_server_is_exact() {
        let mut s = PerfectServer {
            response_time: Duration::from_ms(5),
        };
        let out = s.submit(&OffloadRequest::new(0), Instant::from_ns(100));
        assert_eq!(
            out.arrival(),
            Some(Instant::from_ns(100) + Duration::from_ms(5))
        );
    }

    #[test]
    fn scripted_server_plays_its_script_then_loses() {
        let ms = Duration::from_ms;
        let mut s = ScriptedServer::new(vec![Some(ms(3)), None, Some(Duration::ZERO)]);
        let arrivals: Vec<Option<Instant>> = (0..5)
            .map(|k| {
                s.submit(&OffloadRequest::new(0), Instant::ZERO + ms(10 * k))
                    .arrival()
            })
            .collect();
        let at = |v| Some(Instant::ZERO + ms(v));
        assert_eq!(arrivals, vec![at(3), None, at(20), None, None]);
    }

    #[test]
    fn black_hole_never_answers() {
        let mut s = BlackHoleServer;
        for k in 0..10 {
            assert_eq!(
                s.submit(&OffloadRequest::new(0), Instant::from_ns(k)),
                SubmitOutcome::Lost
            );
        }
    }

    #[test]
    fn bounded_server_clamps_and_recovers() {
        // Slow inner server: always 50 ms.
        let inner = PerfectServer {
            response_time: Duration::from_ms(50),
        };
        let mut s = BoundedServer::new(inner, Duration::from_ms(20));
        assert_eq!(s.bound(), Duration::from_ms(20));
        let out = s.submit(&OffloadRequest::new(0), Instant::from_ns(0));
        assert_eq!(out.arrival(), Some(Instant::ZERO + Duration::from_ms(20)));
        // Lost inner responses are also recovered at the bound.
        let mut dead = BoundedServer::new(BlackHoleServer, Duration::from_ms(30));
        let out = dead.submit(&OffloadRequest::new(0), Instant::from_ns(7));
        assert_eq!(
            out.arrival(),
            Some(Instant::from_ns(7) + Duration::from_ms(30))
        );
        // Fast inner responses pass through untouched.
        let fast = PerfectServer {
            response_time: Duration::from_ms(5),
        };
        let mut s = BoundedServer::new(fast, Duration::from_ms(20));
        let out = s.submit(&OffloadRequest::new(0), Instant::ZERO);
        assert_eq!(out.arrival(), Some(Instant::ZERO + Duration::from_ms(5)));
    }

    #[test]
    fn observed_server_is_transparent_and_meters() {
        use rto_obs::MemorySink;
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_sink(sink.clone());
        let mut plain = idle_server(23);
        let mut observed = ObservedServer::new(idle_server(23), obs.clone());
        for k in 0..10u64 {
            let now = Instant::from_ns(k * 100_000_000);
            let req = OffloadRequest::new(0);
            assert_eq!(
                observed.submit(&req, now),
                plain.submit(&req, now),
                "wrapper must not change outcomes"
            );
        }
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("server_submits_total"), Some(10));
        assert_eq!(snap.counter("server_lost_total"), Some(0));
        assert_eq!(snap.histogram("server_response_ns").unwrap().count, 10);
        // One sent + one arrived event per submission.
        assert_eq!(sink.len(), 20);

        // Lost submissions are counted and traced.
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_sink(sink.clone());
        let mut dead = ObservedServer::new(BlackHoleServer, obs.clone());
        assert_eq!(
            dead.submit(&OffloadRequest::new(1), Instant::ZERO),
            SubmitOutcome::Lost
        );
        assert_eq!(
            obs.metrics().snapshot().counter("server_lost_total"),
            Some(1)
        );
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[1].1,
            TraceEvent::OffloadRequestLost {
                job_id: 0,
                task_id: 1
            }
        ));
        assert_eq!(dead.inner(), &BlackHoleServer);
        dead.inner_mut();
        let _ = dead.into_inner();
    }

    #[test]
    fn request_builder() {
        let r = OffloadRequest::new(3)
            .with_payload_bytes(100)
            .with_response_bytes(10)
            .with_compute_scale(2.5);
        assert_eq!(r.task_id, 3);
        assert_eq!(r.payload_bytes, 100);
        assert_eq!(r.response_bytes, 10);
        assert_eq!(r.compute_scale, 2.5);
    }
}
