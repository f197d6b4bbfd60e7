//! The wireless-network latency model.
//!
//! A message of `n` bytes experiences
//!
//! ```text
//! latency = base + n / bandwidth + jitter,   jitter ~ LogNormal
//! ```
//!
//! and is *lost* outright with probability `loss`. A lost offload request
//! or response never reaches its destination — from the client's
//! perspective the server simply never answers, and the compensation
//! timer handles it. This is exactly the failure mode that makes the
//! component "timing unreliable".

use crate::error::ServerError;
use rto_core::time::Duration;
use rto_obs::{Counter, Histogram, Obs};
use rto_stats::dist::{Distribution, LogNormal};
use rto_stats::Rng;

/// Uplink/downlink latency and loss model.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    base: Duration,
    bandwidth_bytes_per_sec: f64,
    jitter: Option<LogNormal>,
    loss: f64,
}

impl NetworkModel {
    /// Creates a network model.
    ///
    /// * `base` — propagation/stack floor added to every message;
    /// * `bandwidth_bytes_per_sec` — serialization rate (must be > 0);
    /// * `jitter_mean_ms` / `jitter_cv` — lognormal jitter (mean 0 ⇒ no
    ///   jitter);
    /// * `loss` — per-message loss probability in `[0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError`] on non-positive bandwidth, negative jitter
    /// parameters, or `loss` outside `[0, 1)`.
    pub fn new(
        base: Duration,
        bandwidth_bytes_per_sec: f64,
        jitter_mean_ms: f64,
        jitter_cv: f64,
        loss: f64,
    ) -> Result<Self, ServerError> {
        if bandwidth_bytes_per_sec <= 0.0 || !bandwidth_bytes_per_sec.is_finite() {
            return Err(ServerError::new(format!(
                "bandwidth {bandwidth_bytes_per_sec} B/s must be positive"
            )));
        }
        if !(0.0..1.0).contains(&loss) {
            return Err(ServerError::new(format!("loss {loss} outside [0,1)")));
        }
        if jitter_mean_ms < 0.0 || !jitter_mean_ms.is_finite() {
            return Err(ServerError::new(format!(
                "jitter mean {jitter_mean_ms} ms must be non-negative"
            )));
        }
        let jitter = if jitter_mean_ms <= 0.0 {
            None
        } else {
            Some(
                LogNormal::from_mean_cv(jitter_mean_ms, jitter_cv)
                    .map_err(|e| ServerError::new(e.to_string()))?,
            )
        };
        Ok(NetworkModel {
            base,
            bandwidth_bytes_per_sec,
            jitter,
            loss,
        })
    }

    /// A zero-latency, lossless network (tests, ablations).
    pub fn ideal() -> Self {
        NetworkModel {
            base: Duration::ZERO,
            bandwidth_bytes_per_sec: f64::INFINITY,
            jitter: None,
            loss: 0.0,
        }
    }

    /// A plausible 802.11n-class WLAN: 1 ms floor, ~20 MB/s, 30 % CV
    /// jitter of mean 2 ms, 0.5 % loss.
    pub fn wlan() -> Self {
        NetworkModel::new(Duration::from_ms(1), 20e6, 2.0, 0.3, 0.005).unwrap_or_else(|_| {
            // Unreachable: the constants above are valid by inspection.
            // A jitter-free fallback keeps this constructor total
            // (lint L3).
            NetworkModel {
                base: Duration::from_ms(1),
                bandwidth_bytes_per_sec: 20e6,
                jitter: None,
                loss: 0.0,
            }
        })
    }

    /// Samples the one-way latency for a message of `payload_bytes`, or
    /// `None` if the message is lost.
    pub fn sample_transfer(&self, payload_bytes: u64, rng: &mut Rng) -> Option<Duration> {
        if self.loss > 0.0 && rng.chance(self.loss) {
            return None;
        }
        let serialization_ms = if self.bandwidth_bytes_per_sec.is_finite() {
            payload_bytes as f64 / self.bandwidth_bytes_per_sec * 1e3
        } else {
            0.0
        };
        let jitter_ms = match &self.jitter {
            Some(j) => j.sample(rng),
            None => 0.0,
        };
        // Components are non-negative by validation; the clamp keeps
        // the sampling path total (lint L3).
        let extra = Duration::from_ms_f64_clamped(serialization_ms + jitter_ms);
        Some(self.base + extra)
    }

    /// Like [`NetworkModel::sample_transfer`], but metered and traced
    /// through `meter`:
    ///
    /// * `net_messages_total` — messages attempted,
    /// * `net_messages_lost_total` — messages dropped by the loss model,
    /// * `net_transfer_ns` — one-way latency histogram of delivered
    ///   messages,
    ///
    /// plus a [`rto_obs::TraceEvent::NetTransfer`] record stamped at
    /// `ts_ns`, carrying `span` when the caller traces causal spans —
    /// the record lands inside the offload span of the request whose
    /// payload is in flight.
    ///
    /// Draws exactly the same RNG stream as the unmetered variant, so
    /// swapping one for the other never perturbs a seeded simulation.
    pub(crate) fn sample_transfer_metered(
        &self,
        payload_bytes: u64,
        rng: &mut Rng,
        meter: &mut NetMeter,
        ts_ns: u64,
        span: Option<rto_obs::SpanContext>,
    ) -> Option<Duration> {
        let sampled = self.sample_transfer(payload_bytes, rng);
        meter.record(payload_bytes, sampled, ts_ns, span);
        sampled
    }

    /// The deterministic part of the latency (floor + serialization) for
    /// a payload, ignoring jitter and loss. Useful for analytical checks.
    pub fn deterministic_latency(&self, payload_bytes: u64) -> Duration {
        let serialization_ms = if self.bandwidth_bytes_per_sec.is_finite() {
            payload_bytes as f64 / self.bandwidth_bytes_per_sec * 1e3
        } else {
            0.0
        };
        self.base + Duration::from_ms_f64_clamped(serialization_ms)
    }

    /// The per-message loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }
}

/// The metric handles and trace context of one metered link (see
/// [`NetworkModel::sample_transfer_metered`]).
///
/// Each handle is resolved on first use and kept, so a message costs no
/// registry lookup, and a run registers exactly the names it records: a
/// link that never loses a message exports no `net_messages_lost_total`.
#[derive(Debug, Clone)]
pub(crate) struct NetMeter {
    obs: Obs,
    messages: Option<Counter>,
    lost: Option<Counter>,
    transfer_ns: Option<Histogram>,
}

impl NetMeter {
    /// A meter recording into `obs`.
    pub(crate) fn new(obs: Obs) -> Self {
        NetMeter {
            obs,
            messages: None,
            lost: None,
            transfer_ns: None,
        }
    }

    /// Meters and traces one message: its latency, or `None` if lost.
    fn record(
        &mut self,
        payload_bytes: u64,
        sampled: Option<Duration>,
        ts_ns: u64,
        span: Option<rto_obs::SpanContext>,
    ) {
        let metrics = self.obs.metrics();
        self.messages
            .get_or_insert_with(|| metrics.counter("net_messages_total"))
            .inc();
        let (elapsed_ns, lost) = match sampled {
            Some(d) => {
                self.transfer_ns
                    .get_or_insert_with(|| metrics.histogram("net_transfer_ns"))
                    .record(d.as_ns());
                (d.as_ns(), false)
            }
            None => {
                self.lost
                    .get_or_insert_with(|| metrics.counter("net_messages_lost_total"))
                    .inc();
                (0, true)
            }
        };
        self.obs.emit_with(
            ts_ns,
            span,
            rto_obs::TraceEvent::NetTransfer {
                payload_bytes,
                elapsed_ns,
                lost,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(NetworkModel::new(Duration::ZERO, 0.0, 0.0, 0.0, 0.0).is_err());
        assert!(NetworkModel::new(Duration::ZERO, 1.0, 0.0, 0.0, 1.0).is_err());
        assert!(NetworkModel::new(Duration::ZERO, 1.0, 0.0, 0.0, -0.1).is_err());
        assert!(NetworkModel::new(Duration::ZERO, 1.0, -1.0, 0.0, 0.0).is_err());
        assert!(NetworkModel::new(Duration::ZERO, 1.0, 0.0, 0.0, 0.0).is_ok());
    }

    #[test]
    fn ideal_is_instant_and_lossless() {
        let net = NetworkModel::ideal();
        let mut rng = Rng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(net.sample_transfer(1 << 20, &mut rng), Some(Duration::ZERO));
        }
        assert_eq!(net.loss(), 0.0);
    }

    #[test]
    fn latency_grows_with_payload() {
        // 1 MB at 20 MB/s = 50 ms of serialization.
        let net = NetworkModel::new(Duration::from_ms(1), 20e6, 0.0, 0.0, 0.0).unwrap();
        let mut rng = Rng::seed_from(2);
        let small = net.sample_transfer(1000, &mut rng).unwrap();
        let big = net.sample_transfer(1_000_000, &mut rng).unwrap();
        assert!(big > small);
        assert_eq!(net.deterministic_latency(1_000_000), Duration::from_ms(51));
    }

    #[test]
    fn loss_rate_approximately_respected() {
        let net = NetworkModel::new(Duration::ZERO, 1e6, 0.0, 0.0, 0.2).unwrap();
        let mut rng = Rng::seed_from(3);
        let n = 20_000;
        let lost = (0..n)
            .filter(|_| net.sample_transfer(10, &mut rng).is_none())
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn jitter_adds_variance() {
        let flat = NetworkModel::new(Duration::from_ms(1), 1e9, 0.0, 0.0, 0.0).unwrap();
        let jittery = NetworkModel::new(Duration::from_ms(1), 1e9, 5.0, 0.5, 0.0).unwrap();
        let mut rng = Rng::seed_from(4);
        let flat_samples: Vec<f64> = (0..100)
            .map(|_| flat.sample_transfer(10, &mut rng).unwrap().as_ms_f64())
            .collect();
        let jitter_samples: Vec<f64> = (0..100)
            .map(|_| jittery.sample_transfer(10, &mut rng).unwrap().as_ms_f64())
            .collect();
        assert!(flat_samples
            .iter()
            .all(|&x| (x - flat_samples[0]).abs() < 1e-9));
        let min = jitter_samples.iter().cloned().fold(f64::MAX, f64::min);
        let max = jitter_samples.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 1.0, "jitter range too small: {min}..{max}");
        // Jitter is additive: never below the floor.
        assert!(min >= 1.0);
    }

    #[test]
    fn metered_transfer_matches_unmetered_stream() {
        let obs = Obs::default();
        let mut meter = NetMeter::new(obs.clone());
        let net = NetworkModel::new(Duration::ZERO, 1e6, 1.0, 0.3, 0.2).unwrap();
        let mut a = Rng::seed_from(8);
        let mut b = Rng::seed_from(8);
        let mut delivered = 0u64;
        let mut lost = 0u64;
        for k in 0..500 {
            let plain = net.sample_transfer(100, &mut a);
            let metered = net.sample_transfer_metered(100, &mut b, &mut meter, k, None);
            assert_eq!(plain, metered, "metering must not perturb the stream");
            match metered {
                Some(_) => delivered += 1,
                None => lost += 1,
            }
        }
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("net_messages_total"), Some(500));
        assert_eq!(snap.counter("net_messages_lost_total"), Some(lost));
        assert_eq!(snap.histogram("net_transfer_ns").unwrap().count, delivered);
    }

    #[test]
    fn metered_transfer_registers_only_what_it_records() {
        let obs = Obs::default();
        let mut meter = NetMeter::new(obs.clone());
        let mut rng = Rng::seed_from(6);
        for k in 0..10 {
            NetworkModel::ideal().sample_transfer_metered(10, &mut rng, &mut meter, k, None);
        }
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("net_messages_total"), Some(10));
        assert_eq!(snap.counter("net_messages_lost_total"), None);
        assert_eq!(snap.histogram("net_transfer_ns").unwrap().count, 10);
    }

    #[test]
    fn traced_transfer_matches_stream_and_tags_spans() {
        use rto_obs::{MemorySink, TraceEvent};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let obs = Obs::with_sink(sink.clone());
        let mut meter = NetMeter::new(obs.clone());
        let net = NetworkModel::new(Duration::ZERO, 1e6, 1.0, 0.3, 0.2).unwrap();
        let ctx = rto_obs::span::offload_ctx(3);
        let mut a = Rng::seed_from(8);
        let mut b = Rng::seed_from(8);
        for k in 0..100u64 {
            let plain = net.sample_transfer(100, &mut a);
            let traced = net.sample_transfer_metered(100, &mut b, &mut meter, k, Some(ctx));
            assert_eq!(plain, traced, "tracing must not perturb the stream");
        }
        let records = sink.snapshot();
        assert_eq!(records.len(), 100);
        for rec in &records {
            assert_eq!(rec.span, Some(ctx));
            match rec.event {
                TraceEvent::NetTransfer {
                    payload_bytes,
                    elapsed_ns,
                    lost,
                } => {
                    assert_eq!(payload_bytes, 100);
                    if lost {
                        assert_eq!(elapsed_ns, 0);
                    }
                }
                ref other => panic!("unexpected event {other:?}"),
            }
        }
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counter("net_messages_total"), Some(100));
    }

    #[test]
    fn wlan_preset_reasonable() {
        let net = NetworkModel::wlan();
        let mut rng = Rng::seed_from(5);
        let mut got_some = false;
        for _ in 0..100 {
            if let Some(d) = net.sample_transfer(60_000, &mut rng) {
                assert!(d >= Duration::from_ms(1));
                assert!(d < Duration::from_secs(1));
                got_some = true;
            }
        }
        assert!(got_some);
    }
}
