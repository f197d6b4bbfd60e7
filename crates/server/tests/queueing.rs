//! The GPU server's background process against queueing theory.
//!
//! With two boards, Poisson background arrivals and exponential
//! background service, [`GpuServer`] is an M/M/2 queue served first
//! come, first served: each arrival takes the board that frees first.
//! A probe with `compute_scale` 0 over an ideal network answers after
//! exactly the wait a job arriving at that instant would see, and
//! Poisson probes see the queue's time averages (PASTA). So at offered
//! load `a` the share of probes that wait is Erlang C, `a²/(2 + a)`, and
//! their mean wait is `C·E[S]/(2 − a)`. The check holds for any exact
//! sampler of the two laws; it does not pin a stream.

use rto_core::time::{Duration, Instant};
use rto_server::gpu::{GpuServer, OffloadRequest, OffloadServer};
use rto_server::network::NetworkModel;
use rto_stats::dist::{Distribution, Exponential};
use rto_stats::{OnlineStats, Rng};

/// Mean background service time, in ms.
const SERVICE_MS: f64 = 1_000.0;
/// Mean gap between probes, in ms.
const PROBE_GAP_MS: f64 = 1_000.0;
const WARMUP: Duration = Duration::from_secs(500);
const BATCH: Duration = Duration::from_secs(2_000);
const BATCHES: usize = 20;

/// Per batch of probes: the share that waited and their mean wait, in
/// units of the mean service time.
fn probe_batches(load: f64, seed: u64) -> Vec<(f64, f64)> {
    let mut server = GpuServer::new(
        2,
        1.0,
        0.5,
        load * 1e3 / SERVICE_MS,
        SERVICE_MS,
        NetworkModel::ideal(),
        seed,
    )
    .expect("valid server");
    let probe = OffloadRequest::new(0).with_compute_scale(0.0);
    let gap = Exponential::from_mean(PROBE_GAP_MS).expect("valid mean");
    let mut rng = Rng::seed_from(seed ^ 0x5eed);
    let mut now = Instant::ZERO;
    let mut end = Instant::ZERO + WARMUP;
    let mut batches = Vec::with_capacity(BATCHES);
    let (mut waited, mut wait) = (OnlineStats::new(), OnlineStats::new());
    while batches.len() < BATCHES {
        now += Duration::from_ms_f64_clamped(gap.sample(&mut rng)).max(Duration::from_ns(1));
        if now >= end {
            if end > Instant::ZERO + WARMUP {
                batches.push((waited.mean(), wait.mean()));
            }
            (waited, wait) = (OnlineStats::new(), OnlineStats::new());
            end += BATCH;
        }
        let answer = server
            .submit(&probe, now)
            .arrival()
            .expect("ideal network loses nothing");
        let w = answer.since(now);
        waited.push(if w.is_zero() { 0.0 } else { 1.0 });
        wait.push(w.as_ms_f64() / SERVICE_MS);
    }
    batches
}

/// The batch means' mean and its standard error.
fn mean_and_se(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut acc = OnlineStats::new();
    for v in values {
        acc.push(v);
    }
    (acc.mean(), acc.std_dev() / (acc.count() as f64).sqrt())
}

#[test]
fn background_load_is_an_m_m_2_queue() {
    for (load, seed) in [(0.6, 1), (1.2, 2), (1.8, 3)] {
        let batches = probe_batches(load, seed);
        let erlang_c = load * load / (2.0 + load);
        let (p_wait, se) = mean_and_se(batches.iter().map(|b| b.0));
        assert!(
            (p_wait - erlang_c).abs() < 4.0 * se,
            "load {load}: P(wait) {p_wait:.4} ± {se:.4}, Erlang C {erlang_c:.4}"
        );
        let mean_wait = erlang_c / (2.0 - load);
        let (got, se) = mean_and_se(batches.iter().map(|b| b.1));
        assert!(
            (got - mean_wait).abs() < 4.0 * se,
            "load {load}: mean wait {got:.4} ± {se:.4} E[S], theory {mean_wait:.4}"
        );
    }
}
