//! loom model tests for the lock-free metrics hot paths.
//!
//! Build with `RUSTFLAGS="--cfg loom" cargo test -p rto-obs --test
//! loom_metrics` (see `scripts/check.sh`). Without the cfg the file
//! compiles to nothing, so the regular test run is unaffected.
//!
//! Each test wraps a two-thread interaction with a Counter / Gauge /
//! Histogram handle pair cloned from the same registry entry and
//! asserts that no update is lost and every aggregate is consistent,
//! under whatever interleavings the loom backend explores (exhaustive
//! with the real crate, randomized stress with the vendored shim).
#![cfg(loom)]

use rto_obs::MetricsRegistry;

#[test]
fn counter_increments_are_never_lost() {
    loom::model(|| {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("jobs");
        let c2 = reg.counter("jobs"); // same underlying atomic
        let h = loom::thread::spawn(move || {
            c1.inc();
            c1.add(2);
        });
        c2.inc();
        h.join().expect("counter thread");
        assert_eq!(reg.snapshot().counter("jobs"), Some(4));
    });
}

#[test]
fn gauge_cas_add_is_atomic() {
    loom::model(|| {
        let reg = MetricsRegistry::new();
        let g1 = reg.gauge("queue_depth");
        let g2 = reg.gauge("queue_depth");
        let h = loom::thread::spawn(move || {
            g1.add(1.5);
        });
        g2.add(-0.5);
        h.join().expect("gauge thread");
        let v = reg.snapshot().gauge("queue_depth").expect("gauge exported");
        // Both CAS loops must retire exactly once: 1.5 - 0.5 = 1.0
        // (each addend is exactly representable, so no tolerance games).
        assert!((v - 1.0).abs() < 1e-12, "lost gauge update: {v}");
    });
}

#[test]
fn histogram_concurrent_records_are_consistent() {
    loom::model(|| {
        let reg = MetricsRegistry::new();
        let h1 = reg.histogram("latency_ns");
        let h2 = reg.histogram("latency_ns");
        let t = loom::thread::spawn(move || {
            h1.record(5);
            h1.record(1_000_000);
        });
        h2.record(42);
        t.join().expect("histogram thread");
        let snap = reg.snapshot();
        let h = snap.histogram("latency_ns").expect("histogram exported");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1_000_047);
        assert_eq!(h.min, Some(5));
        assert_eq!(h.max, Some(1_000_000));
        // Quantiles must come from the same three observations.
        assert!(h.p50.is_some() && h.p99.is_some());
    });
}

/// `record` reads `min`/`max` first and issues `fetch_min`/`fetch_max`
/// only for a new extreme. Each thread records a value that is an
/// extreme only relative to its own first one, so a read that skips
/// the RMW on a stale view would lose the global extreme.
#[test]
fn histogram_skipped_extreme_updates_never_lose_an_extreme() {
    loom::model(|| {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("latency_ns");
        let b = reg.histogram("latency_ns");
        let t = loom::thread::spawn(move || {
            a.record(10);
            a.record(1);
        });
        b.record(5);
        b.record(100);
        t.join().expect("histogram thread");
        let h = reg.histogram("latency_ns");
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 116);
        let d = h.digest();
        assert_eq!((d.min, d.max, d.count, d.sum), (Some(1), Some(100), 4, 116));
    });
}

#[test]
fn concurrent_handle_registration_is_single_cell() {
    loom::model(|| {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let r2 = std::sync::Arc::clone(&reg);
        let t = loom::thread::spawn(move || {
            let c = r2.counter("shared");
            c.inc();
        });
        let c = reg.counter("shared");
        c.inc();
        t.join().expect("registration thread");
        // Registration must dedupe on name: both increments land in
        // the same cell.
        assert_eq!(reg.snapshot().counter("shared"), Some(2));
    });
}
