//! Hand-rolled metrics: counters, gauges, log-linear histograms, and a
//! registry with Prometheus-text and JSON exporters.
//!
//! Everything is lock-free on the hot path: handles are `Arc`-shared
//! atomics, so instrumented code clones a handle once and then records
//! with plain atomic ops. The registry itself (name → handle) takes a
//! mutex on every lookup by name and on every export.
//!
//! The rule that follows: **resolve handles once; look names up by name
//! only at set-up.** A by-name lookup takes that mutex and searches a
//! B-tree (it allocates only when it registers a new name), so code
//! that records per event keeps the handles it resolved (the engine's
//! `SimMetrics`, the server's `NetMeter`).
//!
//! Its companion for many short runs: **clear and reuse a registry,
//! never rebuild it.** [`MetricsRegistry::clear`] makes a registry
//! answer like a new one, but keeps the storage of every metric only it
//! still holds, so the next run's registration of the same name costs
//! no allocation.
//!
//! The histogram uses the classic log-linear bucket layout (as in HDR
//! histograms): values below 2^[`SUB_BITS`] get exact unit buckets;
//! every higher power-of-two range is split into 2^[`SUB_BITS`] linear
//! sub-buckets, bounding relative quantile error at
//! 2^-[`SUB_BITS`] ≈ 3.1%.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
// Under `--cfg loom` the concurrency primitives come from the loom
// model checker so the Counter/Gauge/Histogram hot paths can be
// model-tested (see `tests/loom_metrics.rs` and DESIGN.md §8).
#[cfg(loom)]
use loom::sync::atomic::{fence, AtomicU64, Ordering};
#[cfg(loom)]
use loom::sync::{Arc, Mutex};
#[cfg(not(loom))]
use std::sync::atomic::{fence, AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // analyze: allow(L6): independent monotonic tally; no ordering with other memory
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // analyze: allow(L6): snapshot read of an independent counter; staleness is acceptable
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a free-standing `f64` that can go up and down.
///
/// Besides the value, the gauge keeps a monotone *write stamp* (count
/// of completed writes). Shard export pairs the stamp with the value so
/// merging shards can arbitrate gauges by last-writer-wins
/// deterministically (see [`crate::shard::GaugeShard`]).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
    seq: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        // analyze: allow(L6): last-writer-wins gauge; no cross-variable ordering needed
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        // analyze: allow(L6): monotone write tally; shard export tolerates a stale pairing
        self.seq.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        // analyze: allow(L6): CAS loop re-reads on failure; the single cell is the only shared state
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                // analyze: allow(L6): success/failure both re-validate the same cell; no other memory is published
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        // analyze: allow(L6): monotone write tally; shard export tolerates a stale pairing
        self.seq.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // analyze: allow(L6): snapshot read; staleness is acceptable for a gauge
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Number of completed writes so far (the last-writer-wins stamp
    /// exported in shards).
    pub fn write_seq(&self) -> u64 {
        // analyze: allow(L6): snapshot read of a monotone tally
        self.seq.load(Ordering::Relaxed)
    }
}

/// Linear sub-bucket resolution: 2^5 = 32 sub-buckets per power of two.
const SUB_BITS: u32 = 5;
/// `2^SUB_BITS` as a literal (and its `usize` twin below): spelled out
/// so the index arithmetic uses target-width constants directly instead
/// of cross-width casts the interval analysis (A4) cannot bound.
const SUB: u64 = 32;
const SUB_USIZE: usize = 32;
const _: () = assert!(SUB == 1 << SUB_BITS && SUB_USIZE as u64 == SUB);
/// Bucket count: 2^SUB_BITS unit buckets + one block of 2^SUB_BITS per
/// exponent SUB_BITS..=63.
const BUCKETS: usize = SUB_USIZE * (64 - SUB_BITS as usize + 1);

#[derive(Debug)]
struct HistCore {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A lock-free log-linear histogram over non-negative integer values
/// (typically nanoseconds or queue depths).
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for `v` (log-linear layout).
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    // v >= 32 here, so the exponent is already >= SUB_BITS; the clamp
    // states the range explicitly for the interval analysis (A4).
    let exp = (63 - v.leading_zeros()).clamp(SUB_BITS, 63);
    let block = (exp - SUB_BITS) as usize;
    // The top SUB_BITS+1 bits of v select the linear sub-bucket: the
    // shifted value is in [32, 63], so the subtraction lands in
    // [0, 31]; saturating+min make those bounds explicit.
    let sub = ((v >> (exp - SUB_BITS)).saturating_sub(SUB)).min(SUB - 1) as usize;
    SUB_USIZE + block * SUB_USIZE + sub
}

/// Lower bound of bucket `i` (inverse of [`bucket_index`]).
fn bucket_lower(i: usize) -> u64 {
    if i < SUB_USIZE {
        return i as u64;
    }
    let off = i - SUB_USIZE;
    // In-range indices give block <= 59; the min keeps the shifts
    // provably below 64 even for out-of-range input (A4).
    let block = (off / SUB_USIZE).min(58);
    let sub = (off % SUB_USIZE).min(31) as u64;
    let exp = u32::try_from(block).unwrap_or(58) + SUB_BITS;
    (1u64 << exp) + (sub << (exp - SUB_BITS))
}

/// [`bucket_lower`] over the `u32` indices stored in shard digests.
pub(crate) fn bucket_lower_u32(i: u32) -> u64 {
    bucket_lower(usize::try_from(i).unwrap_or(0))
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(HistCore {
                counts: counts.into_boxed_slice(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    ///
    /// Three RMWs on the common path (bucket, count, sum). `min` only
    /// falls and `max` only rises, so each is read first and updated
    /// only for a new extreme: a skipped `fetch_min`/`fetch_max` would
    /// have been a no-op. The sum saturates at `u64::MAX`, as digest
    /// merges do.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.core;
        if let Some(slot) = c.counts.get(bucket_index(v)) {
            // analyze: allow(L6): per-field tallies; snapshot() tolerates torn cross-field views (count/sum/min/max may momentarily disagree)
            slot.fetch_add(1, Ordering::Relaxed);
        }
        // analyze: allow(L6): see above — aggregate consistency is not promised mid-flight
        c.count.fetch_add(1, Ordering::Relaxed);
        // analyze: allow(L6): see above
        let before = c.sum.fetch_add(v, Ordering::Relaxed);
        if before.checked_add(v).is_none() {
            // The add wrapped: pin the ceiling. Every later add of a
            // non-zero value wraps too and re-pins it.
            // analyze: allow(L6): the ceiling is a fixpoint; racing adds only re-store it
            c.sum.store(u64::MAX, Ordering::Relaxed);
        }
        // analyze: allow(L6): a stale read is never below the current min, so skipping is still a no-op
        if v < c.min.load(Ordering::Relaxed) {
            // analyze: allow(L6): fetch_min is idempotent and order-free
            c.min.fetch_min(v, Ordering::Relaxed);
        }
        // analyze: allow(L6): a stale read is never above the current max, so skipping is still a no-op
        if v > c.max.load(Ordering::Relaxed) {
            // analyze: allow(L6): fetch_max is idempotent and order-free
            c.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        // analyze: allow(L6): snapshot read
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        // analyze: allow(L6): snapshot read
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        // analyze: allow(L6): snapshot read; emptiness re-checked via count
        (self.count() > 0).then(|| self.core.min.load(Ordering::Relaxed))
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        // analyze: allow(L6): snapshot read; emptiness re-checked via count
        (self.count() > 0).then(|| self.core.max.load(Ordering::Relaxed))
    }

    /// Mean of observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count() > 0).then(|| self.sum() as f64 / self.count() as f64)
    }

    /// The buckets that can be non-zero, `bucket_index(min) ..=
    /// bucket_index(max)`, as `(index, count)` pairs in index order.
    ///
    /// The range is exact at rest: no observation lies outside
    /// `[min, max]`. Mid-flight it is torn like every other cross-field
    /// view (a racing record may have bumped its bucket before its
    /// extreme). Storage stays dense, so recording never allocates.
    fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (lo, slots) = self.occupied_slots();
        slots.iter().zip(lo..).map(|(slot, i)| {
            // analyze: allow(L6): snapshot read; exports are point-in-time
            (i, slot.load(Ordering::Relaxed))
        })
    }

    /// The slots of [`occupied`](Self::occupied), and the index of the
    /// first.
    fn occupied_slots(&self) -> (usize, &[AtomicU64]) {
        let c = &self.core;
        // analyze: allow(L6): snapshot read; the range is exact at rest and torn mid-flight like the other fields
        let lo = bucket_index(c.min.load(Ordering::Relaxed));
        // analyze: allow(L6): as above
        let hi = bucket_index(c.max.load(Ordering::Relaxed));
        // An empty histogram has min > max, so the range is empty.
        (lo, c.counts.get(lo..=hi).unwrap_or_default())
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1): the lower bound of the
    /// bucket containing the rank, clamped to the observed min/max.
    /// Relative error ≤ 2^-5 ≈ 3.1%. `None` when empty. Scans only the
    /// occupied bucket range.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil().clamp(0.0, u64::MAX as f64) as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, n) in self.occupied() {
            seen += n;
            if seen >= rank {
                let lo = bucket_lower(i).max(self.min().unwrap_or(0));
                return Some(lo.min(self.max().unwrap_or(u64::MAX)));
            }
        }
        self.max()
    }

    /// Exports the full bucket state as a mergeable
    /// [`HistogramDigest`](crate::shard::HistogramDigest) (sparse:
    /// only non-empty buckets are included).
    pub fn digest(&self) -> crate::shard::HistogramDigest {
        let mut digest = crate::shard::HistogramDigest::default();
        self.merge_into(&mut digest);
        digest
    }

    /// Folds this histogram into `acc`; the same as
    /// `acc.merge(&self.digest())`, without building the digest.
    pub(crate) fn merge_into(&self, acc: &mut crate::shard::HistogramDigest) {
        let buckets = self.occupied().filter(|&(_, n)| n > 0).map(|(i, count)| {
            crate::shard::BucketCount {
                // BUCKETS = 1920, far below u32::MAX; total fallback
                // anyway (lint L3).
                index: u32::try_from(i).unwrap_or(u32::MAX),
                count,
            }
        });
        acc.merge_parts(self.count(), self.sum(), self.min(), self.max(), buckets);
    }
}

/// Default ring capacity (in time buckets) of a windowed [`Series`].
const SERIES_WINDOW: usize = 64;

#[derive(Debug, Default)]
struct SeriesInner {
    bucket_width_ns: u64,
    points: std::collections::VecDeque<crate::shard::TimePoint>,
}

/// A windowed time series: observations fold into fixed-width time
/// buckets, and only the most recent [`SERIES_WINDOW`] buckets are kept
/// (a ring), bounding memory for arbitrarily long runs.
///
/// Not a hot-path primitive (it takes a mutex); record at coarse-grained
/// progress points — e.g. once per finished trial — not per event.
#[derive(Debug, Clone, Default)]
pub struct Series {
    inner: Arc<Mutex<SeriesInner>>,
}

impl Series {
    /// A series whose bucket width is fixed at construction (the
    /// registry creates every series this way, so no post-registration
    /// locking is needed).
    fn with_width(bucket_width_ns: u64) -> Series {
        Series {
            inner: Arc::new(Mutex::new(SeriesInner {
                bucket_width_ns: bucket_width_ns.max(1),
                points: std::collections::VecDeque::new(),
            })),
        }
    }

    /// Lock with poison recovery (ring pushes only; lint L3).
    fn lock(&self) -> std::sync::MutexGuard<'_, SeriesInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records `value` at `ts_ns`. Observations land in the bucket
    /// containing `ts_ns`; an observation older than the retained
    /// window is dropped.
    pub fn record(&self, ts_ns: u64, value: u64) {
        let mut inner = self.lock();
        let width = inner.bucket_width_ns.max(1);
        // analyze: allow(L1): bucket flooring on a u64 ns timestamp; obs sits below rto-core, so `Duration` is unavailable
        let start_ns = ts_ns - ts_ns % width;
        // The window is small (64 buckets); a linear scan beats keeping
        // an index structure.
        if let Some(p) = inner.points.iter_mut().find(|p| p.start_ns == start_ns) {
            p.count = p.count.saturating_add(1);
            p.sum = p.sum.saturating_add(value);
            return;
        }
        // A new bucket. The ring stays sorted by start time, so an
        // observation older than the newest retained bucket (and not in
        // any retained bucket) is dropped.
        if inner.points.back().is_some_and(|b| b.start_ns > start_ns) {
            return;
        }
        if inner.points.len() == SERIES_WINDOW {
            inner.points.pop_front();
        }
        // analyze: allow(A7): bounded ring — the pop_front above caps the deque at SERIES_WINDOW
        inner.points.push_back(crate::shard::TimePoint {
            start_ns,
            count: 1,
            sum: value,
        });
    }

    /// Exports the retained window as a mergeable
    /// [`SeriesShard`](crate::shard::SeriesShard).
    pub fn shard(&self) -> crate::shard::SeriesShard {
        let inner = self.lock();
        crate::shard::SeriesShard {
            bucket_width_ns: inner.bucket_width_ns,
            points: inner.points.iter().copied().collect(),
        }
    }
}

/// One exported counter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One exported gauge value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Gauge value.
    pub value: f64,
}

/// One exported histogram, reduced to summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation; `None` when the histogram is empty, so a
    /// histogram that *observed* zeros is distinguishable from one that
    /// observed nothing.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub min: Option<u64>,
    /// Largest observation (`None` when empty).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max: Option<u64>,
    /// Approximate median (`None` when empty).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub p50: Option<u64>,
    /// Approximate 90th percentile (`None` when empty).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub p90: Option<u64>,
    /// Approximate 99th percentile (`None` when empty).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub p99: Option<u64>,
}

/// One exported windowed time series (see [`Series`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesSample {
    /// Metric name.
    pub name: String,
    /// Width of each time bucket in nanoseconds.
    pub bucket_width_ns: u64,
    /// Retained buckets, oldest first.
    pub points: Vec<crate::shard::TimePoint>,
}

/// A point-in-time export of a whole registry, ordered by metric name.
///
/// Serializable, comparable, and embeddable in reports (the simulator
/// carries one inside `SimReport`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, by name.
    pub counters: Vec<CounterSample>,
    /// All gauges, by name.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, by name.
    pub histograms: Vec<HistogramSample>,
    /// All windowed time series, by name (absent in older snapshots,
    /// omitted when no series are registered — so pre-series JSON stays
    /// byte-identical).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub series: Vec<SeriesSample>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram sample by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }
}

/// A metric as the registry stores it.
#[derive(Debug)]
struct Entry<H> {
    handle: H,
    /// Whether the metric is registered. A retired entry is storage
    /// that [`MetricsRegistry::clear`] kept for the next registration
    /// of its name; every lookup and export skips it.
    live: bool,
}

type Entries<H> = BTreeMap<String, Entry<H>>;

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Entries<Counter>,
    gauges: Entries<Gauge>,
    histograms: Entries<Histogram>,
    series: Entries<Series>,
}

/// A named collection of metrics.
///
/// Cloning is cheap and shares the underlying metrics, so the same
/// registry can be handed to the simulator, the server models, and the
/// decision manager, then exported once at the end.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the name→handle map, recovering from poisoning: the
    /// guarded state is structurally simple (map inserts and reads), so
    /// a panic elsewhere while holding the lock cannot leave it
    /// inconsistent, and metrics must never take the process down
    /// (lint L3).
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Returns (registering on first use) the counter `name`.
    ///
    /// Lookups by name take the registry lock: resolve a handle once at
    /// set-up and record through it, never look it up per event.
    pub fn counter(&self, name: &str) -> Counter {
        handle(&mut self.lock().counters, name, Counter::default, |_| {})
    }

    /// Returns (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        handle(&mut self.lock().gauges, name, Gauge::default, |_| {})
    }

    /// Returns (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        handle(&mut self.lock().histograms, name, Histogram::new, |_| {})
    }

    /// Returns (registering on first use) the windowed time series
    /// `name` with the given bucket width. The width is fixed on first
    /// registration; later calls return the existing series unchanged.
    pub fn series(&self, name: &str, bucket_width_ns: u64) -> Series {
        handle(
            &mut self.lock().series,
            name,
            || Series::with_width(bucket_width_ns),
            |s| s.lock().bucket_width_ns = bucket_width_ns.max(1),
        )
    }

    /// Unregisters every metric: afterwards every lookup, export and
    /// renderer behaves exactly as on a new registry.
    ///
    /// Only storage survives. A metric that only the registry still
    /// holds is reset to empty and kept, and the next registration of
    /// its name gets it back, so the name, the `Arc` and a histogram's
    /// bucket array are not reallocated. A metric that anyone else
    /// still holds a handle to is dropped from the registry and never
    /// reused, so a stale handle cannot write into the next run. Kept
    /// storage lives for one `clear`: whatever was not registered again
    /// is freed at the next one, so a registry cleared between runs
    /// holds at most one run's metrics.
    pub fn clear(&self) {
        let mut inner = self.lock();
        retire(&mut inner.counters);
        retire(&mut inner.gauges);
        retire(&mut inner.histograms);
        retire(&mut inner.series);
    }

    /// Exports every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: collect_live(&inner.counters, |(name, c)| CounterSample {
                name: name.clone(),
                value: c.get(),
            }),
            gauges: collect_live(&inner.gauges, |(name, g)| GaugeSample {
                name: name.clone(),
                value: g.get(),
            }),
            histograms: collect_live(&inner.histograms, |(name, h)| HistogramSample {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                p50: h.quantile(0.50),
                p90: h.quantile(0.90),
                p99: h.quantile(0.99),
            }),
            series: collect_live(&inner.series, |(name, s)| {
                let shard = s.shard();
                SeriesSample {
                    name: name.clone(),
                    bucket_width_ns: shard.bucket_width_ns,
                    points: shard.points,
                }
            }),
        }
    }

    /// Exports every metric as a mergeable
    /// [`MetricsShard`](crate::shard::MetricsShard) — the per-worker
    /// unit the sharded sweep dispatcher combines with
    /// [`MetricsShard::merge`](crate::shard::MetricsShard::merge).
    /// Folding into the empty shard is the identity, so this is
    /// [`merge_into`](Self::merge_into) from the empty shard.
    pub fn shard(&self) -> crate::shard::MetricsShard {
        let mut shard = crate::shard::MetricsShard::default();
        self.merge_into(&mut shard);
        shard
    }

    /// Folds every metric into `acc`; the same as
    /// `acc.merge(&self.shard())`, without building the intermediate
    /// shard. A sweep worker folds each trial's registry this way and
    /// then clears it.
    pub fn merge_into(&self, acc: &mut crate::shard::MetricsShard) {
        use crate::shard::{fold, GaugeShard};
        let inner = self.lock();
        for (name, c) in live(&inner.counters) {
            fold(&mut acc.counters, name, |a| *a = a.saturating_add(c.get()));
        }
        for (name, g) in live(&inner.gauges) {
            let g = GaugeShard {
                seq: g.write_seq(),
                bits: g.get().to_bits(),
            };
            fold(&mut acc.gauges, name, |a| a.merge(&g));
        }
        for (name, h) in live(&inner.histograms) {
            fold(&mut acc.histograms, name, |a| h.merge_into(a));
        }
        for (name, s) in live(&inner.series) {
            fold(&mut acc.series, name, |a| a.merge(&s.shard()));
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (histograms export as summaries with `quantile` labels).
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for c in &snap.counters {
            let name = sanitize(&c.name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.value);
        }
        for g in &snap.gauges {
            let name = sanitize(&g.name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {:?}", g.value);
        }
        for h in &snap.histograms {
            let name = sanitize(&h.name);
            let _ = writeln!(out, "# TYPE {name} summary");
            // Empty histograms export only _sum/_count: a `quantile`
            // sample of 0 would be indistinguishable from observed
            // zeros.
            for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.99, h.p99)] {
                if let Some(v) = v {
                    let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
                }
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }

    /// Renders the snapshot as a JSON document.
    pub fn render_json(&self) -> String {
        // Snapshots are plain data with an infallible Serialize impl;
        // fall back to an empty object rather than panic (lint L3).
        serde_json::to_string_pretty(&self.snapshot()).unwrap_or_else(|_| "{}".to_string())
    }
}

/// The handle registered as `name`, registering `make()` on first use.
/// A retired entry of that name is registered again after `revive`
/// re-applies the registration's parameters to it. The name is copied
/// into the registry only when no entry has it.
fn handle<H: Clone>(
    map: &mut Entries<H>,
    name: &str,
    make: impl FnOnce() -> H,
    revive: impl FnOnce(&H),
) -> H {
    if let Some(entry) = map.get_mut(name) {
        if !entry.live {
            revive(&entry.handle);
            entry.live = true;
        }
        return entry.handle.clone();
    }
    let entry = map.entry(name.to_owned()).or_insert_with(|| Entry {
        handle: make(),
        live: true,
    });
    entry.handle.clone()
}

/// The registered metrics of `map`, by name.
fn live<H>(map: &Entries<H>) -> impl Iterator<Item = (&String, &H)> {
    map.iter()
        .filter(|(_, e)| e.live)
        .map(|(name, e)| (name, &e.handle))
}

/// `f` over the registered metrics of `map`, in a `Vec` sized once.
fn collect_live<H, T>(map: &Entries<H>, f: impl FnMut((&String, &H)) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(live(map).count());
    out.extend(live(map).map(f));
    out
}

/// Storage a registry can keep across [`MetricsRegistry::clear`].
trait Reusable {
    /// Whether the registry holds the only handle.
    fn unshared(&self) -> bool;
    /// Resets the storage to that of a new metric. Called only on an
    /// unshared handle, so no record runs concurrently.
    fn reset(&self);
}

/// Whether `arc` is the only handle to its value. The acquire fence
/// pairs with the release decrement of the handles dropped before, so
/// their records are visible to the reset that follows.
fn sole<T>(arc: &Arc<T>) -> bool {
    let sole = Arc::strong_count(arc) == 1;
    if sole {
        fence(Ordering::Acquire);
    }
    sole
}

impl Reusable for Counter {
    fn unshared(&self) -> bool {
        sole(&self.value)
    }

    fn reset(&self) {
        // analyze: allow(L6): unshared storage; the registry lock orders it before the next lookup
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Reusable for Gauge {
    fn unshared(&self) -> bool {
        sole(&self.bits) && sole(&self.seq)
    }

    fn reset(&self) {
        // analyze: allow(L6): unshared storage; the registry lock orders it before the next lookup
        self.bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        // analyze: allow(L6): as above
        self.seq.store(0, Ordering::Relaxed);
    }
}

impl Reusable for Histogram {
    fn unshared(&self) -> bool {
        sole(&self.core)
    }

    /// Zeroes only the occupied buckets, `bucket_index(min) ..=
    /// bucket_index(max)`, exact at rest as in the scans, then restores
    /// the empty extremes.
    fn reset(&self) {
        for slot in self.occupied_slots().1 {
            // analyze: allow(L6): unshared storage; the registry lock orders it before the next lookup
            slot.store(0, Ordering::Relaxed);
        }
        let c = &self.core;
        // analyze: allow(L6): as above
        c.count.store(0, Ordering::Relaxed);
        // analyze: allow(L6): as above
        c.sum.store(0, Ordering::Relaxed);
        // analyze: allow(L6): as above
        c.min.store(u64::MAX, Ordering::Relaxed);
        // analyze: allow(L6): as above
        c.max.store(0, Ordering::Relaxed);
    }
}

impl Reusable for Series {
    fn unshared(&self) -> bool {
        sole(&self.inner)
    }

    fn reset(&self) {
        self.lock().points.clear();
    }
}

/// [`MetricsRegistry::clear`] on one family: frees the entries retired
/// by the previous clear and not registered since, frees the metrics
/// someone else still holds, and retires the rest, reset.
fn retire<H: Reusable>(map: &mut Entries<H>) {
    map.retain(|_, e| {
        let keep = e.live && e.handle.unshared();
        if keep {
            e.handle.reset();
            e.live = false;
        }
        keep
    });
}

/// Maps a metric name onto the Prometheus charset `[a-zA-Z0-9_:]`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("rto.offloads");
        c.inc();
        c.add(4);
        // Second handle shares state.
        assert_eq!(reg.counter("rto.offloads").get(), 5);
        let g = reg.gauge("queue_depth");
        g.set(3.0);
        g.add(-1.5);
        assert!((reg.gauge("queue_depth").get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_is_monotone_and_invertible() {
        let mut prev = None;
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let lo = bucket_lower(i);
            assert!(lo <= v, "lower bound {lo} above value {v}");
            if let Some((pv, pi)) = prev {
                assert!(i >= pi, "index not monotone: {pv}->{pi}, {v}->{i}");
            }
            prev = Some((v, i));
        }
        // Unit buckets are exact below 32.
        for v in 0..32u64 {
            assert_eq!(bucket_lower(bucket_index(v)), v);
        }
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        let p50 = h.quantile(0.5).unwrap() as f64;
        let p99 = h.quantile(0.99).unwrap() as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 {p99}");
        assert!((h.mean().unwrap() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn sum_saturates_like_merged_digests() {
        let digest_of = |values: &[u64]| {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h.digest()
        };
        for values in [[u64::MAX, u64::MAX], [u64::MAX, 2], [u64::MAX - 1, 1]] {
            let live = Histogram::new();
            for v in values {
                live.record(v);
            }
            let mut merged = digest_of(&values[..1]);
            merged.merge(&digest_of(&values[1..]));
            assert_eq!(live.sum(), merged.sum, "{values:?}");
            assert_eq!(live.sum(), u64::MAX, "{values:?}");
            assert_eq!(live.digest(), merged, "{values:?}");
        }
        // Below the ceiling the sum is exact, and it stays pinned once
        // there.
        let h = Histogram::new();
        h.record(u64::MAX - 5);
        h.record(5);
        assert_eq!(h.sum(), u64::MAX);
        h.record(0);
        h.record(7);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn snapshot_is_ordered_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.counter("b").inc();
        reg.counter("a").add(2);
        reg.histogram("lat").record(10);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "a");
        assert_eq!(snap.counters[1].name, "b");
        assert_eq!(snap.counter("a"), Some(2));
        assert_eq!(snap.counter("missing"), None);
        let lat = snap.histogram("lat").unwrap();
        assert_eq!(lat.count, 1);
        assert_eq!(lat.min, Some(10));
        assert!(!snap.is_empty());
        assert!(MetricsSnapshot::default().is_empty());
    }

    #[test]
    fn empty_histogram_snapshot_is_distinguishable_from_zeros() {
        let reg = MetricsRegistry::new();
        let _ = reg.histogram("empty");
        reg.histogram("zeros").record(0);
        let snap = reg.snapshot();

        let empty = snap.histogram("empty").unwrap();
        assert_eq!(empty.count, 0);
        assert_eq!((empty.min, empty.max), (None, None));
        assert_eq!((empty.p50, empty.p90, empty.p99), (None, None, None));

        let zeros = snap.histogram("zeros").unwrap();
        assert_eq!(zeros.count, 1);
        assert_eq!((zeros.min, zeros.max), (Some(0), Some(0)));
        assert_eq!(zeros.p50, Some(0));

        // JSON omits the keys entirely for the empty histogram…
        let json = serde_json::to_string(empty).unwrap();
        assert!(!json.contains("\"min\""), "empty: {json}");
        // …but spells out observed zeros.
        let json = serde_json::to_string(zeros).unwrap();
        assert!(json.contains("\"min\":0"), "zeros: {json}");

        // And both round-trip.
        let back: MetricsSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!(snap, back);

        // Prometheus text: no quantile samples for the empty histogram,
        // but _count/_sum still present.
        let text = reg.render_prometheus();
        assert!(text.contains("empty_count 0"));
        assert!(!text.contains("empty{quantile"));
        assert!(text.contains("zeros{quantile=\"0.5\"} 0"));
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.counter("offloads").add(7);
        reg.gauge("util").set(0.25);
        reg.histogram("ns").record(1234);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("rto.misses").inc();
        reg.gauge("rto.util").set(0.5);
        reg.histogram("rto.response-ns").record(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE rto_misses counter"));
        assert!(text.contains("rto_misses 1"));
        assert!(text.contains("# TYPE rto_util gauge"));
        assert!(text.contains("rto_util 0.5"));
        assert!(text.contains("# TYPE rto_response_ns summary"));
        assert!(text.contains("rto_response_ns{quantile=\"0.5\"}"));
        assert!(text.contains("rto_response_ns_count 1"));
    }

    /// `clear` keeps what only the registry holds for the next
    /// registration of the same name, drops what someone else holds, and
    /// frees what the next run does not register again.
    #[test]
    fn clear_reuses_only_unshared_storage_for_one_clear() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        h.record(40);
        h.record(u64::MAX);
        let core = Arc::as_ptr(&h.core);
        drop(h);
        let kept = reg.counter("kept");
        reg.series("ticks", 10).record(5, 1);
        reg.gauge("idle").set(2.0);
        reg.clear();
        assert!(reg.snapshot().is_empty());
        assert!(reg.shard().is_empty());

        let h = reg.histogram("lat");
        assert_eq!(Arc::as_ptr(&h.core), core, "unshared storage is reused");
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, None, None));
        assert!(h.core.counts.iter().all(|n| n.load(Ordering::Relaxed) == 0));
        let fresh = reg.counter("kept");
        assert!(
            !Arc::ptr_eq(&fresh.value, &kept.value),
            "a shared handle is never reused"
        );
        kept.inc();
        assert_eq!(fresh.get(), 0);
        let s = reg.series("ticks", 3);
        assert_eq!(
            s.shard().bucket_width_ns,
            3,
            "a revived series takes the new width"
        );
        assert!(s.shard().points.is_empty());
        drop((h, s));

        // "idle" was not registered again: freed at this clear.
        reg.clear();
        let inner = reg.lock();
        assert!(inner.gauges.is_empty());
        assert_eq!(inner.histograms.len(), 1);
        assert!(inner.histograms.values().all(|e| !e.live));
    }

    #[test]
    fn gauge_add_is_atomic_under_contention() {
        let g = Gauge::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        g.add(1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!((g.get() - 4000.0).abs() < 1e-9);
    }
}
