//! Mergeable per-shard metric exports.
//!
//! A [`MetricsShard`] is the unit a sharded sweep dispatcher collects
//! from each worker and folds together with [`MetricsShard::merge`].
//! The merge obeys the monoid laws — **associative**, **commutative**,
//! with the empty shard as **identity** — so the combined result is
//! independent of worker count, completion order, and fold shape
//! (verified by proptests in `tests/merge_laws.rs`). That is what makes
//! a `--jobs 8` sweep's merged metrics byte-identical to the serial
//! run's.
//!
//! Per family:
//!
//! * **Counters** merge by saturating addition.
//! * **Gauges** merge by *last-writer-wins*, arbitrated
//!   deterministically: the entry with the larger `(seq, bits)` pair
//!   wins, where `seq` counts completed writes on the source gauge.
//!   Ties on `seq` (two shards that wrote equally often) fall back to
//!   the larger bit pattern — arbitrary but total, so the merge stays
//!   commutative. Gauges are stored as exact `f64` bits; merging never
//!   does float arithmetic.
//! * **Histogram digests** merge by adding sparse bucket counts
//!   (keyed on bucket index) and combining count/sum/min/max.
//! * **Series** (windowed time buckets) merge by summing per-bucket
//!   counts/sums keyed on bucket start time. The merge is a lossless
//!   union — only the *live recorder* windows its ring — so the laws
//!   hold unconditionally.
//!
//! Everything here serializes through the workspace serde with
//! `BTreeMap`-ordered keys, so equal shards render byte-identical JSON.

use crate::metrics::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, SeriesSample};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One non-empty histogram bucket: the log-linear bucket index and its
/// observation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Log-linear bucket index (see `rto_obs::metrics` layout docs).
    pub index: u32,
    /// Observations in this bucket.
    pub count: u64,
}

/// A snapshot of a histogram's full bucket state, sparse and mergeable.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramDigest {
    /// Total observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Smallest observation (`None` when empty).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub min: Option<u64>,
    /// Largest observation (`None` when empty).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max: Option<u64>,
    /// Non-empty buckets, sorted ascending by index.
    pub buckets: Vec<BucketCount>,
}

/// Combines two optional extrema with `pick` (min or max).
fn merge_opt(a: Option<u64>, b: Option<u64>, pick: fn(u64, u64) -> u64) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(pick(a, b)),
        (x, None) | (None, x) => x,
    }
}

/// Adds the index-sorted `incoming` buckets into the index-sorted
/// `buckets`, summing counts on equal indices.
///
/// One forward pass: an index already present is added in place, a new
/// one is inserted at its position, shifting the tail. An accumulator
/// that has seen a few shards holds nearly every index it is sent, so a
/// fold is linear and allocates nothing; each new index costs one shift
/// of at most 1,920 entries.
fn add_buckets(buckets: &mut Vec<BucketCount>, incoming: impl Iterator<Item = BucketCount>) {
    let mut j = 0;
    for b in incoming {
        while buckets.get(j).is_some_and(|a| a.index < b.index) {
            j += 1;
        }
        match buckets.get_mut(j) {
            Some(a) if a.index == b.index => a.count = a.count.saturating_add(b.count),
            _ => buckets.insert(j, b),
        }
        j += 1;
    }
}

impl HistogramDigest {
    /// Folds `other` into `self` (associative, commutative; the empty
    /// digest is the identity).
    pub fn merge(&mut self, other: &HistogramDigest) {
        self.merge_parts(
            other.count,
            other.sum,
            other.min,
            other.max,
            other.buckets.iter().copied(),
        );
    }

    /// Folds in a digest given by its parts; `buckets` must be sorted
    /// ascending by index with no index repeated.
    pub(crate) fn merge_parts(
        &mut self,
        count: u64,
        sum: u64,
        min: Option<u64>,
        max: Option<u64>,
        buckets: impl Iterator<Item = BucketCount>,
    ) {
        self.count = self.count.saturating_add(count);
        self.sum = self.sum.saturating_add(sum);
        self.min = merge_opt(self.min, min, u64::min);
        self.max = merge_opt(self.max, max, u64::max);
        add_buckets(&mut self.buckets, buckets);
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate `q`-quantile, same semantics as
    /// [`Histogram::quantile`](crate::metrics::Histogram::quantile).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil().clamp(0.0, u64::MAX as f64) as u64)
            .clamp(1, self.count);
        let mut seen = 0u64;
        for b in &self.buckets {
            seen = seen.saturating_add(b.count);
            if seen >= rank {
                let lo = crate::metrics::bucket_lower_u32(b.index).max(self.min.unwrap_or(0));
                return Some(lo.min(self.max.unwrap_or(u64::MAX)));
            }
        }
        self.max
    }

    /// Reduces the digest to the summary-statistics sample format used
    /// in [`MetricsSnapshot`].
    pub fn to_sample(&self, name: &str) -> HistogramSample {
        HistogramSample {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// A gauge exported for merging: exact value bits plus the source
/// gauge's write stamp. Merging keeps the entry with the larger
/// `(seq, bits)` pair (last-writer-wins, deterministic tie-break).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GaugeShard {
    /// Completed writes on the source gauge when exported.
    pub seq: u64,
    /// The gauge value as raw `f64` bits (exact; no float arithmetic).
    pub bits: u64,
}

impl GaugeShard {
    /// The gauge value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits)
    }

    /// Folds `other` into `self` by last-writer-wins.
    pub fn merge(&mut self, other: &GaugeShard) {
        if (other.seq, other.bits) > (self.seq, self.bits) {
            *self = *other;
        }
    }
}

/// One time bucket of a windowed series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Bucket start, ns (inclusive; the bucket covers one width).
    pub start_ns: u64,
    /// Observations in the bucket.
    pub count: u64,
    /// Sum of observed values in the bucket.
    pub sum: u64,
}

/// A windowed series exported for merging: buckets sorted ascending by
/// start time.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SeriesShard {
    /// Width of each time bucket in nanoseconds (0 only for the empty
    /// identity shard; merge keeps the larger width).
    pub bucket_width_ns: u64,
    /// Buckets, sorted ascending by `start_ns`.
    pub points: Vec<TimePoint>,
}

impl SeriesShard {
    /// Folds `other` into `self`: per-bucket sums keyed on start time,
    /// lossless union (the live recorder is what windows the ring).
    pub fn merge(&mut self, other: &SeriesShard) {
        self.bucket_width_ns = self.bucket_width_ns.max(other.bucket_width_ns);
        let mut merged = Vec::with_capacity(self.points.len().max(other.points.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.points.len() || j < other.points.len() {
            match (self.points.get(i), other.points.get(j)) {
                (Some(a), Some(b)) if a.start_ns == b.start_ns => {
                    merged.push(TimePoint {
                        start_ns: a.start_ns,
                        count: a.count.saturating_add(b.count),
                        sum: a.sum.saturating_add(b.sum),
                    });
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a.start_ns < b.start_ns => {
                    merged.push(*a);
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    merged.push(*b);
                    j += 1;
                }
                (Some(a), None) => {
                    merged.push(*a);
                    i += 1;
                }
                (None, Some(b)) => {
                    merged.push(*b);
                    j += 1;
                }
                (None, None) => break,
            }
        }
        self.points = merged;
    }
}

/// Merges into the entry `name` of `map`, starting a new name from the
/// empty entry (the identity). The name is cloned only for a new entry.
pub(crate) fn fold<V: Default>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    merge: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(v) => merge(v),
        None => {
            let mut v = V::default();
            merge(&mut v);
            map.insert(name.to_owned(), v);
        }
    }
}

/// Every metric of one worker, exported in mergeable form.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsShard {
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, GaugeShard>,
    /// Histogram digests by name.
    pub histograms: BTreeMap<String, HistogramDigest>,
    /// Windowed series by name (absent in older exports).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub series: BTreeMap<String, SeriesShard>,
}

impl MetricsShard {
    /// Folds `other` into `self` (associative, commutative; the empty
    /// shard is the identity).
    pub fn merge(&mut self, other: &MetricsShard) {
        for (name, value) in &other.counters {
            fold(&mut self.counters, name, |c| *c = c.saturating_add(*value));
        }
        for (name, g) in &other.gauges {
            fold(&mut self.gauges, name, |acc| acc.merge(g));
        }
        for (name, h) in &other.histograms {
            fold(&mut self.histograms, name, |acc| acc.merge(h));
        }
        for (name, s) in &other.series {
            fold(&mut self.series, name, |acc| acc.merge(s));
        }
    }

    /// Whether nothing was exported.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }

    /// Reduces the shard to the summary-statistics snapshot format
    /// (what reports embed and Prometheus renders from).
    pub fn to_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, value)| CounterSample {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, g)| GaugeSample {
                    name: name.clone(),
                    value: g.value(),
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| h.to_sample(name))
                .collect(),
            series: self
                .series
                .iter()
                .map(|(name, s)| SeriesSample {
                    name: name.clone(),
                    bucket_width_ns: s.bucket_width_ns,
                    points: s.points.clone(),
                })
                .collect(),
        }
    }

    /// Canonical JSON encoding (`BTreeMap`-ordered keys): equal shards
    /// render byte-identical strings.
    pub fn to_json(&self) -> String {
        // Plain data with an infallible Serialize impl; never panic
        // from an exporter (lint L3).
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, MetricsRegistry};

    #[test]
    fn registry_shard_reflects_recorded_values() {
        let reg = MetricsRegistry::new();
        reg.counter("jobs").add(3);
        reg.gauge("util").set(0.75);
        reg.histogram("lat").record(100);
        reg.series("done", 10).record(25, 2);
        let shard = reg.shard();
        assert_eq!(shard.counters.get("jobs"), Some(&3));
        assert_eq!(shard.gauges.get("util").map(GaugeShard::value), Some(0.75));
        assert_eq!(shard.histograms.get("lat").map(|h| h.count), Some(1));
        assert_eq!(
            shard.series.get("done").map(|s| s.points.clone()),
            Some(vec![TimePoint {
                start_ns: 20,
                count: 1,
                sum: 2
            }])
        );
        assert!(!shard.is_empty());
        assert!(MetricsShard::default().is_empty());
    }

    #[test]
    fn digest_matches_live_histogram_stats() {
        let h = Histogram::new();
        for v in [0u64, 5, 31, 32, 1000, 1_000_000] {
            h.record(v);
        }
        let d = h.digest();
        assert_eq!(d.count, h.count());
        assert_eq!(d.sum, h.sum());
        assert_eq!(d.min, h.min());
        assert_eq!(d.max, h.max());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(d.quantile(q), h.quantile(q), "q={q}");
        }
        assert_eq!(d.mean(), h.mean());
    }

    #[test]
    fn merged_digest_equals_single_histogram_over_all_values() {
        let (a, b, whole) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..500u64 {
            a.record(v * 7);
            whole.record(v * 7);
        }
        for v in 0..300u64 {
            b.record(v * 13 + 1);
            whole.record(v * 13 + 1);
        }
        let mut merged = a.digest();
        merged.merge(&b.digest());
        assert_eq!(merged, whole.digest());
    }

    #[test]
    fn gauge_merge_is_last_writer_wins() {
        let newer = GaugeShard {
            seq: 5,
            bits: 2.0f64.to_bits(),
        };
        let older = GaugeShard {
            seq: 3,
            bits: 9.0f64.to_bits(),
        };
        let mut m = older;
        m.merge(&newer);
        assert_eq!(m, newer);
        let mut m = newer;
        m.merge(&older);
        assert_eq!(m, newer);
    }

    #[test]
    fn series_merge_unions_buckets() {
        let a = SeriesShard {
            bucket_width_ns: 10,
            points: vec![
                TimePoint {
                    start_ns: 0,
                    count: 1,
                    sum: 4,
                },
                TimePoint {
                    start_ns: 20,
                    count: 2,
                    sum: 6,
                },
            ],
        };
        let b = SeriesShard {
            bucket_width_ns: 10,
            points: vec![
                TimePoint {
                    start_ns: 10,
                    count: 1,
                    sum: 1,
                },
                TimePoint {
                    start_ns: 20,
                    count: 1,
                    sum: 5,
                },
            ],
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(
            m.points,
            vec![
                TimePoint {
                    start_ns: 0,
                    count: 1,
                    sum: 4
                },
                TimePoint {
                    start_ns: 10,
                    count: 1,
                    sum: 1
                },
                TimePoint {
                    start_ns: 20,
                    count: 3,
                    sum: 11
                },
            ]
        );
    }

    #[test]
    fn equal_shards_render_identical_json() {
        let mk = || {
            let reg = MetricsRegistry::new();
            reg.counter("a").add(2);
            reg.gauge("g").set(1.5);
            reg.histogram("h").record(7);
            reg.shard()
        };
        assert_eq!(mk().to_json(), mk().to_json());
    }

    #[test]
    fn shard_to_snapshot_matches_registry_snapshot() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(4);
        reg.gauge("g").set(-2.5);
        reg.histogram("h").record(10);
        reg.histogram("h").record(1000);
        assert_eq!(reg.shard().to_snapshot(), reg.snapshot());
    }
}
