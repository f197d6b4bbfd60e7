//! Oracle tests for the histogram export paths.
//!
//! `Histogram::quantile` and `Histogram::digest` scan only the occupied
//! bucket range, `bucket_index(min) ..= bucket_index(max)`, and
//! `MetricsRegistry::merge_into` folds a registry into a shard without
//! exporting one. Both are checked here against the straightforward
//! versions:
//!
//! * a test-local copy of the log-linear layout, counting every value
//!   into all 1,920 buckets and scanning them in full, the way the
//!   histogram did before its scans were bounded (also the oracle for
//!   folded digests: they must equal one histogram of every value);
//! * `acc.merge(&registry.shard())`.

use proptest::prelude::*;
use rto_obs::metrics::{Histogram, MetricsRegistry};
use rto_obs::shard::{BucketCount, HistogramDigest, MetricsShard};

/// Sub-bucket bits of the layout: 32 linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// 32 unit buckets plus 32 per exponent 5..=63.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// The layout's bucket index of `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) - SUB;
    (SUB + u64::from(exp - SUB_BITS) * SUB + sub) as usize
}

/// Lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let off = i - SUB as usize;
    let exp = (off / SUB as usize) as u32 + SUB_BITS;
    (1u64 << exp) + (((off % SUB as usize) as u64) << (exp - SUB_BITS))
}

/// A dense, full-scan histogram over the same layout.
struct Oracle {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl Oracle {
    fn new(values: &[u64]) -> Self {
        let mut counts = vec![0; BUCKETS];
        for &v in values {
            counts[bucket_index(v)] += 1;
        }
        Oracle {
            counts,
            count: values.len() as u64,
            sum: values.iter().fold(0u64, |s, &v| s.saturating_add(v)),
            min: values.iter().copied().min(),
            max: values.iter().copied().max(),
        }
    }

    /// Every bucket scanned from index 0.
    fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil().clamp(0.0, u64::MAX as f64) as u64)
            .clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = bucket_lower(i).max(self.min.unwrap_or(0));
                return Some(lo.min(self.max.unwrap_or(u64::MAX)));
            }
        }
        self.max
    }

    /// Every non-empty bucket, found by a full scan.
    fn digest(&self) -> HistogramDigest {
        HistogramDigest {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &count)| BucketCount {
                    index: i as u32,
                    count,
                })
                .collect(),
        }
    }
}

/// Values that sit on the layout's edges, plus ordinary ones.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(31u64),
        Just(32u64),
        Just(u64::MAX),
        // The lower edge of a bucket in some octave, or one below it.
        (SUB_BITS..64, 0u64..SUB, 0u64..2).prop_map(|(exp, sub, below)| {
            ((1u64 << exp) + (sub << (exp - SUB_BITS))).saturating_sub(below)
        }),
        0u64..100_000,
        0u64..u64::MAX,
    ]
}

/// Empty sets, single values, repeats of one value, and mixed sets.
fn value_set() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        Just(Vec::new()),
        value().prop_map(|v| vec![v]),
        (value(), 2usize..6).prop_map(|(v, n)| vec![v; n]),
        prop::collection::vec(value(), 0..24),
    ]
}

const QUANTILES: [f64; 5] = [0.0, 0.5, 0.9, 0.99, 1.0];

const NAMES: [&str; 3] = ["a", "b", "c"];

/// A registry with counters, gauges, histograms and series.
#[derive(Debug, Clone)]
struct RegistrySpec {
    counters: Vec<(usize, u64)>,
    gauges: Vec<(usize, Vec<u32>)>,
    histograms: Vec<(usize, Vec<u64>)>,
    series: Vec<(usize, Vec<(u64, u64)>)>,
}

fn registry_spec() -> impl Strategy<Value = RegistrySpec> {
    (
        prop::collection::vec(
            (
                0usize..3,
                prop_oneof![0u64..1_000, Just(u64::MAX), Just(u64::MAX - 1)],
            ),
            0..4,
        ),
        prop::collection::vec((0usize..3, prop::collection::vec(0u32..1_000, 0..3)), 0..3),
        prop::collection::vec((0usize..3, value_set()), 0..4),
        prop::collection::vec(
            (
                0usize..3,
                prop::collection::vec((0u64..400, 0u64..50), 0..6),
            ),
            0..2,
        ),
    )
        .prop_map(|(counters, gauges, histograms, series)| RegistrySpec {
            counters,
            gauges,
            histograms,
            series,
        })
}

fn registry(spec: &RegistrySpec) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    for &(name, v) in &spec.counters {
        reg.counter(NAMES[name]).add(v);
    }
    for (name, writes) in &spec.gauges {
        let g = reg.gauge(NAMES[*name]);
        for &v in writes {
            g.set(f64::from(v));
        }
    }
    for (name, values) in &spec.histograms {
        let h = reg.histogram(NAMES[*name]);
        for &v in values {
            h.record(v);
        }
    }
    for (name, points) in &spec.series {
        let s = reg.series(NAMES[*name], 40);
        for &(ts, v) in points {
            s.record(ts, v);
        }
    }
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    #[test]
    fn bounded_scans_match_full_scans(values in value_set()) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let oracle = Oracle::new(&values);
        for q in QUANTILES {
            prop_assert_eq!(h.quantile(q), oracle.quantile(q), "q={} values={:?}", q, &values);
        }
        prop_assert_eq!(h.digest(), oracle.digest(), "values={:?}", &values);
    }

    #[test]
    fn folded_digests_match_the_oracle_of_all_values(
        sets in prop::collection::vec(value_set(), 1..5),
    ) {
        // Fold each set's histogram by digest merge and by registry
        // fold; both must equal one full-scan histogram of every value.
        let mut merged = HistogramDigest::default();
        let mut folded = MetricsShard::default();
        for values in &sets {
            let reg = MetricsRegistry::new();
            let h = reg.histogram("h");
            for &v in values {
                h.record(v);
            }
            merged.merge(&h.digest());
            reg.merge_into(&mut folded);
        }
        let all: Vec<u64> = sets.concat();
        let want = Oracle::new(&all).digest();
        prop_assert_eq!(&merged, &want, "sets={:?}", &sets);
        prop_assert_eq!(folded.histograms.get("h"), Some(&want), "sets={:?}", &sets);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn merge_into_equals_merging_the_shard(
        acc in registry_spec(),
        regs in prop::collection::vec(registry_spec(), 1..4),
    ) {
        // The accumulator starts as some other registry's shard, so the
        // fold meets both new and already-present names and buckets.
        let mut by_shard: MetricsShard = registry(&acc).shard();
        let mut folded = by_shard.clone();
        for spec in &regs {
            let reg = registry(spec);
            by_shard.merge(&reg.shard());
            reg.merge_into(&mut folded);
            prop_assert_eq!(&folded, &by_shard);
        }
        prop_assert_eq!(folded.to_json(), by_shard.to_json());
    }
}
