//! Proptests for the shard merge laws.
//!
//! `MetricsShard::merge` must form a commutative monoid — associative,
//! commutative, with the empty shard as identity — for every metric
//! family (counters: saturating sum; gauges: last-writer-wins by
//! `(seq, bits)`; histogram digests: bucket-wise sum; series:
//! bucket-start-keyed sum). These laws are exactly what makes a
//! parallel sweep's merged metrics independent of completion order,
//! and therefore byte-identical to the serial run.

use proptest::prelude::*;
use rto_obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Series};
use rto_obs::shard::{GaugeShard, HistogramDigest, MetricsShard, SeriesShard, TimePoint};
use std::collections::BTreeMap;

const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// A shard built the same way real exporters build them: by recording
/// into live handles and exporting, so every structural invariant
/// (sorted sparse buckets, bucket indices, ring order) holds by
/// construction.
#[derive(Debug, Clone)]
struct ShardSpec {
    counters: Vec<(usize, u64)>,
    gauges: Vec<(usize, Vec<u32>)>,
    histograms: Vec<(usize, Vec<u64>)>,
    series: Vec<(usize, Vec<(u64, u64)>)>,
}

fn spec_strategy() -> impl Strategy<Value = ShardSpec> {
    (
        prop::collection::vec((0usize..4, 0u64..10_000), 0..4),
        prop::collection::vec(
            (0usize..4, prop::collection::vec(0u32..1_000_000, 0..4)),
            0..3,
        ),
        prop::collection::vec(
            (0usize..4, prop::collection::vec(0u64..10_000_000, 0..16)),
            0..3,
        ),
        prop::collection::vec(
            (
                0usize..4,
                prop::collection::vec((0u64..500, 0u64..100), 0..8),
            ),
            0..2,
        ),
    )
        .prop_map(|(counters, gauges, histograms, series)| ShardSpec {
            counters,
            gauges,
            histograms,
            series,
        })
}

fn build(spec: &ShardSpec) -> MetricsShard {
    let reg = MetricsRegistry::new();
    for (name, value) in &spec.counters {
        reg.counter(NAMES[*name]).add(*value);
    }
    for (name, writes) in &spec.gauges {
        let g = reg.gauge(NAMES[*name]);
        for v in writes {
            // Written via set() so the write stamp advances like real code.
            g.set(f64::from(*v));
        }
    }
    for (name, values) in &spec.histograms {
        let h = reg.histogram(NAMES[*name]);
        for v in values {
            h.record(*v);
        }
    }
    for (name, obs) in &spec.series {
        let s = reg.series(NAMES[*name], 50);
        for (ts, v) in obs {
            s.record(*ts, *v);
        }
    }
    reg.shard()
}

fn merged(a: &MetricsShard, b: &MetricsShard) -> MetricsShard {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_associative(
        a in spec_strategy(),
        b in spec_strategy(),
        c in spec_strategy(),
    ) {
        let (a, b, c) = (build(&a), build(&b), build(&c));
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(&left, &right);
        // Equality is also *byte* equality under the canonical encoding.
        prop_assert_eq!(left.to_json(), right.to_json());
    }

    #[test]
    fn merge_is_commutative(a in spec_strategy(), b in spec_strategy()) {
        let (a, b) = (build(&a), build(&b));
        prop_assert_eq!(merged(&a, &b).to_json(), merged(&b, &a).to_json());
    }

    #[test]
    fn empty_shard_is_the_identity(a in spec_strategy()) {
        let a = build(&a);
        let empty = MetricsShard::default();
        prop_assert_eq!(&merged(&a, &empty), &a);
        prop_assert_eq!(&merged(&empty, &a), &a);
    }

    #[test]
    fn shard_serde_round_trips_byte_stable(a in spec_strategy()) {
        let a = build(&a);
        let json = a.to_json();
        let back: MetricsShard = serde_json::from_str(&json).expect("round trip");
        prop_assert_eq!(&back, &a);
        prop_assert_eq!(back.to_json(), json);
    }

    #[test]
    fn snapshot_with_series_round_trips(a in spec_strategy()) {
        let shard = build(&a);
        let snap = shard.to_snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("round trip");
        prop_assert_eq!(back, snap);
    }

    /// Merging per-worker digests equals digesting the union of the
    /// observations — the histogram-specific statement of "sharding is
    /// transparent".
    #[test]
    fn split_digests_merge_to_the_whole(
        values in prop::collection::vec(0u64..10_000_000, 0..64),
        split in 0usize..64,
    ) {
        let split = split.min(values.len());
        let (left, right) = values.split_at(split);
        let (ha, hb, hall) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in left { ha.record(*v); }
        for v in right { hb.record(*v); }
        for v in &values { hall.record(*v); }
        let mut m = ha.digest();
        m.merge(&hb.digest());
        prop_assert_eq!(m, hall.digest());
    }
}

#[test]
fn gauge_lww_tie_break_is_deterministic() {
    // Equal write counts: the larger bit pattern wins regardless of
    // merge direction (documented arbitration, keeps commutativity).
    let a = GaugeShard {
        seq: 2,
        bits: 1.0f64.to_bits(),
    };
    let b = GaugeShard {
        seq: 2,
        bits: 2.0f64.to_bits(),
    };
    let mut ab = a;
    ab.merge(&b);
    let mut ba = b;
    ba.merge(&a);
    assert_eq!(ab, ba);
    assert_eq!(ab.value(), 2.0);
}

#[test]
fn digest_and_series_defaults_are_identities_too() {
    let mut d = HistogramDigest::default();
    let h = Histogram::new();
    h.record(42);
    d.merge(&h.digest());
    assert_eq!(d, h.digest());

    let mut s = SeriesShard::default();
    let real = SeriesShard {
        bucket_width_ns: 10,
        points: vec![TimePoint {
            start_ns: 0,
            count: 1,
            sum: 3,
        }],
    };
    s.merge(&real);
    assert_eq!(s, real);

    let mut m = MetricsShard {
        counters: BTreeMap::from([("c".to_string(), 1)]),
        ..MetricsShard::default()
    };
    m.merge(&MetricsShard::default());
    assert_eq!(m.counters.get("c"), Some(&1));
}

/// One registration and write in a trial script. `keep` holds the
/// handle past the trial's end and writes through it again in the next
/// trial, after the registry was cleared.
#[derive(Debug, Clone)]
enum Op {
    Count {
        name: usize,
        add: u64,
        keep: bool,
    },
    Set {
        name: usize,
        value: u32,
        keep: bool,
    },
    Record {
        name: usize,
        value: u64,
        keep: bool,
    },
    Mark {
        name: usize,
        width: u64,
        ts: u64,
        value: u64,
    },
}

/// A handle held across a `clear`.
enum Kept {
    Counter(Counter, u64),
    Gauge(Gauge, u32),
    Histogram(Histogram, u64),
}

impl Kept {
    fn write(&self) {
        match self {
            Kept::Counter(c, n) => c.add(*n),
            Kept::Gauge(g, v) => g.set(f64::from(*v)),
            Kept::Histogram(h, v) => h.record(*v),
        }
    }
}

/// Histogram values around the extremes and the bucket edges, where a
/// reset that misses one bucket would show.
fn edge_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        (5u32..64).prop_map(|e| 1u64 << e),
        (5u32..64).prop_map(|e| (1u64 << e) - 1),
        0u64..100,
        0u64..=u64::MAX,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A third of the handles are kept past their trial.
    let keep = || (0u32..3).prop_map(|k| k == 0);
    prop_oneof![
        (0usize..4, 0u64..1_000, keep()).prop_map(|(name, add, keep)| Op::Count {
            name,
            add,
            keep
        }),
        (0usize..4, 0u32..1_000, keep()).prop_map(|(name, value, keep)| Op::Set {
            name,
            value,
            keep
        }),
        (0usize..4, edge_value(), keep()).prop_map(|(name, value, keep)| Op::Record {
            name,
            value,
            keep
        }),
        (
            0usize..4,
            prop_oneof![Just(1u64), Just(7), Just(50)],
            0u64..400,
            0u64..100
        )
            .prop_map(|(name, width, ts, value)| Op::Mark {
                name,
                width,
                ts,
                value
            }),
    ]
}

/// Runs one trial script: first the writes through handles kept from
/// the previous trial, then the script's own registrations and writes.
/// Returns the handles this trial keeps.
fn run_script(reg: &MetricsRegistry, script: &[Op], kept: Vec<Kept>) -> Vec<Kept> {
    for k in &kept {
        k.write();
    }
    drop(kept);
    let mut keep_now = Vec::new();
    for op in script {
        match *op {
            Op::Count { name, add, keep } => {
                let c = reg.counter(NAMES[name]);
                c.add(add);
                if keep {
                    keep_now.push(Kept::Counter(c, add));
                }
            }
            Op::Set { name, value, keep } => {
                let g = reg.gauge(NAMES[name]);
                g.set(f64::from(value));
                if keep {
                    keep_now.push(Kept::Gauge(g, value));
                }
            }
            Op::Record { name, value, keep } => {
                let h = reg.histogram(NAMES[name]);
                h.record(value);
                if keep {
                    keep_now.push(Kept::Histogram(h, value));
                }
            }
            Op::Mark {
                name,
                width,
                ts,
                value,
            } => {
                let s: Series = reg.series(NAMES[name], width);
                s.record(ts, value);
            }
        }
    }
    keep_now
}

/// What one trial exports: its snapshot and its shard, as JSON.
fn exports(reg: &MetricsRegistry) -> (String, String) {
    let snap = serde_json::to_string(&reg.snapshot()).expect("snapshot serializes");
    (snap, reg.shard().to_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A cleared registry is a new registry: K trial scripts run through
    /// one registry, folded with `merge_into` and then cleared, export
    /// exactly what they export from K new registries, trial by trial
    /// and in the folded shard.
    #[test]
    fn a_cleared_registry_is_a_new_registry(
        trials in prop::collection::vec(prop::collection::vec(op_strategy(), 0..12), 1..6),
    ) {
        let reused = MetricsRegistry::new();
        let (mut acc_reused, mut acc_new) = (MetricsShard::default(), MetricsShard::default());
        let (mut kept_reused, mut kept_new) = (Vec::new(), Vec::new());
        for (k, script) in trials.iter().enumerate() {
            kept_reused = run_script(&reused, script, kept_reused);
            let fresh = MetricsRegistry::new();
            kept_new = run_script(&fresh, script, kept_new);
            prop_assert_eq!(exports(&reused), exports(&fresh), "trial {}", k);
            reused.merge_into(&mut acc_reused);
            fresh.merge_into(&mut acc_new);
            reused.clear();
            prop_assert!(reused.snapshot().is_empty(), "trial {} left metrics behind", k);
        }
        prop_assert_eq!(acc_reused.to_json(), acc_new.to_json());
    }
}
