//! Property tests for the arithmetic laws of `rto_core::time`.
//!
//! The whole analysis layer (DBF summation, QPA, density) leans on
//! `Duration`/`Instant` behaving like honest integer-nanosecond
//! arithmetic, with the overflow policy documented in
//! `core/src/time.rs` and DESIGN.md §8:
//!
//! * plain operators panic on overflow (loud logic-error failure);
//! * `checked_*` mirror the underlying `u64` checked ops exactly;
//! * `saturating_*` clamp to `Duration::MAX`, which over-approximates
//!   demand — the safe direction for schedulability.

use proptest::prelude::*;
use rto_core::time::{Duration, Instant};

/// ns values small enough that any three of them sum without overflow.
fn small_ns() -> impl Strategy<Value = u64> {
    0u64..=(u64::MAX / 4)
}

proptest! {
    // --- group laws on the non-overflowing range -------------------

    #[test]
    fn add_commutes(a in small_ns(), b in small_ns()) {
        let (a, b) = (Duration::from_ns(a), Duration::from_ns(b));
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associates(a in 0u64..=(u64::MAX / 4), b in 0u64..=(u64::MAX / 4), c in 0u64..=(u64::MAX / 4)) {
        let (a, b, c) = (Duration::from_ns(a), Duration::from_ns(b), Duration::from_ns(c));
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn zero_is_identity(a in 0u64..=u64::MAX) {
        let a = Duration::from_ns(a);
        prop_assert_eq!(a + Duration::ZERO, a);
        prop_assert_eq!(a.saturating_sub(Duration::ZERO), a);
    }

    #[test]
    fn add_then_sub_round_trips(a in small_ns(), b in small_ns()) {
        let (a, b) = (Duration::from_ns(a), Duration::from_ns(b));
        prop_assert_eq!((a + b) - b, a);
    }

    // --- overflow behavior -----------------------------------------

    #[test]
    fn checked_add_mirrors_u64(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
        let expected = a.checked_add(b).map(Duration::from_ns);
        prop_assert_eq!(Duration::from_ns(a).checked_add(Duration::from_ns(b)), expected);
    }

    #[test]
    fn checked_mul_mirrors_u64(a in 0u64..=u64::MAX, k in 0u64..=u64::MAX) {
        let expected = a.checked_mul(k).map(Duration::from_ns);
        prop_assert_eq!(Duration::from_ns(a).checked_mul(k), expected);
    }

    #[test]
    fn saturating_ops_agree_with_checked(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
        let (da, db) = (Duration::from_ns(a), Duration::from_ns(b));
        prop_assert_eq!(da.saturating_add(db), da.checked_add(db).unwrap_or(Duration::MAX));
        prop_assert_eq!(da.saturating_mul(b), da.checked_mul(b).unwrap_or(Duration::MAX));
        prop_assert_eq!(da.saturating_sub(db), da.checked_sub(db).unwrap_or(Duration::ZERO));
    }

    #[test]
    fn saturation_never_underestimates(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
        // The documented policy: saturated demand over-approximates, so
        // a schedulability test can only fail in the safe direction.
        let (da, db) = (Duration::from_ns(a), Duration::from_ns(b));
        prop_assert!(da.saturating_add(db) >= da.max(db));
    }

    // --- multiplication / division ---------------------------------

    #[test]
    fn mul_is_repeated_add(a in 0u64..=1_000_000_000, k in 0u64..=64) {
        let d = Duration::from_ns(a);
        let mut acc = Duration::ZERO;
        for _ in 0..k {
            acc += d;
        }
        prop_assert_eq!(d * k, acc);
    }

    #[test]
    fn div_floor_ceil_laws(a in 0u64..=u64::MAX, p in 1u64..=u64::MAX) {
        let (d, period) = (Duration::from_ns(a), Duration::from_ns(p));
        let floor = d.div_floor(period);
        let ceil = d.div_ceil(period);
        // floor * p <= a < (floor + 1) * p, as u128 to dodge overflow.
        prop_assert!(u128::from(floor) * u128::from(p) <= u128::from(a));
        prop_assert!(u128::from(a) < (u128::from(floor) + 1) * u128::from(p));
        // ceil is floor rounded up exactly when p does not divide a.
        let divides = a % p == 0;
        prop_assert_eq!(ceil, if divides { floor } else { floor + 1 });
    }

    // --- unit conversions ------------------------------------------

    #[test]
    fn ms_to_ns_round_trip(ms in 0u64..=(u64::MAX / 1_000_000)) {
        let d = Duration::from_ms(ms);
        prop_assert_eq!(d.as_ns(), ms * 1_000_000);
        prop_assert_eq!(Duration::from_ns(d.as_ns()), d);
    }

    #[test]
    fn ms_f64_round_trip_is_exact_on_integer_ms(ms in 0u64..=(1u64 << 33)) {
        // Exact as long as the ns count (ms · 10^6) stays below 2^53,
        // the f64 integer-precision limit: 2^33 ms ≈ 8.6 · 10^15 ns.
        let d = Duration::from_ms(ms);
        let back = Duration::from_ms_f64_clamped(d.as_ms_f64());
        prop_assert_eq!(back, d);
    }

    #[test]
    fn from_ms_f64_clamped_is_total(
        ms in prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            -1e300f64..1e300f64,
        ]
    ) {
        // Never panics; NaN/negative clamp to zero, huge clamps to MAX.
        let d = Duration::from_ms_f64_clamped(ms);
        if ms.is_nan() || ms <= 0.0 {
            prop_assert_eq!(d, Duration::ZERO);
        }
    }

    // --- Instant laws ----------------------------------------------

    #[test]
    fn instant_add_then_since_round_trips(i in 0u64..=(u64::MAX / 2), d in 0u64..=(u64::MAX / 2)) {
        let (i, d) = (Instant::from_ns(i), Duration::from_ns(d));
        prop_assert_eq!((i + d).since(i), d);
        prop_assert_eq!((i + d) - d, i);
    }

    #[test]
    fn checked_since_is_antisymmetric(a in 0u64..=u64::MAX, b in 0u64..=u64::MAX) {
        let (ia, ib) = (Instant::from_ns(a), Instant::from_ns(b));
        if a >= b {
            prop_assert_eq!(ia.checked_since(ib), Some(Duration::from_ns(a - b)));
        } else {
            prop_assert_eq!(ia.checked_since(ib), None);
        }
    }
}

// --- rounding of fractional nanoseconds ------------------------------

/// `2^64`, one past the largest nanosecond count, as an `f64`.
const TWO_64: f64 = 18_446_744_073_709_551_616.0;

/// The conversion every float constructor is specified by: libm's
/// `round` (halves away from zero), then the saturating cast.
fn round_reference(ns: f64) -> u64 {
    ns.round().clamp(0.0, u64::MAX as f64) as u64
}

/// `x` moved by `ulps` units in the last place (up for positive `x`).
fn nudge(x: f64, ulps: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
}

/// Non-negative nanosecond counts up to 2^64 + a few ulps: uniform bit
/// patterns (every exponent), sampled magnitudes, the halves `k + 0.5`
/// and their neighbours, and the neighbourhoods of 2^52, 2^53, 2^63 and
/// 2^64, where the integer and fractional parts change representation.
fn fractional_ns() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=TWO_64.to_bits()).prop_map(f64::from_bits),
        0.0f64..1e10,
        (prop_oneof![0u64..64, 0u64..(1 << 52)], -1i64..=1)
            .prop_map(|(k, d)| nudge(k as f64 + 0.5, d)),
        (
            prop_oneof![Just(52), Just(53), Just(63), Just(64)],
            prop_oneof![Just(-1.5), Just(-0.5), Just(0.0), Just(0.5), Just(1.5)],
            -3i64..=3,
        )
            .prop_map(|(e, off, d)| nudge(2f64.powi(e) + off, d).max(0.0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `scale_f64` rounds `self · factor`; at one nanosecond the product
    /// is the factor itself, so every count above is reached exactly.
    #[test]
    fn scale_f64_rounds_like_libm(ns in fractional_ns()) {
        let got = Duration::from_ns(1).scale_f64(ns);
        if ns >= TWO_64 {
            prop_assert!(got.is_err(), "{ns:e} ns must overflow");
        } else {
            prop_assert_eq!(got.ok(), Some(Duration::from_ns(round_reference(ns))), "{:e} ns", ns);
        }
    }

    #[test]
    fn from_ms_f64_rounds_like_libm(ns in fractional_ns()) {
        let ms = ns / 1e6;
        let product = ms * 1e6;
        let got = Duration::from_ms_f64(ms);
        if product >= TWO_64 {
            prop_assert!(got.is_err(), "{ms:e} ms must overflow");
        } else {
            prop_assert_eq!(got.ok(), Some(Duration::from_ns(round_reference(product))), "{:e} ms", ms);
        }
    }

    /// The clamped constructor agrees everywhere: the reference's
    /// saturating cast clamps 2^64 and beyond to `Duration::MAX` too.
    #[test]
    fn from_ms_f64_clamped_rounds_like_libm(ns in fractional_ns()) {
        let ms = ns / 1e6;
        prop_assert_eq!(
            Duration::from_ms_f64_clamped(ms),
            Duration::from_ns(round_reference(ms * 1e6)),
            "{:e} ms", ms
        );
    }
}
