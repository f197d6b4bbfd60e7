//! Integer-nanosecond time arithmetic.
//!
//! All timing quantities in the workspace are integer nanoseconds: the
//! paper's fractional-millisecond measurements (e.g. `195.2814 ms` in
//! Table 1) are exactly representable, and demand-bound arithmetic stays
//! free of floating-point drift. Conversions to `f64` milliseconds exist
//! for reporting and for density computations, where the loss is explicit
//! and documented at the call site.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative span of time, in integer nanoseconds.
///
/// # Example
///
/// ```
/// use rto_core::time::Duration;
/// let d = Duration::from_ms_f64(1.5)?;
/// assert_eq!(d.as_ns(), 1_500_000);
/// assert_eq!(d + Duration::from_us(500), Duration::from_ms(2));
/// # Ok::<(), rto_core::CoreError>(())
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest nanosecond.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidTime`] if `ms` is negative, NaN,
    /// or too large to represent.
    pub fn from_ms_f64(ms: f64) -> Result<Self, crate::CoreError> {
        if !ms.is_finite() || ms < 0.0 {
            return Err(crate::CoreError::InvalidTime(format!(
                "{ms} ms is not a valid duration"
            )));
        }
        let ns = ms * 1e6;
        // `u64::MAX as f64` is 2^64 itself, one past the largest count.
        if ns >= u64::MAX as f64 {
            return Err(crate::CoreError::InvalidTime(format!("{ms} ms overflows")));
        }
        Ok(Duration(round_ns(ns)))
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidTime`] if `secs` is negative,
    /// NaN, or too large to represent.
    pub fn from_secs_f64(secs: f64) -> Result<Self, crate::CoreError> {
        Duration::from_ms_f64(secs * 1e3)
    }

    /// Creates a duration from fractional milliseconds, clamping instead
    /// of failing: NaN and negative values clamp to [`Duration::ZERO`],
    /// overflow clamps to [`Duration::MAX`].
    ///
    /// Intended for already-sanitized sampled quantities (service times,
    /// latencies drawn from distributions) where a conversion failure is
    /// impossible by construction and a `Result` would force an
    /// unreachable error path; prefer [`Duration::from_ms_f64`] whenever
    /// the input comes from configuration or user data.
    #[inline]
    pub fn from_ms_f64_clamped(ms: f64) -> Self {
        if ms.is_nan() || ms <= 0.0 {
            // NaN, negative, and -0.0 all land here.
            return Duration::ZERO;
        }
        let ns = ms * 1e6;
        if ns >= u64::MAX as f64 {
            return Duration::MAX;
        }
        Duration(round_ns(ns))
    }

    /// The raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// The nanosecond count as `f64`.
    ///
    /// This is the **one sanctioned lossy widening** of a duration for
    /// floating-point demand/density math (Theorems 1–3 bounds): exact up
    /// to 2^53 ns (≈ 104 days), above which the nearest representable
    /// `f64` is returned. Call sites outside `core/src/time.rs` must use
    /// this instead of `as_ns() as f64` (lint rule L4).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64
    }

    /// This duration in fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` on underflow.
    pub const fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_sub(rhs.0) {
            Some(ns) => Some(Duration(ns)),
            None => None,
        }
    }

    /// Saturating subtraction (clamps at zero).
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_add(rhs.0) {
            Some(ns) => Some(Duration(ns)),
            None => None,
        }
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Checked multiplication by a scalar; `None` on overflow.
    pub const fn checked_mul(self, rhs: u64) -> Option<Duration> {
        match self.0.checked_mul(rhs) {
            Some(ns) => Some(Duration(ns)),
            None => None,
        }
    }

    /// Saturating multiplication by a scalar (clamps at
    /// [`Duration::MAX`]).
    ///
    /// Demand-bound summation uses this deliberately: a saturated demand
    /// is an *over*-approximation, so a schedulability test that sees
    /// `Duration::MAX` rejects the task set — the safe direction (see
    /// DESIGN.md §8, overflow policy).
    pub const fn saturating_mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }

    /// `⌊self / rhs⌋` as a scalar count — how many whole `rhs` intervals
    /// fit in `self`. This is the typed form of the job-count divisions
    /// in demand-bound staircases.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub const fn div_floor(self, rhs: Duration) -> u64 {
        assert!(rhs.0 != 0, "div_floor: zero divisor duration");
        self.0 / rhs.0
    }

    /// `⌈self / rhs⌉` as a scalar count.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub const fn div_ceil(self, rhs: Duration) -> u64 {
        assert!(rhs.0 != 0, "div_ceil: zero divisor duration");
        self.0.div_ceil(rhs.0)
    }

    /// The ratio `self / other` as `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: Duration) -> f64 {
        assert!(!other.is_zero(), "division by zero duration");
        self.0 as f64 / other.0 as f64
    }

    /// `⌊(self · numer) / denom⌋` computed in 128-bit arithmetic, used by
    /// the proportional deadline split without precision loss.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero or the result overflows `u64`.
    pub fn mul_div_floor(self, numer: u64, denom: u64) -> Duration {
        assert!(denom != 0, "mul_div_floor: zero denominator");
        let v = (u128::from(self.0) * u128::from(numer)) / u128::from(denom);
        assert!(v <= u64::MAX as u128, "mul_div_floor: overflow");
        Duration(u64::try_from(v).unwrap_or(u64::MAX))
    }

    /// Scales this duration by a non-negative `f64` factor, rounding to the
    /// nearest nanosecond.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidTime`] if `factor` is negative,
    /// NaN, or the result overflows.
    pub fn scale_f64(self, factor: f64) -> Result<Duration, crate::CoreError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(crate::CoreError::InvalidTime(format!(
                "scale factor {factor} invalid"
            )));
        }
        let ns = self.0 as f64 * factor;
        if ns >= u64::MAX as f64 {
            return Err(crate::CoreError::InvalidTime(
                "scaled duration overflows".into(),
            ));
        }
        Ok(Duration(round_ns(ns)))
    }
}

/// Rounds a nanosecond count `x` to the nearest integer, halves away
/// from zero: the same function as `x.round()` followed by the
/// saturating cast, without calling libm.
///
/// Why not `f64::round`: baseline x86-64 has no rounding instruction
/// (`roundsd` is SSE4.1), so `round` compiles to a libm call, and the
/// server's background process converts two sampled durations per
/// arrival. Truncation is a single conversion instruction.
///
/// Exact on `0 ≤ x ≤ 2^64`. Below 2^53 the truncation and the
/// remainder `x − whole` are exact, so comparing the remainder with 0.5
/// decides the rounding exactly. From 2^53 up every `f64` is an
/// integer: the remainder is 0 and the truncation is the value itself
/// (saturating at 2^64). So the add never saturates: a remainder of at
/// least 0.5 means `x < 2^53`. The comparison is added, not branched
/// on: sampled remainders are random, and a branch on them mispredicts
/// half the time.
///
/// Below 2^63, which every sampled time is, the same steps run on
/// `i64`: x86-64 converts between `f64` and `i64` in one instruction
/// each way (plus the checks of Rust's saturating cast), between `f64`
/// and `u64` only in a sequence. The truncation is the same integer and
/// converts back to the same `f64`, so the value is the same.
#[inline]
fn round_ns(x: f64) -> u64 {
    // `i64::MAX as f64` is 2^63.
    if x < i64::MAX as f64 {
        // Negative values truncate to 0 and leave a remainder below 0.5.
        let whole = x.clamp(0.0, i64::MAX as f64) as i64;
        return whole as u64 + u64::from(x - whole as f64 >= 0.5);
    }
    let whole = x.clamp(0.0, u64::MAX as f64) as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

// Overflow policy (DESIGN.md §8): the `Add`/`Sub`/`Mul` operator impls
// on `Duration`/`Instant` *panic* on overflow rather than wrapping or
// saturating silently. Wrapped time arithmetic would corrupt
// demand-bound math invisibly; a panic is the loud failure mode for a
// genuine logic error. Code paths where overflow is reachable from
// input data must use the `checked_*`/`saturating_*` forms instead
// (demand-bound summation in `dbf.rs` uses the saturating forms, which
// over-approximate demand — the safe direction for schedulability).

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        // analyze: allow(L3): documented overflow policy — loud failure on logic error
        Duration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        // analyze: allow(L3): documented overflow policy — loud failure on logic error
        Duration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        // analyze: allow(L3): documented overflow policy — loud failure on logic error
        Duration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.6}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |acc, d| acc + d)
    }
}

/// An absolute point on the simulation timeline, in integer nanoseconds
/// since time zero.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Instant(u64);

impl Instant {
    /// Time zero.
    pub const ZERO: Instant = Instant(0);
    /// The far future.
    pub const MAX: Instant = Instant(u64::MAX);

    /// Creates an instant from nanoseconds since time zero.
    pub const fn from_ns(ns: u64) -> Self {
        Instant(ns)
    }

    /// Nanoseconds since time zero.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Nanoseconds since time zero as `f64` (exact up to 2^53 ns; the
    /// sanctioned lossy widening for reporting/plotting math — lint L4).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64
    }

    /// This instant in fractional milliseconds since time zero.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant in fractional seconds since time zero.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn since(self, earlier: Instant) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                // analyze: allow(L3): documented precondition — `# Panics` contract
                .expect("`earlier` is after `self`"),
        )
    }

    /// Checked version of [`Instant::since`]; `None` if `earlier > self`.
    pub const fn checked_since(self, earlier: Instant) -> Option<Duration> {
        match self.0.checked_sub(earlier.0) {
            Some(ns) => Some(Duration(ns)),
            None => None,
        }
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        // analyze: allow(L3): documented overflow policy — loud failure on logic error
        Instant(self.0.checked_add(rhs.as_ns()).expect("instant overflow"))
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        // analyze: allow(L3): documented overflow policy — loud failure on logic error
        Instant(self.0.checked_sub(rhs.as_ns()).expect("instant underflow"))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}ms", self.as_ms_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_us(1), Duration::from_ns(1_000));
        assert_eq!(Duration::from_ms(1), Duration::from_us(1_000));
        assert_eq!(Duration::from_secs(1), Duration::from_ms(1_000));
    }

    #[test]
    fn fractional_ms_exact_for_table1_values() {
        // 195.2814 ms from Table 1 must be exactly 195_281_400 ns.
        let d = Duration::from_ms_f64(195.2814).unwrap();
        assert_eq!(d.as_ns(), 195_281_400);
        assert!((d.as_ms_f64() - 195.2814).abs() < 1e-9);
    }

    #[test]
    fn from_ms_f64_rejects_bad_values() {
        assert!(Duration::from_ms_f64(-1.0).is_err());
        assert!(Duration::from_ms_f64(f64::NAN).is_err());
        assert!(Duration::from_ms_f64(f64::INFINITY).is_err());
        assert!(Duration::from_ms_f64(0.0).is_ok());
    }

    #[test]
    fn arithmetic() {
        let a = Duration::from_ms(3);
        let b = Duration::from_ms(2);
        assert_eq!(a + b, Duration::from_ms(5));
        assert_eq!(a - b, Duration::from_ms(1));
        assert_eq!(a * 4, Duration::from_ms(12));
        assert_eq!(a / 3, Duration::from_ms(1));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert_eq!(Duration::MAX.checked_add(b), None);
        assert_eq!(Duration::MAX.saturating_add(b), Duration::MAX);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Duration::from_ms(1) - Duration::from_ms(2);
    }

    #[test]
    fn ratio_and_mul_div() {
        let c = Duration::from_ms(10);
        let t = Duration::from_ms(40);
        assert!((c.ratio(t) - 0.25).abs() < 1e-15);
        // D1 = C1 * (D - R) / (C1 + C2): 10ms * 30ms / 40ms = 7.5ms
        let split = Duration::from_ms(30)
            .mul_div_floor(Duration::from_ms(10).as_ns(), Duration::from_ms(40).as_ns());
        assert_eq!(split, Duration::from_ms_f64(7.5).unwrap());
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn ratio_zero_panics() {
        Duration::from_ms(1).ratio(Duration::ZERO);
    }

    #[test]
    fn scale_f64_behaviour() {
        let d = Duration::from_ms(100);
        assert_eq!(d.scale_f64(1.4).unwrap(), Duration::from_ms(140));
        assert_eq!(d.scale_f64(0.6).unwrap(), Duration::from_ms(60));
        assert!(d.scale_f64(-0.1).is_err());
        assert!(d.scale_f64(f64::NAN).is_err());
        assert_eq!(d.scale_f64(0.0).unwrap(), Duration::ZERO);
    }

    /// `u64::MAX as f64` is 2^64, one past the largest count, so a
    /// value of exactly 2^64 ns overflows and the largest `f64` below it
    /// converts exactly.
    #[test]
    fn two_to_the_64_ns_overflows() {
        let two_64 = 2f64.powi(64);
        // The product rounds to exactly 2^64.
        assert_eq!(18_446_744_073_709.55 * 1e6, two_64);
        assert!(Duration::from_ms_f64(18_446_744_073_709.55).is_err());
        assert!(Duration::from_ns(1 << 63).scale_f64(2.0).is_err());
        assert_eq!(
            Duration::from_ms_f64_clamped(18_446_744_073_709.55),
            Duration::MAX
        );

        // The largest `f64` below 2^64 is 2^64 − 2048.
        let below = f64::from_bits(two_64.to_bits() - 1);
        assert_eq!(below, 18_446_744_073_709_549_568.0);
        let d = Duration::from_ns(18_446_744_073_709_549_568);
        assert_eq!(d.scale_f64(1.0).unwrap(), d);
        // No millisecond value lands on it: the nearest below 2^64 is
        // 2^64 − 4096, from the `f64` just below 18446744073709.55.
        let ms = f64::from_bits(18_446_744_073_709.55f64.to_bits() - 1);
        assert_eq!(
            Duration::from_ms_f64(ms).unwrap(),
            Duration::from_ns(18_446_744_073_709_547_520)
        );
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = Instant::from_ns(1000);
        let t1 = t0 + Duration::from_ns(500);
        assert_eq!(t1.as_ns(), 1500);
        assert_eq!(t1.since(t0), Duration::from_ns(500));
        assert_eq!(t0.checked_since(t1), None);
        assert_eq!(t1 - Duration::from_ns(1500), Instant::ZERO);
    }

    #[test]
    #[should_panic(expected = "after")]
    fn since_backwards_panics() {
        Instant::ZERO.since(Instant::from_ns(1));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(Duration::from_ns(5).to_string(), "5ns");
        assert!(Duration::from_us(5).to_string().ends_with("us"));
        assert!(Duration::from_ms(5).to_string().ends_with("ms"));
        assert!(Duration::from_secs(5).to_string().ends_with('s'));
        assert!(Instant::from_ns(1_000_000).to_string().contains("1.0"));
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [Duration::from_ms(1), Duration::from_ms(2)]
            .into_iter()
            .sum();
        assert_eq!(total, Duration::from_ms(3));
    }

    #[test]
    fn ordering() {
        assert!(Duration::from_ms(1) < Duration::from_ms(2));
        assert!(Instant::ZERO < Instant::from_ns(1));
    }

    /// `round_ns` as it was before its `i64` path: the reference the
    /// fast path must agree with on every input.
    fn round_ns_u64(x: f64) -> u64 {
        let whole = x.clamp(0.0, u64::MAX as f64) as u64;
        whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
    }

    /// `x` moved by `ulps` units in the last place.
    fn nudge(x: f64, ulps: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    #[test]
    fn round_ns_agrees_with_the_u64_path_at_the_edges() {
        let mut inputs = vec![f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        inputs.extend([0.0, -0.0, 0.5, 1.5, -0.5, -0.4, f64::MIN_POSITIVE, f64::MAX]);
        for e in [52, 53, 62, 63, 64, 65] {
            for off in [-1.5, -0.5, 0.0, 0.5, 1.5] {
                for d in -4..=4 {
                    let x = nudge(2f64.powi(e) + off, d);
                    inputs.extend([x, -x]);
                }
            }
        }
        for x in inputs {
            assert_eq!(round_ns(x), round_ns_u64(x), "{x:e} ({:#x})", x.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Every bit pattern (negatives, NaNs and infinities included),
        /// and the non-negative ones up to 2^64 on their own.
        #[test]
        fn round_ns_agrees_with_the_u64_path(
            bits in proptest::prop_oneof![
                0u64..=u64::MAX,
                0u64..=18_446_744_073_709_551_616f64.to_bits(),
            ]
        ) {
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(round_ns(x), round_ns_u64(x), "{:e}", x);
        }
    }
}
