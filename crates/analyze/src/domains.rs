//! Abstract value domains for the A4 interval pass.
//!
//! The analysis tracks three families of values:
//!
//! * **Integer intervals** ([`IntItv`]) — `[lo, hi]` over `i128`, wide
//!   enough to hold every Rust integer type the workspace uses (`u64`
//!   included) without internal overflow. Arithmetic saturates
//!   *outward* at the `i128` bounds, which is sound: a saturated bound
//!   only ever makes the interval wider.
//! * **Float intervals** ([`FltItv`]) — `[lo, hi]` over `f64` with the
//!   usual IEEE caveats; division by an interval containing zero goes
//!   to `±inf` rather than raising a diagnostic (floats don't trap),
//!   but the result is then unfit for any integer cast.
//! * **Unknown** — no information. Arithmetic on unknowns stays
//!   unknown; the pass only *denies* when an interval it actually
//!   derived proves a violation, and only *fails to prove* (deny at
//!   cast/div sites in deny scope) when the value reaching a dangerous
//!   site is not constrained enough.
//!
//! Every interval carries a `derived` flag: `true` means the bounds
//! came from program text (literals, ranges, clamps, guards), `false`
//! means they are the *type range* assumed from an annotation
//! (`x: u32` ⇒ `[0, 2^32-1]` assumed). Overflow on assumed bounds is
//! not reported (every `u64 + u64` would fire); overflow on derived
//! bounds is a real, witnessed finding.

// The interval operators deliberately use the arithmetic names
// (`add`, `sub`, …) without implementing the `std::ops` traits: the
// callers are an abstract interpreter where `a.add(b)` is an explicit
// transfer function, and operator syntax would blur abstract and
// concrete arithmetic at exactly the call sites where the distinction
// is the point.
#![allow(clippy::should_implement_trait)]

use std::fmt;

/// Bit-width and signedness of the integer types the pass understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntTy {
    /// Width in bits (8/16/32/64/128; `usize`/`isize` are modelled as
    /// 64-bit — the workspace only targets 64-bit platforms, noted in
    /// DESIGN.md as a soundness caveat of the model, not the program).
    pub bits: u32,
    /// `true` for `i*` types.
    pub signed: bool,
}

impl IntTy {
    /// Parses a primitive integer type name.
    #[must_use]
    pub fn parse(name: &str) -> Option<IntTy> {
        let (signed, bits) = match name {
            "u8" => (false, 8),
            "u16" => (false, 16),
            "u32" => (false, 32),
            "u64" => (false, 64),
            "u128" => (false, 128),
            "usize" => (false, 64),
            "i8" => (true, 8),
            "i16" => (true, 16),
            "i32" => (true, 32),
            "i64" => (true, 64),
            "i128" => (true, 128),
            "isize" => (true, 64),
            _ => return None,
        };
        Some(IntTy { bits, signed })
    }

    /// Smallest representable value.
    #[must_use]
    pub fn min(self) -> i128 {
        if self.signed {
            if self.bits >= 128 {
                i128::MIN
            } else {
                -(1i128 << (self.bits - 1))
            }
        } else {
            0
        }
    }

    /// Largest representable value (saturated to `i128::MAX` for the
    /// 128-bit unsigned range, which the workspace never exercises at
    /// the boundary).
    #[must_use]
    pub fn max(self) -> i128 {
        if self.bits >= 128 {
            i128::MAX
        } else if self.signed {
            (1i128 << (self.bits - 1)) - 1
        } else {
            (1i128 << self.bits) - 1
        }
    }

    /// The full type range as an *assumed* interval.
    #[must_use]
    pub fn range(self) -> IntItv {
        IntItv {
            lo: self.min(),
            hi: self.max(),
            derived: false,
        }
    }
}

/// An integer interval `[lo, hi]` (inclusive) over `i128`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntItv {
    /// Lower bound, inclusive.
    pub lo: i128,
    /// Upper bound, inclusive.
    pub hi: i128,
    /// Bounds were derived from program text (vs. assumed type range).
    pub derived: bool,
}

impl IntItv {
    /// The exact interval `[v, v]` — always derived.
    #[must_use]
    pub fn exact(v: i128) -> IntItv {
        IntItv {
            lo: v,
            hi: v,
            derived: true,
        }
    }

    /// A derived interval `[lo, hi]`.
    #[must_use]
    pub fn new(lo: i128, hi: i128) -> IntItv {
        IntItv {
            lo,
            hi,
            derived: true,
        }
    }

    /// The top integer interval — assumed, maximally wide.
    #[must_use]
    pub fn top() -> IntItv {
        IntItv {
            lo: i128::MIN,
            hi: i128::MAX,
            derived: false,
        }
    }

    /// Does the interval contain `v`?
    #[must_use]
    pub fn contains(self, v: i128) -> bool {
        self.lo <= v && v <= self.hi
    }

    fn derived_with(self, other: IntItv) -> bool {
        self.derived && other.derived
    }

    /// Interval addition, saturating outward.
    #[must_use]
    pub fn add(self, other: IntItv) -> IntItv {
        IntItv {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
            derived: self.derived_with(other),
        }
    }

    /// Interval subtraction, saturating outward.
    #[must_use]
    pub fn sub(self, other: IntItv) -> IntItv {
        IntItv {
            lo: self.lo.saturating_sub(other.hi),
            hi: self.hi.saturating_sub(other.lo),
            derived: self.derived_with(other),
        }
    }

    /// Interval multiplication, saturating outward.
    #[must_use]
    pub fn mul(self, other: IntItv) -> IntItv {
        let cands = [
            self.lo.saturating_mul(other.lo),
            self.lo.saturating_mul(other.hi),
            self.hi.saturating_mul(other.lo),
            self.hi.saturating_mul(other.hi),
        ];
        IntItv {
            lo: cands.iter().copied().min().unwrap_or(i128::MIN),
            hi: cands.iter().copied().max().unwrap_or(i128::MAX),
            derived: self.derived_with(other),
        }
    }

    /// Interval division. Returns `None` when the divisor interval
    /// contains zero — the caller decides whether that is a finding
    /// (derived) or merely unproven (assumed).
    #[must_use]
    pub fn div(self, other: IntItv) -> Option<IntItv> {
        if other.contains(0) {
            return None;
        }
        let cands = [
            self.lo.wrapping_div(other.lo),
            self.lo.wrapping_div(other.hi),
            self.hi.wrapping_div(other.lo),
            self.hi.wrapping_div(other.hi),
        ];
        Some(IntItv {
            lo: cands.iter().copied().min().unwrap_or(i128::MIN),
            hi: cands.iter().copied().max().unwrap_or(i128::MAX),
            derived: self.derived_with(other),
        })
    }

    /// Interval remainder: `a % b` with `b` not containing zero.
    /// Over-approximated as `[0, max|b|-1]` for non-negative `a`
    /// (the only shape the workspace uses), else the full span.
    #[must_use]
    pub fn rem(self, other: IntItv) -> Option<IntItv> {
        if other.contains(0) {
            return None;
        }
        let mag = other.lo.abs().max(other.hi.abs()).saturating_sub(1);
        let itv = if self.lo >= 0 {
            IntItv {
                lo: 0,
                hi: mag.min(self.hi),
                derived: self.derived_with(other),
            }
        } else {
            IntItv {
                lo: -mag,
                hi: mag,
                derived: self.derived_with(other),
            }
        };
        Some(itv)
    }

    /// Join (union hull) of two intervals.
    #[must_use]
    pub fn join(self, other: IntItv) -> IntItv {
        IntItv {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            derived: self.derived_with(other),
        }
    }

    /// Widening: bounds that moved since `old` jump straight to the
    /// type extreme. Guarantees the loop fixpoint in one extra pass.
    /// A widened interval is no longer *derived* — its extreme bounds
    /// are an artifact of the widening, not program text, so derived-
    /// only checks (overflow) stay quiet on loop accumulators.
    #[must_use]
    pub fn widen(self, old: IntItv) -> IntItv {
        let moved = self.lo < old.lo || self.hi > old.hi;
        IntItv {
            lo: if self.lo < old.lo { i128::MIN } else { old.lo },
            hi: if self.hi > old.hi { i128::MAX } else { old.hi },
            derived: self.derived && old.derived && !moved,
        }
    }

    /// `.min(k)` — clamp the upper bound.
    #[must_use]
    pub fn min_with(self, k: i128) -> IntItv {
        IntItv {
            lo: self.lo.min(k),
            hi: self.hi.min(k),
            derived: self.derived,
        }
    }

    /// `.max(k)` — clamp the lower bound. The result is *derived from
    /// below*: even over an assumed input, `x.max(1)` provably never
    /// yields zero, so we mark it derived when the clamp is what the
    /// downstream check needs.
    #[must_use]
    pub fn max_with(self, k: i128) -> IntItv {
        IntItv {
            lo: self.lo.max(k),
            hi: self.hi.max(k),
            derived: self.derived,
        }
    }

    /// `.clamp(lo, hi)` — fully derived: both bounds come from text.
    #[must_use]
    pub fn clamp_to(self, lo: i128, hi: i128) -> IntItv {
        IntItv {
            lo: self.lo.clamp(lo, hi),
            hi: self.hi.clamp(lo, hi),
            derived: true,
        }
    }

    /// Does every value fit the target type?
    #[must_use]
    pub fn fits(self, ty: IntTy) -> bool {
        self.lo >= ty.min() && self.hi <= ty.max()
    }
}

impl fmt::Display for IntItv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", pow_str(self.lo), pow_str(self.hi))
    }
}

/// Renders large bounds as powers of two (`2^64-1`) so witness
/// intervals in diagnostics stay readable.
fn pow_str(v: i128) -> String {
    if v == i128::MAX {
        return "2^127-1".to_owned();
    }
    if v == i128::MIN {
        return "-2^127".to_owned();
    }
    for bits in [16u32, 32, 53, 63, 64] {
        let p = 1i128 << bits;
        if v == p {
            return format!("2^{bits}");
        }
        if v == p - 1 {
            return format!("2^{bits}-1");
        }
        if v == -p {
            return format!("-2^{bits}");
        }
    }
    v.to_string()
}

/// A float interval `[lo, hi]` over `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FltItv {
    /// Lower bound, inclusive.
    pub lo: f64,
    /// Upper bound, inclusive.
    pub hi: f64,
    /// Bounds were derived from program text.
    pub derived: bool,
}

impl FltItv {
    /// The exact interval `[v, v]`.
    #[must_use]
    pub fn exact(v: f64) -> FltItv {
        FltItv {
            lo: v,
            hi: v,
            derived: true,
        }
    }

    /// A derived interval `[lo, hi]`.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> FltItv {
        FltItv {
            lo,
            hi,
            derived: true,
        }
    }

    /// The top float interval.
    #[must_use]
    pub fn top() -> FltItv {
        FltItv {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            derived: false,
        }
    }

    /// Does the interval contain `v`?
    #[must_use]
    pub fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    fn derived_with(self, other: FltItv) -> bool {
        self.derived && other.derived
    }

    /// Interval addition (IEEE: infinities propagate outward).
    #[must_use]
    pub fn add(self, other: FltItv) -> FltItv {
        FltItv {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
            derived: self.derived_with(other),
        }
    }

    /// Interval subtraction.
    #[must_use]
    pub fn sub(self, other: FltItv) -> FltItv {
        FltItv {
            lo: self.lo - other.hi,
            hi: self.hi - other.lo,
            derived: self.derived_with(other),
        }
    }

    /// Interval multiplication. `0 * inf = NaN` corners collapse to
    /// the full line (sound over-approximation).
    #[must_use]
    pub fn mul(self, other: FltItv) -> FltItv {
        let cands = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        if cands.iter().any(|c| c.is_nan()) {
            return FltItv {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
                derived: false,
            };
        }
        FltItv {
            lo: cands.iter().copied().fold(f64::INFINITY, f64::min),
            hi: cands.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            derived: self.derived_with(other),
        }
    }

    /// Interval division. Divisors containing zero widen the result to
    /// the full line including infinities (floats do not trap; the
    /// hazard surfaces later if the quotient flows into an int cast).
    #[must_use]
    pub fn div(self, other: FltItv) -> FltItv {
        if other.contains(0.0) {
            return FltItv {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
                derived: false,
            };
        }
        let cands = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ];
        if cands.iter().any(|c| c.is_nan()) {
            return FltItv {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
                derived: false,
            };
        }
        FltItv {
            lo: cands.iter().copied().fold(f64::INFINITY, f64::min),
            hi: cands.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            derived: self.derived_with(other),
        }
    }

    /// Join (union hull).
    #[must_use]
    pub fn join(self, other: FltItv) -> FltItv {
        FltItv {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            derived: self.derived_with(other),
        }
    }

    /// Widening to infinities for bounds that moved (widened bounds are
    /// not *derived* — see [`IntItv::widen`]).
    #[must_use]
    pub fn widen(self, old: FltItv) -> FltItv {
        let moved = self.lo < old.lo || self.hi > old.hi;
        FltItv {
            lo: if self.lo < old.lo {
                f64::NEG_INFINITY
            } else {
                old.lo
            },
            hi: if self.hi > old.hi {
                f64::INFINITY
            } else {
                old.hi
            },
            derived: self.derived && old.derived && !moved,
        }
    }

    /// `.clamp(lo, hi)` — fully derived.
    #[must_use]
    pub fn clamp_to(self, lo: f64, hi: f64) -> FltItv {
        FltItv {
            lo: self.lo.clamp(lo, hi),
            hi: self.hi.clamp(lo, hi),
            derived: true,
        }
    }

    /// `.floor()`.
    #[must_use]
    pub fn floor(self) -> FltItv {
        FltItv {
            lo: self.lo.floor(),
            hi: self.hi.floor(),
            derived: self.derived,
        }
    }

    /// `.ceil()`.
    #[must_use]
    pub fn ceil(self) -> FltItv {
        FltItv {
            lo: self.lo.ceil(),
            hi: self.hi.ceil(),
            derived: self.derived,
        }
    }

    /// `.trunc()` (toward zero, mirroring `as`-cast truncation).
    #[must_use]
    pub fn trunc(self) -> FltItv {
        FltItv {
            lo: self.lo.trunc(),
            hi: self.hi.trunc(),
            derived: self.derived,
        }
    }

    /// `.round()`.
    #[must_use]
    pub fn round(self) -> FltItv {
        FltItv {
            lo: self.lo.round(),
            hi: self.hi.round(),
            derived: self.derived,
        }
    }

    /// `.abs()`.
    #[must_use]
    pub fn abs(self) -> FltItv {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            FltItv {
                lo: -self.hi,
                hi: -self.lo,
                derived: self.derived,
            }
        } else {
            FltItv {
                lo: 0.0,
                hi: (-self.lo).max(self.hi),
                derived: self.derived,
            }
        }
    }

    /// `.sqrt()` — over non-negative inputs; a negative lower bound
    /// clamps to zero (`sqrt` of negatives is NaN, which the `as` cast
    /// saturates to 0, inside `[0, …]`).
    #[must_use]
    pub fn sqrt(self) -> FltItv {
        FltItv {
            lo: self.lo.max(0.0).sqrt(),
            hi: self.hi.max(0.0).sqrt(),
            derived: self.derived,
        }
    }

    /// Does every value — after Rust's saturating float→int `as` cast
    /// semantics truncate toward zero — fit the target integer type?
    ///
    /// `trunc(x)` fits iff `x > min - 1` and `x < max + 1`; for 64-bit
    /// targets `max + 1 = 2^64` is exactly representable in `f64`
    /// (representability gaps near `2^64` make the strict `<` sound).
    /// NaN is *not* a fit hazard at runtime (`as` saturates NaN to 0),
    /// but an interval that reached `±inf` fails the bound test and is
    /// reported as unproven, which is the behaviour we want.
    #[must_use]
    pub fn fits_int(self, ty: IntTy) -> bool {
        if self.lo.is_nan() || self.hi.is_nan() {
            return false;
        }
        let min = ty.min() as f64; // exact for all supported widths
        let upper_ok = if ty.bits >= 53 {
            // ty.max() as f64 rounds *up* to 2^bits for wide types, so
            // hi == 2^bits is exactly the saturating-clamp idiom
            // `x.clamp(0.0, uN::MAX as f64)`: Rust float→int `as`
            // casts saturate, and the only value in that last ulp is
            // 2^bits itself, which lands on MAX — accepted.
            self.hi <= ty.max() as f64
        } else {
            self.hi < (ty.max() as f64) + 1.0
        };
        let lower_ok = self.lo > min - 1.0;
        lower_ok && upper_ok
    }
}

impl fmt::Display for FltItv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", flt_str(self.lo), flt_str(self.hi))
    }
}

/// Renders float bounds compactly, using power-of-two notation where
/// it aids reading (`2^53`, `inf`).
fn flt_str(v: f64) -> String {
    if v.is_infinite() {
        return if v > 0.0 { "inf" } else { "-inf" }.to_owned();
    }
    for bits in [32u32, 53, 63, 64] {
        let p = (1u128 << bits) as f64;
        if v == p {
            return format!("2^{bits}");
        }
    }
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{v:.0}");
    }
    format!("{v}")
}

/// An abstract value: integer interval, float interval, or nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Abs {
    /// Integer-valued, with interval.
    Int(IntItv),
    /// Float-valued, with interval.
    Float(FltItv),
    /// No information (non-numeric or untracked).
    #[default]
    Unknown,
}

impl Abs {
    /// Join two abstract values; mismatched kinds collapse to unknown.
    #[must_use]
    pub fn join(self, other: Abs) -> Abs {
        match (self, other) {
            (Abs::Int(a), Abs::Int(b)) => Abs::Int(a.join(b)),
            (Abs::Float(a), Abs::Float(b)) => Abs::Float(a.join(b)),
            _ => Abs::Unknown,
        }
    }

    /// Widen against the previous iteration's value.
    #[must_use]
    pub fn widen(self, old: Abs) -> Abs {
        match (self, old) {
            (Abs::Int(a), Abs::Int(b)) => Abs::Int(a.widen(b)),
            (Abs::Float(a), Abs::Float(b)) => Abs::Float(a.widen(b)),
            _ => Abs::Unknown,
        }
    }

    /// The interval for a type annotation (`u64` ⇒ assumed type range,
    /// `f64`/`f32` ⇒ top float).
    #[must_use]
    pub fn of_type(name: &str) -> Abs {
        if name == "f64" || name == "f32" {
            return Abs::Float(FltItv::top());
        }
        match IntTy::parse(name) {
            Some(ty) => Abs::Int(ty.range()),
            None => Abs::Unknown,
        }
    }

    /// Is this an integer interval?
    #[must_use]
    pub fn as_int(self) -> Option<IntItv> {
        match self {
            Abs::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Is this a float interval?
    #[must_use]
    pub fn as_float(self) -> Option<FltItv> {
        match self {
            Abs::Float(f) => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for Abs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Abs::Int(i) => write!(f, "{i}"),
            Abs::Float(x) => write!(f, "{x}"),
            Abs::Unknown => write!(f, "⊤"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_type_ranges() {
        let u32t = IntTy::parse("u32").unwrap();
        assert_eq!(u32t.min(), 0);
        assert_eq!(u32t.max(), (1i128 << 32) - 1);
        let i8t = IntTy::parse("i8").unwrap();
        assert_eq!(i8t.min(), -128);
        assert_eq!(i8t.max(), 127);
        let us = IntTy::parse("usize").unwrap();
        assert_eq!(us.max(), (1i128 << 64) - 1);
        assert!(IntTy::parse("f64").is_none());
    }

    #[test]
    fn int_arithmetic_and_saturation() {
        let a = IntItv::new(1, 10);
        let b = IntItv::new(-3, 4);
        assert_eq!(a.add(b), IntItv::new(-2, 14));
        assert_eq!(a.sub(b), IntItv::new(-3, 13));
        assert_eq!(a.mul(b), IntItv::new(-30, 40));
        let big = IntItv::new(i128::MAX - 1, i128::MAX);
        let wide = big.add(big);
        assert_eq!(wide.hi, i128::MAX, "saturates outward");
    }

    #[test]
    fn int_division_and_zero() {
        let a = IntItv::new(10, 100);
        assert_eq!(a.div(IntItv::new(2, 5)), Some(IntItv::new(2, 50)));
        assert!(a.div(IntItv::new(0, 5)).is_none());
        assert!(a.div(IntItv::new(-1, 1)).is_none());
        assert_eq!(a.rem(IntItv::new(7, 7)), Some(IntItv::new(0, 6)));
    }

    #[test]
    fn int_widening_jumps_to_extremes() {
        let old = IntItv::new(0, 10);
        let grown = IntItv::new(0, 11);
        let w = grown.widen(old);
        assert_eq!(w.lo, 0);
        assert_eq!(w.hi, i128::MAX);
        assert!(!w.derived, "widened bounds are not textual");
        let stable = IntItv::new(2, 9).widen(old);
        assert_eq!(stable, IntItv::new(0, 10));
        assert!(stable.derived);
    }

    #[test]
    fn int_clamps_and_fits() {
        let top = IntItv::top();
        let c = top.clamp_to(0, 1_000_000);
        assert!(c.derived);
        assert!(c.fits(IntTy::parse("u32").unwrap()));
        assert!(!IntItv::new(-1, 5).fits(IntTy::parse("u8").unwrap()));
        let m = IntItv::new(0, i128::MAX).min_with(255);
        assert!(m.fits(IntTy::parse("u8").unwrap()));
        let floor = IntItv::new(i128::MIN, 10).max_with(1);
        assert!(!floor.contains(0));
    }

    #[test]
    fn float_arithmetic() {
        let a = FltItv::new(0.0, 1.0);
        let b = FltItv::new(2.0, 4.0);
        assert_eq!(a.add(b), FltItv::new(2.0, 5.0));
        assert_eq!(a.mul(b), FltItv::new(0.0, 4.0));
        assert_eq!(b.div(FltItv::new(2.0, 2.0)), FltItv::new(1.0, 2.0));
        let z = b.div(FltItv::new(-1.0, 1.0));
        assert!(z.lo.is_infinite() && z.hi.is_infinite());
        assert!(!z.derived);
    }

    #[test]
    fn float_cast_fit_uses_representability_gap() {
        let u64t = IntTy::parse("u64").unwrap();
        let two64 = (1u128 << 64) as f64;
        // hi == 2^64 is the saturating-clamp idiom (`u64::MAX as f64`
        // rounds up to 2^64); the cast saturates to MAX — accepted.
        assert!(FltItv::new(0.0, two64).fits_int(u64t));
        // The next float above 2^64 is out.
        let above = f64::from_bits(two64.to_bits() + 1);
        assert!(!FltItv::new(0.0, above).fits_int(u64t));
        // Largest f64 below 2^64 fits.
        let below = f64::from_bits(two64.to_bits() - 1);
        assert!(FltItv::new(0.0, below).fits_int(u64t));
        // trunc(-0.5) = 0 fits u64.
        assert!(FltItv::new(-0.5, 10.0).fits_int(u64t));
        assert!(!FltItv::new(-1.0, 10.0).fits_int(u64t));
        let u32t = IntTy::parse("u32").unwrap();
        assert!(FltItv::new(0.0, 4294967295.9).fits_int(u32t));
        assert!(!FltItv::new(0.0, 4294967296.0).fits_int(u32t));
        assert!(!FltItv::top().fits_int(u64t));
        assert!(!FltItv::new(f64::NAN, f64::NAN).fits_int(u64t));
    }

    #[test]
    fn float_shape_ops() {
        let a = FltItv::new(-2.5, 3.5);
        assert_eq!(a.abs(), FltItv::new(0.0, 3.5));
        assert_eq!(a.floor(), FltItv::new(-3.0, 3.0));
        assert_eq!(a.ceil(), FltItv::new(-2.0, 4.0));
        assert_eq!(a.clamp_to(0.0, 1.0), FltItv::new(0.0, 1.0));
        assert_eq!(FltItv::new(4.0, 9.0).sqrt(), FltItv::new(2.0, 3.0));
    }

    #[test]
    fn abs_join_and_display() {
        let i = Abs::Int(IntItv::new(0, 5));
        let j = Abs::Int(IntItv::new(3, 9));
        assert_eq!(i.join(j), Abs::Int(IntItv::new(0, 9)));
        assert_eq!(i.join(Abs::Unknown), Abs::Unknown);
        assert_eq!(format!("{}", IntItv::new(0, (1 << 32) - 1)), "[0, 2^32-1]");
        assert_eq!(
            format!("{}", FltItv::new(0.0, (1u128 << 53) as f64)),
            "[0, 2^53]"
        );
        assert_eq!(format!("{}", Abs::Unknown), "⊤");
    }

    #[test]
    fn of_type_maps_annotations() {
        assert!(matches!(Abs::of_type("u64"), Abs::Int(_)));
        assert!(matches!(Abs::of_type("f64"), Abs::Float(_)));
        assert_eq!(Abs::of_type("String"), Abs::Unknown);
    }
}
