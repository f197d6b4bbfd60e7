//! Fixture A4 seeds: float→int truncation, a widening loop
//! accumulator, a definite overflow, and a guarded vs unguarded
//! divisor. The file name matches a deny path, so every unproven site
//! here is an error.

/// Truncation hazard: nothing bounds `p / k`, so the cast is flagged.
pub fn scale_raw(p: f64, k: f64) -> u32 {
    (p / k).floor() as u32
}

/// Clean counterpart: the clamp pins the interval inside u32.
pub fn scale_clamped(p: f64, k: f64) -> u32 {
    (p / k).floor().clamp(0.0, u32::MAX as f64) as u32
}

/// Loop accumulator: widening settles `acc` at the full u64 range, so
/// the narrowing cast after the loop is flagged with that witness.
pub fn sum_into_u32(n: u64) -> u32 {
    let mut acc: u64 = 0;
    for i in 0..n {
        acc += i;
    }
    acc as u32
}

/// Definite overflow: both operands are exact, the product provably
/// exceeds u32.
pub fn ticks() -> u32 {
    2_000_000_000u32 * 3
}

/// Unguarded divisor: `k` spans the full u64 range, including zero.
pub fn per_item(total: u64, k: u64) -> u64 {
    total / k
}

/// Guarded counterpart: the early return shaves zero off `k`.
pub fn per_item_guarded(total: u64, k: u64) -> u64 {
    if k == 0 {
        return 0;
    }
    total / k
}

/// Waived: the narrowing is documented, so A4 stays quiet (and A3
/// keeps the waiver honest).
pub fn waived_narrow(p: f64) -> u32 {
    // analyze: allow(A4): fixture documented saturation, caller pre-clamps
    p as u32
}
