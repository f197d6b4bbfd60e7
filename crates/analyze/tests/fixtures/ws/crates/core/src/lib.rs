//! Fixture core crate: public API surface for A1/A2 over the
//! deny-severity crate.

mod deep;
pub mod solver;

/// Clean: every reachable helper is panic-free.
pub fn settle_ns(budget_ns: u64) -> u64 {
    deep::halve(budget_ns)
}

/// Tainted through a cross-module private helper chain (the seed lives
/// inside a closure two files away).
pub fn schedule(slots: Option<u32>) -> u32 {
    deep::pick(slots)
}

/// Waived: the panic is a documented contract, so A1 stays quiet.
pub fn contract(x: Option<u32>) -> u32 {
    // analyze: allow(A1): fixture documented contract, caller validates
    x.unwrap()
}

/// Interprocedural A2: passes a millisecond value where nanoseconds
/// are expected.
pub fn deadline_check(window_ms: f64) -> bool {
    within_ns(window_ms)
}

fn within_ns(limit_ns: u64) -> bool {
    limit_ns > 1_000
}

/// Intra-function A2: a bare `D − R` divisor.
pub fn density(c_ns: u64, d_ns: u64, r_ns: u64) -> u64 {
    c_ns / (d_ns - r_ns)
}
