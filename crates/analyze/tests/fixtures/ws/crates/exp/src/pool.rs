//! Fixture worker pool: blocking in spawned closures (direct and
//! through a helper) and atomic-ordering discipline.

use std::sync::atomic::{AtomicU64, Ordering};

/// Direct blocking site lexically inside the spawned closure.
pub fn spawn_reader() {
    std::thread::spawn(move || {
        let _bytes = std::fs::read("trials.bin");
    });
}

/// Helper that blocks; reached from a worker below, so the call site
/// inside the closure is flagged interprocedurally.
fn load_trials() -> usize {
    let _bytes = std::fs::read("trials.bin");
    0
}

/// Interprocedural blocking: the closure itself only calls a helper.
pub fn spawn_loader() {
    std::thread::spawn(move || {
        let _n = load_trials();
    });
}

/// Unjustified non-Relaxed ordering outside obs — flagged.
pub fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::AcqRel)
}

/// Justified ordering: the inline waiver keeps A5 quiet (and A3 keeps
/// the waiver honest).
pub fn publish(counter: &AtomicU64) {
    // analyze: allow(A5): fixture release fence pairs with an Acquire load in the reader
    counter.store(1, Ordering::Release);
}

/// Relaxed needs no justification anywhere.
pub fn tally(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}
