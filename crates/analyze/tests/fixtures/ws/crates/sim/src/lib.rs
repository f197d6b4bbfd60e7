//! Fixture sim crate: warn-severity surface.

pub mod chain;
pub mod event;
pub mod grid;

/// Warn: bare indexing directly in a public function.
pub fn render(frame: &[u8], cursor: usize) -> u8 {
    frame[cursor]
}

/// Cross-unit arithmetic inside one expression.
pub fn drift(delta_ns: u64, jitter_ms: f64) -> f64 {
    jitter_ms + delta_ns as f64
}

// analyze: allow(L1): fixture stale waiver, nothing to waive here
pub fn quiet() {}
pub mod report;
