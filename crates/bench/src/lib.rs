//! # rto-bench — experiment regeneration for every table and figure
//!
//! One module per experiment in the paper's evaluation (§6), each with a
//! matching binary:
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 1 (benefit construction) | [`table1`] | `cargo run -p rto-bench --bin table1` |
//! | Figure 2 (case study) | [`figure2`] | `cargo run -p rto-bench --bin figure2` |
//! | Figure 3 (estimation error) | [`figure3`] | `cargo run -p rto-bench --bin figure3` |
//! | §1 motivation example | [`motivation`] | `cargo run -p rto-bench --bin motivation` |
//!
//! The modules return structured row types (all `serde`-serializable) so
//! the binaries can print aligned text tables *and* JSON lines, and the
//! integration tests can assert the qualitative shape of each result
//! (who wins, in which order, where the maximum sits) without depending
//! on absolute numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod figure2;
pub mod figure3;
pub mod hot_path;
pub mod motivation;
pub mod opts;
pub mod report;
pub mod sweep;
pub mod table1;
