//! # windex-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation plus the
//! ablations listed in `DESIGN.md`. Each experiment produces an
//! [`Experiment`] value that is printed as an aligned text table and
//! written to `results/<id>.csv` and `results/<id>.json`.
//!
//! Run `cargo run --release -p windex-bench --bin experiments -- all`
//! (add `--quick` for a reduced sweep).

#![warn(missing_docs)]

pub mod chart;
pub mod config;
pub mod experiments;
pub mod export;
mod gate;
pub mod output;

pub use config::ExpConfig;
pub use output::Experiment;
