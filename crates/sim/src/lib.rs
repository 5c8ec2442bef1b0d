//! Experiment harness: multi-client drivers, metrics and the per-experiment sweeps
//! that regenerate the paper's claims (experiments E1–E14, catalogued in
//! [`experiments`]).
//!
//! Every experiment is a plain function returning printable rows, so the same code
//! backs this crate's `experiments` binary and its smoke tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dir_driver;
pub mod driver;
pub mod experiments;
pub mod metrics;

pub use dir_driver::{provision_dirs, run_dir_churn, DirChurnResult, DirChurnRun};
pub use driver::{run_workload, RunConfig, RunResult};
pub use metrics::LatencyStats;
