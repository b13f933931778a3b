//! Outside-in benchmark of the TABS workspace.
//!
//! Drives the unmodified program through its public API on one cluster
//! profile with every feature on, through four workloads, and reports
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//! See `perfbench/README.md` for the workloads, the predictions and how
//! to read a traced run.

pub mod bank;
pub mod devices;
pub mod json;
pub mod profile;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stats;
pub mod world;
