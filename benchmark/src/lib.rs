//! The hwdp repository benchmark: four campaign workloads measured end to
//! end (host wall time and simulated results) and, in a separate traced
//! run, per layer. README.md documents the commands and every metric.

#![forbid(unsafe_code)]

pub mod compare;
pub mod measure;
pub mod report;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workloads;
