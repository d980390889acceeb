//! # hwdp-harness — parallel experiment orchestration
//!
//! The campaign layer over the `hwdp-core` simulator: expand scenario ×
//! configuration grids into independent jobs, run them across OS threads,
//! sink results into machine-readable `BENCH_<campaign>.json` artifacts,
//! and gate changes against stored baselines.
//!
//! * [`spec`] — [`Scenario`], [`JobSpec`], [`Campaign`], and the [`Grid`]
//!   builder that expands axis lists into a job list. Per-job seeds derive
//!   from the campaign seed and job index via SplitMix64 ([`seed`]), so an
//!   identical campaign produces identical results regardless of worker
//!   count or scheduling order.
//! * [`executor`] — a `std::thread` pool draining a shared job queue with
//!   panic isolation (a panicking job is reported as failed, not a harness
//!   crash), per-job wall-time capture, and live progress callbacks.
//! * [`runner`] — maps a [`JobSpec`] onto a concrete simulator run and
//!   flattens the resulting metrics (via
//!   `hwdp_core::RunResult::export_metrics`).
//! * [`json`] — a dependency-free JSON value model, writer, and parser.
//! * [`artifact`] — the `BENCH_*.json` schema: per-job config, metrics,
//!   status, and wall time; byte-stable except for wall-time fields.
//! * [`compare`] — the baseline comparator: per-metric deltas with
//!   configurable thresholds and direction-aware regression verdicts;
//!   jobs run with `repeats > 1` gate on 95 % confidence-interval overlap
//!   instead of raw deltas.
//! * [`stats`] — mean / sample-stddev / Student-t 95 % CI summaries for
//!   repeated jobs.
//!
//! # Quickstart
//!
//! ```
//! use hwdp_harness::{Grid, Scenario, execute_campaign, progress::Silent};
//! use hwdp_core::Mode;
//!
//! let campaign = Grid::new("demo", 42)
//!     .scenarios([Scenario::FioRand])
//!     .modes([Mode::Osdp, Mode::Hwdp])
//!     .threads([1])
//!     .ratios([2.0])
//!     .memory_frames(128)
//!     .ops(40)
//!     .expand();
//! let artifact = execute_campaign(&campaign, 2, &mut Silent);
//! assert_eq!(artifact.jobs.len(), 2);
//! assert!(artifact.jobs.iter().all(|j| j.is_ok()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The harness owns the host clock (wall times, the watchdog) and the
// worker threads, and its `let _ =` discards are infallible `write!`s into
// Strings and sends to a receiver that may have timed out.
#![allow(clippy::disallowed_types, clippy::disallowed_methods, clippy::let_underscore_must_use)]

pub mod artifact;
pub mod chaos;
pub mod compare;
pub mod executor;
pub mod json;
pub mod progress;
pub mod runner;
pub mod seed;
pub mod spec;
pub mod stats;

pub use artifact::{Artifact, JobRecord, JobStatus};
pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use compare::{CompareReport, Thresholds};
pub use executor::{execute, execute_campaign, execute_campaign_resume, JobOutcome};
pub use json::Json;
pub use progress::Progress;
pub use seed::{job_seed, repeat_seed};
pub use hwdp_tier::PolicyKind;
pub use spec::{Campaign, DeviceKind, Grid, JobSpec, Scenario, SmtPartner, TierSpec};
pub use stats::{summarize, t95, Summary};
