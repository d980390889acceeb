//! # hwdp-core — hardware-based demand paging, end to end
//!
//! The integrated full-system simulator reproducing *"A Case for
//! Hardware-Based Demand Paging"* (ISCA 2020):
//!
//! * [`config`] — [`Mode`] (OSDP / HWDP / SW-only) and the Table II
//!   system configuration.
//! * [`system`] — [`System`]/[`SystemBuilder`]: cores with SMT and the
//!   pollution model, the extended MMU + TLBs, the SMU, NVMe devices, and
//!   the OS (fault paths, page cache, `kpted`, `kpoold`), all driven by a
//!   deterministic event loop. Two private modules own what it drives:
//!   `io` (the controllers, OS driver queues and each command's watchdog,
//!   parking and recovery counters) and `tier_driver` (migration copies
//!   and the file-system side of tier residence).
//! * [`anatomy`] — closed-form single-miss latency breakdowns (Figs. 3,
//!   11, 17).
//! * [`metrics`] — [`RunResult`] and per-thread reports.
//!
//! # Quickstart
//!
//! ```
//! use hwdp_core::{Mode, SystemBuilder};
//! use hwdp_sim::time::Duration;
//! use hwdp_workloads::FioRandRead;
//!
//! let mut sys = SystemBuilder::new(Mode::Hwdp).memory_frames(512).seed(1).build();
//! let file = sys.create_pattern_file("data", 2048); // 4× memory
//! let region = sys.map_file(file);
//! let rng = sys.fork_rng();
//! sys.spawn(Box::new(FioRandRead::new(region, 2048, 200, rng)), 1.8, None);
//! let result = sys.run(Duration::from_millis(100));
//! assert_eq!(result.ops, 200);
//! assert_eq!(result.verify_failures(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anatomy;
pub mod config;
mod io;
pub mod metrics;
pub mod system;
mod tier_driver;

pub use config::{Mode, RetryPolicy, SystemConfig};
pub use metrics::{RunResult, ThreadReport, TimeBreakdown};
pub use system::{HwId, IoError, System, SystemBuilder, ThreadId};
