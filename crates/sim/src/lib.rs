//! Deterministic discrete-event simulation kernel for the HWDP reproduction.
//!
//! This crate provides the engine-level substrate every other crate builds
//! on:
//!
//! * [`time`] — picosecond-resolution virtual time ([`time::Time`],
//!   [`time::Duration`]), CPU frequencies and cycle/nanosecond conversion.
//! * [`events`] — the simulator's one event queue ([`events::EventQueue`]):
//!   a binary heap keyed by `(time, EventId)`, so same-time events fire in
//!   scheduling order, with O(1) cancellation.
//! * [`dense`] — [`dense::DenseMap`], the ordered map for dense integer
//!   keys (file ids, page indices, LBAs): a slot vector, no tree, no hashing.
//! * [`rng`] — a small, seedable, portable PRNG ([`rng::Prng`], SplitMix64 +
//!   xoshiro256**) so simulations never depend on platform entropy.
//! * [`dist`] — workload distributions (uniform, Zipfian, scrambled Zipfian,
//!   latest, lognormal-ish service jitter) used by the YCSB/FIO generators
//!   and the device model.
//! * [`stats`] — counters, running means, and fixed-bucket latency
//!   histograms with percentile queries.
//! * [`sanitize`] — the hwdp-audit sanitizer layer: the [`sanitize::Sanitizer`]
//!   trait, [`sanitize::SanitizeLevel`] and structured [`sanitize::AuditReport`]s
//!   every simulation crate registers runtime invariant checkers through.
//!
//! # Example
//!
//! ```
//! use hwdp_sim::events::EventQueue;
//! use hwdp_sim::time::{Duration, Time};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Time::ZERO + Duration::from_nanos(5), "later");
//! q.schedule(Time::ZERO, "now");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Time::ZERO, "now"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod dist;
pub mod events;
pub mod rng;
pub mod sanitize;
#[cfg(test)]
mod sched;
pub mod stats;
pub mod time;

pub use dense::DenseMap;
pub use events::EventQueue;
pub use rng::Prng;
pub use sanitize::{AuditReport, SanitizeLevel, Sanitizer, Violation};
pub use time::{Duration, Freq, Time};
