//! Workload generators for the evaluation (§VI): FIO's mmap engine, a
//! RocksDB-stand-in key-value store ("MiniDB") driven by DBBench
//! `readrandom` and the YCSB A–F mixes, and SPEC-CPU-2017-like compute
//! kernels for the SMT co-location experiment.
//!
//! A workload is a deterministic state machine producing [`Step`]s; the
//! system simulator executes each step in virtual time (compute advances
//! the thread's clock at its effective IPC; reads/writes walk the full
//! demand-paging machinery) and hands each read's result back to
//! [`Workload::next`] as a [`ReadSnapshot`], so data-dependent behavior
//! (and end-to-end data *verification*) is possible. The snapshot is lazy:
//! a workload that never asks for the bytes (FIO, SPEC) costs no byte
//! copies, while MiniDB/YCSB/DBBench and [`ScratchChurn`] copy out just
//! the record header or counter they check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fio;
pub mod kvstore;
pub mod scratch;
pub mod spec;
pub mod ycsb;

pub use hwdp_mem::ReadSnapshot;

pub use fio::{FioRandRead, FioSeqRead};
pub use kvstore::{DbBenchReadRandom, MiniDb, RECORD_HEADER_LEN};
pub use scratch::ScratchChurn;
pub use spec::{SpecKernel, SpecProfile};
pub use ycsb::{Ycsb, YcsbKind};

/// A memory-mapped region handle. The simulator assigns these when a
/// workload's dataset is mapped and translates `(region, offset)` to
/// virtual addresses.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegionId(pub u32);

/// One step of a workload thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Execute `instructions` of user-mode compute.
    Compute {
        /// Instructions to retire.
        instructions: u64,
    },
    /// Read `len` bytes at `offset` within `region` (a load through the
    /// mapped file — may fault). A snapshot of the bytes comes back via
    /// [`Workload::next`].
    Read {
        /// Target region.
        region: RegionId,
        /// Byte offset within the region.
        offset: u64,
        /// Bytes to read (≤ 4096; reads never cross a page boundary).
        len: u32,
    },
    /// Write `data` at `offset` within `region` (a store through the
    /// mapped file — may fault, dirties the page).
    Write {
        /// Target region.
        region: RegionId,
        /// Byte offset within the region.
        offset: u64,
        /// Bytes to store.
        data: Vec<u8>,
    },
    /// The workload is finished; the thread exits.
    Finish,
}

impl Step {
    /// Validates the step's invariants (reads/writes stay within one page).
    pub fn validate(&self) {
        match self {
            Step::Read { offset, len, .. } => {
                assert!(*len as usize <= 4096, "read longer than a page");
                assert!(
                    (offset % 4096) + *len as u64 <= 4096,
                    "read crosses a page boundary"
                );
            }
            Step::Write { offset, data, .. } => {
                assert!(data.len() <= 4096, "write longer than a page");
                assert!(
                    (offset % 4096) as usize + data.len() <= 4096,
                    "write crosses a page boundary"
                );
            }
            _ => {}
        }
    }
}

/// A deterministic workload state machine.
pub trait Workload {
    /// Produces the next step. `last_read` is what the thread's most
    /// recent [`Step::Read`] saw, captured when that read ran (a later
    /// store to the page does not change it); `None` before the first
    /// read and after a read that failed with an I/O error. Its bytes are
    /// produced only by [`ReadSnapshot::copy_to`].
    fn next(&mut self, last_read: Option<&ReadSnapshot>) -> Step;

    /// Completed application-level operations (for throughput metrics).
    fn ops_done(&self) -> u64;

    /// Data-integrity violations detected (reads returning wrong bytes).
    fn verify_failures(&self) -> u64 {
        0
    }

    /// Short human-readable name.
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_validation_accepts_page_aligned() {
        Step::Read { region: RegionId(0), offset: 4096, len: 4096 }.validate();
        Step::Write { region: RegionId(0), offset: 8192 + 100, data: vec![0; 100] }.validate();
        Step::Compute { instructions: 5 }.validate();
        Step::Finish.validate();
    }

    #[test]
    #[should_panic(expected = "crosses a page boundary")]
    fn step_validation_rejects_straddling_read() {
        Step::Read { region: RegionId(0), offset: 4000, len: 200 }.validate();
    }

    #[test]
    #[should_panic(expected = "crosses a page boundary")]
    fn step_validation_rejects_straddling_write() {
        Step::Write { region: RegionId(0), offset: 4090, data: vec![0; 10] }.validate();
    }
}
