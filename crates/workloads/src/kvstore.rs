//! MiniDB — a page-granular key-value store over a memory-mapped file,
//! standing in for RocksDB (§VI's DBBench and YCSB host).
//!
//! The paper uses RocksDB purely as a realistic generator of random
//! accesses to a large mmap'd dataset (4 KiB records, dataset 2× physical
//! memory). MiniDB reproduces that access pattern with real data: each
//! record occupies one 4 KiB page whose first bytes hold a verifiable
//! header `(magic, key, version)`. Reads check the header, so any bug in
//! the demand-paging machinery (wrong LBA in a PTE, lost DMA, stale
//! eviction) surfaces as a verification failure.

use hwdp_mem::addr::PageData;
use hwdp_sim::rng::Prng;

use crate::{ReadSnapshot, RegionId, Step, Workload};

/// Bytes of the verifiable record header.
pub const RECORD_HEADER_LEN: usize = 24;

const MAGIC: u64 = 0x4D69_6E69_4442_2121; // "MiniDB!!"

/// Builds the on-disk header for `(key, version)`.
pub fn record_header(key: u64, version: u64) -> [u8; RECORD_HEADER_LEN] {
    let mut h = [0u8; RECORD_HEADER_LEN];
    h[0..8].copy_from_slice(&MAGIC.to_le_bytes());
    h[8..16].copy_from_slice(&key.to_le_bytes());
    h[16..24].copy_from_slice(&version.to_le_bytes());
    h
}

/// The page record `key` starts with: its version-0 header at offset 0,
/// zeroes after. The initializer of a MiniDB file's record extent.
pub fn initial_record(key: u64) -> PageData {
    PageData::patched(0, &record_header(key, 0)).unwrap_or_default()
}

/// Parses and validates a record header for `key`; returns the version.
/// Bytes past the header are ignored; fewer than [`RECORD_HEADER_LEN`]
/// bytes (a short read) fail.
pub fn check_header(key: u64, bytes: &[u8]) -> Option<u64> {
    let header = bytes.get(..RECORD_HEADER_LEN)?;
    let word = |i: usize| u64::from_le_bytes(std::array::from_fn(|j| header[8 * i + j]));
    (word(0) == MAGIC && word(1) == key).then(|| word(2))
}

/// The embedded store: key → one 4 KiB record page in a mapped region.
#[derive(Clone, Copy, Debug)]
pub struct MiniDb {
    region: RegionId,
    /// Records currently present (keys `0..records`).
    records: u64,
    /// Maximum records the file can hold.
    capacity: u64,
}

impl MiniDb {
    /// Opens a store with `records` pre-loaded records in a region sized
    /// for `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `records > capacity` or the store is empty.
    pub fn new(region: RegionId, records: u64, capacity: u64) -> Self {
        assert!(records > 0, "empty store");
        assert!(records <= capacity, "records exceed capacity");
        MiniDb { region, records, capacity }
    }

    /// Current record count.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The read step for `key` (fetches the verifiable header).
    pub fn get(&self, key: u64) -> Step {
        debug_assert!(key < self.records);
        Step::Read {
            region: self.region,
            offset: key * 4096,
            len: RECORD_HEADER_LEN as u32,
        }
    }

    /// The write step updating `key` to `version`.
    pub fn put(&self, key: u64, version: u64) -> Step {
        debug_assert!(key < self.records);
        Step::Write {
            region: self.region,
            offset: key * 4096,
            data: record_header(key, version).to_vec(),
        }
    }

    /// Appends a new record, returning its key and the write step.
    /// Returns `None` when the file is full.
    pub fn insert(&mut self) -> Option<(u64, Step)> {
        if self.records >= self.capacity {
            return None;
        }
        let key = self.records;
        self.records += 1;
        Some((key, Step::Write {
            region: self.region,
            offset: key * 4096,
            data: record_header(key, 0).to_vec(),
        }))
    }

    /// Verifies what a [`MiniDb::get`] on `key` read.
    pub fn verify(&self, key: u64, read: &ReadSnapshot) -> bool {
        let mut header = [0u8; RECORD_HEADER_LEN];
        read.copy_to(&mut header) == RECORD_HEADER_LEN && check_header(key, &header).is_some()
    }
}

/// DBBench `readrandom`: uniformly random gets (§VI-C "general key-value
/// store performance").
#[derive(Debug)]
pub struct DbBenchReadRandom {
    db: MiniDb,
    rng: Prng,
    ops_target: u64,
    ops_done: u64,
    verify_failures: u64,
    /// Per-op application work (key lookup, memtable/index probing).
    per_op_instructions: u64,
    pending_key: Option<u64>,
    state: State,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Compute,
    Read,
}

impl DbBenchReadRandom {
    /// Creates a `readrandom` job of `ops_target` gets.
    pub fn new(db: MiniDb, ops_target: u64, rng: Prng) -> Self {
        DbBenchReadRandom {
            db,
            rng,
            ops_target,
            ops_done: 0,
            verify_failures: 0,
            per_op_instructions: 5_000,
            pending_key: None,
            state: State::Compute,
        }
    }
}

impl Workload for DbBenchReadRandom {
    fn next(&mut self, last_read: Option<&ReadSnapshot>) -> Step {
        // Verify the completed read, if any.
        if let (Some(key), Some(read)) = (self.pending_key.take(), last_read) {
            if !self.db.verify(key, read) {
                self.verify_failures += 1;
            }
            self.ops_done += 1;
        }
        if self.ops_done >= self.ops_target {
            return Step::Finish;
        }
        match self.state {
            State::Compute => {
                self.state = State::Read;
                Step::Compute { instructions: self.per_op_instructions }
            }
            State::Read => {
                self.state = State::Compute;
                let key = self.rng.below(self.db.records());
                self.pending_key = Some(key);
                self.db.get(key)
            }
        }
    }

    fn ops_done(&self) -> u64 {
        self.ops_done
    }

    fn verify_failures(&self) -> u64 {
        self.verify_failures
    }

    fn name(&self) -> String {
        format!("dbbench-readrandom({} records)", self.db.records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdp_mem::PageData;

    /// What a `len`-byte read sees on a page starting with `header`.
    fn header_read(header: &[u8], len: usize) -> ReadSnapshot {
        let mut page = PageData::Zero;
        page.write(0, header);
        ReadSnapshot::of(&page, 0, len)
    }

    #[test]
    fn header_roundtrip() {
        let h = record_header(42, 7);
        assert_eq!(check_header(42, &h), Some(7));
        assert_eq!(check_header(43, &h), None, "wrong key rejected");
        let mut corrupt = h;
        corrupt[0] ^= 0xFF;
        assert_eq!(check_header(42, &corrupt), None, "bad magic rejected");
        assert_eq!(check_header(42, &h[..10]), None, "short read rejected");
        let db = MiniDb::new(RegionId(0), 50, 64);
        assert!(db.verify(42, &header_read(&h, RECORD_HEADER_LEN)));
        assert!(!db.verify(42, &header_read(&corrupt, RECORD_HEADER_LEN)));
        assert!(!db.verify(42, &header_read(&h, 10)), "short snapshot rejected");
    }

    #[test]
    fn get_put_target_record_pages() {
        let db = MiniDb::new(RegionId(1), 100, 128);
        let Step::Read { region, offset, len } = db.get(31) else { panic!("get is a read") };
        assert_eq!(region, RegionId(1));
        assert_eq!(offset, 31 * 4096);
        assert_eq!(len as usize, RECORD_HEADER_LEN);
        let Step::Write { offset, data, .. } = db.put(31, 9) else { panic!("put is a write") };
        assert_eq!(offset, 31 * 4096);
        assert_eq!(check_header(31, &data), Some(9));
    }

    #[test]
    fn insert_appends_until_capacity() {
        let mut db = MiniDb::new(RegionId(0), 2, 3);
        let (key, step) = db.insert().expect("room for one more");
        assert_eq!(key, 2);
        step.validate();
        assert_eq!(db.records(), 3);
        assert!(db.insert().is_none(), "full");
    }

    #[test]
    fn dbbench_counts_and_verifies() {
        let db = MiniDb::new(RegionId(0), 50, 64);
        let mut w = DbBenchReadRandom::new(db, 5, Prng::seed_from(1));
        let mut last: Option<ReadSnapshot> = None;
        let mut reads = 0;
        loop {
            let step = w.next(last.as_ref());
            last = None;
            match step {
                Step::Read { offset, .. } => {
                    reads += 1;
                    // Simulate the system returning correct data.
                    let key = offset / 4096;
                    last = Some(header_read(&record_header(key, 0), RECORD_HEADER_LEN));
                }
                Step::Finish => break,
                _ => {}
            }
        }
        assert_eq!(reads, 5);
        assert_eq!(w.ops_done(), 5);
        assert_eq!(w.verify_failures(), 0);
    }

    #[test]
    fn dbbench_detects_corruption() {
        let db = MiniDb::new(RegionId(0), 50, 64);
        let mut w = DbBenchReadRandom::new(db, 2, Prng::seed_from(1));
        let mut last: Option<ReadSnapshot> = None;
        loop {
            let step = w.next(last.as_ref());
            last = None;
            match step {
                Step::Read { .. } => {
                    last = Some(ReadSnapshot::of(&PageData::Pattern(9), 0, RECORD_HEADER_LEN)); // garbage
                }
                Step::Finish => break,
                _ => {}
            }
        }
        assert_eq!(w.verify_failures(), 2, "all corrupted reads flagged");
    }
}
