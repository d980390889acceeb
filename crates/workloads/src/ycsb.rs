//! The YCSB core workloads A–F over MiniDB (§VI-C "performance of
//! key-value stores in the cloud").
//!
//! | kind | mix                              | request distribution |
//! |------|----------------------------------|----------------------|
//! | A    | 50 % read / 50 % update          | scrambled Zipfian    |
//! | B    | 95 % read / 5 % update           | scrambled Zipfian    |
//! | C    | 100 % read                       | scrambled Zipfian    |
//! | D    | 95 % read / 5 % insert           | latest               |
//! | E    | 95 % scan / 5 % insert           | scrambled Zipfian    |
//! | F    | 50 % read / 50 % read-modify-write | scrambled Zipfian  |
//!
//! Every read is verified against the MiniDB record header, so the whole
//! demand-paging machinery is integrity-checked while benchmarking.

use std::collections::VecDeque;

use hwdp_sim::dist::{Latest, ScrambledZipfian, Zipfian, YCSB_ZIPFIAN_THETA};
use hwdp_sim::rng::Prng;

use crate::kvstore::MiniDb;
use crate::{ReadSnapshot, Step, Workload};

/// The six YCSB core workloads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum YcsbKind {
    /// 50/50 read/update, Zipfian.
    A,
    /// 95/5 read/update, Zipfian.
    B,
    /// Read-only, Zipfian.
    C,
    /// 95/5 read/insert, latest-skewed.
    D,
    /// 95/5 scan/insert, Zipfian.
    E,
    /// 50/50 read/read-modify-write, Zipfian.
    F,
}

impl YcsbKind {
    /// All six, in order.
    pub const ALL: [YcsbKind; 6] =
        [YcsbKind::A, YcsbKind::B, YcsbKind::C, YcsbKind::D, YcsbKind::E, YcsbKind::F];

    /// Canonical name ("ycsb-a" ...).
    pub fn name(self) -> &'static str {
        match self {
            YcsbKind::A => "ycsb-a",
            YcsbKind::B => "ycsb-b",
            YcsbKind::C => "ycsb-c",
            YcsbKind::D => "ycsb-d",
            YcsbKind::E => "ycsb-e",
            YcsbKind::F => "ycsb-f",
        }
    }
}

/// Maximum pages touched by one YCSB-E scan (YCSB defaults to up to 100
/// records; scaled down to keep simulated scans proportionate to the
/// scaled dataset).
const MAX_SCAN_LEN: u64 = 16;

/// Per-operation application compute in instructions: request parsing,
/// RocksDB-style block decode and index probing, response marshalling,
/// calibrated so YCSB's compute/paging split yields the paper's 5–27 %
/// gains rather than FIO's 29–57 %.
const PER_OP_INSTRUCTIONS: u64 = 30_000;

/// The one distribution a client draws keys from.
#[derive(Debug)]
enum Keys {
    /// Every kind but D.
    Scrambled(ScrambledZipfian),
    /// D: skewed towards the latest inserts.
    Latest(Latest),
}

/// A YCSB client thread.
#[derive(Debug)]
pub struct Ycsb {
    kind: YcsbKind,
    db: MiniDb,
    keys: Keys,
    rng: Prng,
    ops_target: u64,
    ops_done: u64,
    verify_failures: u64,
    /// Steps remaining in the current operation, each with the key a read
    /// expects (for verification).
    queue: VecDeque<(Step, Option<u64>)>,
    /// Key awaiting verification from the last issued read.
    awaiting: Option<u64>,
    in_op: bool,
    version_counter: u64,
}

impl Ycsb {
    /// The key popularity of a dataset of `records` records: YCSB's
    /// Zipfian. Its zeta sum comes from the thread's shared prefix table
    /// (one `powf` per record only the first time a thread reaches that
    /// size); a job builds it once and gives each client a clone through
    /// [`Ycsb::with_keys`].
    pub fn popularity(records: u64) -> Zipfian {
        Zipfian::new(records, YCSB_ZIPFIAN_THETA)
    }

    /// Creates a YCSB client running `ops_target` operations that builds
    /// its own [`Ycsb::popularity`]. Clients sharing a dataset use
    /// [`Ycsb::with_keys`] instead, so the job builds it once.
    pub fn new(kind: YcsbKind, db: MiniDb, ops_target: u64, rng: Prng) -> Self {
        Self::with_keys(kind, db, Self::popularity(db.records()), ops_target, rng)
    }

    /// Creates a YCSB client running `ops_target` operations, drawing keys
    /// from `keys`: the job's [`Ycsb::popularity`] over `db`'s records.
    ///
    /// # Panics
    ///
    /// Panics if `keys` does not cover exactly `db.records()` items.
    pub fn with_keys(
        kind: YcsbKind,
        db: MiniDb,
        keys: Zipfian,
        ops_target: u64,
        rng: Prng,
    ) -> Self {
        assert_eq!(keys.items(), db.records(), "the key distribution must cover the dataset");
        let keys = match kind {
            YcsbKind::D => Keys::Latest(Latest::new(keys)),
            _ => Keys::Scrambled(ScrambledZipfian::new(keys)),
        };
        Ycsb {
            kind,
            db,
            keys,
            rng,
            ops_target,
            ops_done: 0,
            verify_failures: 0,
            queue: VecDeque::new(),
            awaiting: None,
            in_op: false,
            version_counter: 1,
        }
    }

    fn pick_key(&mut self) -> u64 {
        match &mut self.keys {
            Keys::Latest(latest) => latest.sample(&mut self.rng),
            Keys::Scrambled(zipf) => zipf.sample(&mut self.rng),
        }
    }

    fn build_op(&mut self) {
        debug_assert!(self.queue.is_empty());
        self.in_op = true;
        self.queue
            .push_back((Step::Compute { instructions: PER_OP_INSTRUCTIONS }, None));
        let r = self.rng.f64();
        match self.kind {
            YcsbKind::C => {
                let key = self.pick_key();
                self.queue.push_back((self.db.get(key), Some(key)));
            }
            YcsbKind::A | YcsbKind::B => {
                let read_frac = if self.kind == YcsbKind::A { 0.5 } else { 0.95 };
                let key = self.pick_key();
                if r < read_frac {
                    self.queue.push_back((self.db.get(key), Some(key)));
                } else {
                    self.version_counter += 1;
                    self.queue.push_back((self.db.put(key, self.version_counter), None));
                }
            }
            YcsbKind::D => {
                if r < 0.95 {
                    let key = self.pick_key();
                    self.queue.push_back((self.db.get(key), Some(key)));
                } else if let Some((_, step)) = self.db.insert() {
                    if let Keys::Latest(latest) = &mut self.keys {
                        latest.grow_to(self.db.records());
                    }
                    self.queue.push_back((step, None));
                } else {
                    // File full: degrade to a read (keeps the run going).
                    let key = self.pick_key();
                    self.queue.push_back((self.db.get(key), Some(key)));
                }
            }
            YcsbKind::E => {
                if r < 0.95 {
                    let start = self.pick_key();
                    let len = 1 + self.rng.below(MAX_SCAN_LEN);
                    let end = (start + len).min(self.db.records());
                    for key in start..end {
                        // Each scanned record is decoded/processed, so scans
                        // carry per-record compute on top of the per-op cost.
                        self.queue.push_back((
                            Step::Compute { instructions: PER_OP_INSTRUCTIONS / 4 },
                            None,
                        ));
                        self.queue.push_back((self.db.get(key), Some(key)));
                    }
                } else if let Some((_, step)) = self.db.insert() {
                    self.queue.push_back((step, None));
                } else {
                    let key = self.pick_key();
                    self.queue.push_back((self.db.get(key), Some(key)));
                }
            }
            YcsbKind::F => {
                let key = self.pick_key();
                if r < 0.5 {
                    self.queue.push_back((self.db.get(key), Some(key)));
                } else {
                    // Read-modify-write: read, then write the same record.
                    self.version_counter += 1;
                    self.queue.push_back((self.db.get(key), Some(key)));
                    self.queue.push_back((self.db.put(key, self.version_counter), None));
                }
            }
        }
    }
}

impl Workload for Ycsb {
    fn next(&mut self, last_read: Option<&ReadSnapshot>) -> Step {
        if let Some(key) = self.awaiting.take() {
            match last_read {
                Some(read) if self.db.verify(key, read) => {}
                _ => self.verify_failures += 1,
            }
        }
        if self.queue.is_empty() {
            if self.in_op {
                self.ops_done += 1;
                self.in_op = false;
            }
            if self.ops_done >= self.ops_target {
                return Step::Finish;
            }
            self.build_op();
        }
        // `build_op` above always queues at least one step.
        #[allow(clippy::expect_used)]
        let (step, expect) = self.queue.pop_front().expect("op was just built");
        self.awaiting = expect;
        step
    }

    fn ops_done(&self) -> u64 {
        self.ops_done
    }

    fn verify_failures(&self) -> u64 {
        self.verify_failures
    }

    fn name(&self) -> String {
        format!("{}({} records)", self.kind.name(), self.db.records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvstore::{record_header, RECORD_HEADER_LEN};
    use crate::RegionId;
    use hwdp_mem::PageData;

    /// Runs a YCSB client against a perfect in-memory "system" that always
    /// returns correct record headers; returns (reads, writes).
    fn run(kind: YcsbKind, ops: u64, seed: u64) -> (u64, u64, Ycsb) {
        let db = MiniDb::new(RegionId(0), 1000, 2000);
        let mut w = Ycsb::new(kind, db, ops, Prng::seed_from(seed));
        let (mut reads, mut writes) = (0u64, 0u64);
        let mut last: Option<ReadSnapshot> = None;
        loop {
            let step = w.next(last.as_ref());
            last = None;
            match step {
                Step::Read { offset, .. } => {
                    reads += 1;
                    let mut page = PageData::Zero;
                    page.write(0, &record_header(offset / 4096, 0));
                    last = Some(ReadSnapshot::of(&page, 0, RECORD_HEADER_LEN));
                }
                Step::Write { .. } => writes += 1,
                Step::Finish => break,
                Step::Compute { .. } => {}
            }
        }
        (reads, writes, w)
    }

    #[test]
    fn ycsb_c_is_read_only() {
        let (reads, writes, w) = run(YcsbKind::C, 200, 1);
        assert_eq!(writes, 0);
        assert_eq!(reads, 200);
        assert_eq!(w.ops_done(), 200);
        assert_eq!(w.verify_failures(), 0);
    }

    #[test]
    fn ycsb_a_is_half_writes() {
        let (reads, writes, _) = run(YcsbKind::A, 2000, 2);
        let frac = writes as f64 / (reads + writes) as f64;
        assert!((0.45..0.55).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn ycsb_b_is_mostly_reads() {
        let (reads, writes, _) = run(YcsbKind::B, 2000, 3);
        let frac = writes as f64 / (reads + writes) as f64;
        assert!((0.02..0.09).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn ycsb_d_inserts_grow_store() {
        let (_, writes, w) = run(YcsbKind::D, 2000, 4);
        assert!(writes > 50, "about 5% inserts: {writes}");
        assert!(w.db.records() > 1000, "store grew: {}", w.db.records());
    }

    #[test]
    fn ycsb_e_scans_issue_many_reads() {
        let (reads, _, w) = run(YcsbKind::E, 500, 5);
        assert!(reads as f64 / w.ops_done() as f64 > 3.0, "scans read multiple records");
    }

    #[test]
    fn ycsb_f_rmw_pairs_reads_and_writes() {
        let (reads, writes, _) = run(YcsbKind::F, 2000, 6);
        // Half the ops are RMW (1 read + 1 write), half plain reads.
        let frac = writes as f64 / 2000.0;
        assert!((0.45..0.55).contains(&frac), "RMW fraction {frac}");
        assert!(reads as f64 / 2000.0 > 0.95, "every op reads");
    }

    #[test]
    fn verification_catches_bad_data() {
        let db = MiniDb::new(RegionId(0), 100, 100);
        let mut w = Ycsb::new(YcsbKind::C, db, 10, Prng::seed_from(7));
        let mut last: Option<ReadSnapshot> = None;
        loop {
            let step = w.next(last.as_ref());
            last = None;
            match step {
                Step::Read { .. } => {
                    last = Some(ReadSnapshot::of(&PageData::Zero, 0, RECORD_HEADER_LEN));
                }
                Step::Finish => break,
                _ => {}
            }
        }
        assert_eq!(w.verify_failures(), 10);
    }

    #[test]
    fn hot_keys_repeat_under_zipfian() {
        let db = MiniDb::new(RegionId(0), 1000, 1000);
        let mut w = Ycsb::new(YcsbKind::C, db, 500, Prng::seed_from(8));
        let mut counts = std::collections::HashMap::new();
        let mut last: Option<ReadSnapshot> = None;
        loop {
            let step = w.next(last.as_ref());
            last = None;
            match step {
                Step::Read { offset, .. } => {
                    *counts.entry(offset / 4096).or_insert(0u64) += 1;
                    let mut page = PageData::Zero;
                    page.write(0, &record_header(offset / 4096, 0));
                    last = Some(ReadSnapshot::of(&page, 0, RECORD_HEADER_LEN));
                }
                Step::Finish => break,
                _ => {}
            }
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 10, "hottest key hit {max} times (zipfian skew)");
    }
}
