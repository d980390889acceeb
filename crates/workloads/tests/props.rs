//! Property tests of the workload generators: every step produced by
//! every workload is well-formed, in range, and deterministic per seed.
//!
//! Each property is a seeded loop: a [`Prng`] with the test's own fixed
//! seed draws every case's inputs, and each assertion names the case
//! index and those inputs, so a failure reproduces exactly.

use std::collections::BTreeMap;

use hwdp_mem::PageData;
use hwdp_sim::rng::Prng;
use hwdp_workloads::kvstore::record_header;
use hwdp_workloads::{
    DbBenchReadRandom, FioRandRead, MiniDb, ReadSnapshot, RegionId, ScratchChurn, Step, Workload,
    Ycsb, YcsbKind,
};

/// Cases per property: each one drives a whole workload.
const CASES: usize = 32;

/// A snapshot of a `len`-byte read at the start of a page that begins
/// with `prefix`.
fn read_of(prefix: &[u8], len: u32) -> ReadSnapshot {
    let mut page = PageData::Zero;
    page.write(0, prefix);
    ReadSnapshot::of(&page, 0, len as usize)
}

/// Drains a workload, answering every read with a correct record header,
/// and validates each step.
fn drive(w: &mut dyn Workload, region_pages: u64, max_steps: usize, ctx: &str) -> (u64, u64) {
    let mut last: Option<ReadSnapshot> = None;
    let mut reads = 0;
    let mut writes = 0;
    for _ in 0..max_steps {
        let step = w.next(last.as_ref());
        last = None;
        step.validate();
        match step {
            Step::Read { offset, len, .. } => {
                assert!(offset / 4096 < region_pages, "read beyond region; {ctx}");
                reads += 1;
                last = Some(read_of(&record_header(offset / 4096, 0), len));
            }
            Step::Write { offset, .. } => {
                assert!(offset / 4096 < region_pages, "write beyond region; {ctx}");
                writes += 1;
            }
            Step::Compute { instructions } => assert!(instructions > 0, "{ctx}"),
            Step::Finish => break,
        }
    }
    (reads, writes)
}

/// FIO: all accesses in range, deterministic, right op count.
#[test]
fn fio_wellformed() {
    let mut g = Prng::seed_from(0x3C_0001);
    for case in 0..CASES {
        let (seed, pages, ops) = (g.next_u64(), g.range(1, 4095), g.range(1, 199));
        let ctx = format!("case {case}: seed {seed:#x}, pages {pages}, ops {ops}");
        let mut a = FioRandRead::new(RegionId(0), pages, ops, Prng::seed_from(seed));
        let (reads, writes) = drive(&mut a, pages, 10_000, &ctx);
        assert_eq!(reads, ops, "{ctx}");
        assert_eq!(writes, 0, "{ctx}");
        assert_eq!(a.ops_done(), ops, "{ctx}");
        // Determinism: two instances with the same seed emit identical
        // streams.
        let mut b1 = FioRandRead::new(RegionId(0), pages, ops, Prng::seed_from(seed));
        let mut b2 = FioRandRead::new(RegionId(0), pages, ops, Prng::seed_from(seed));
        for _ in 0..(2 * ops + 1) {
            assert_eq!(b1.next(None), b2.next(None), "{ctx}");
        }
    }
}

/// Every YCSB kind produces only well-formed, in-range steps and
/// finishes with verification clean when fed correct data.
#[test]
fn ycsb_wellformed() {
    let mut g = Prng::seed_from(0x3C_0002);
    for case in 0..CASES {
        let (seed, kind, ops) = (g.next_u64(), YcsbKind::ALL[g.below(6) as usize], g.range(1, 149));
        let ctx = format!("case {case}: seed {seed:#x}, kind {kind:?}, ops {ops}");
        let records = 256u64;
        let capacity = 512u64;
        let db = MiniDb::new(RegionId(0), records, capacity);
        let mut w = Ycsb::new(kind, db, ops, Prng::seed_from(seed));
        let (reads, writes) = drive(&mut w, capacity, 100_000, &ctx);
        assert_eq!(w.ops_done(), ops, "{ctx}");
        assert_eq!(w.verify_failures(), 0, "{ctx}");
        match kind {
            YcsbKind::C => assert_eq!(writes, 0, "{ctx}"),
            YcsbKind::A | YcsbKind::F => assert!(writes > 0 || ops < 6, "{ctx}"),
            _ => {}
        }
        assert!(reads + writes >= ops, "every op touches the store; {ctx}");
    }
}

/// DBBench verifies clean against correct headers for any seed.
#[test]
fn dbbench_wellformed() {
    let mut g = Prng::seed_from(0x3C_0003);
    for case in 0..CASES {
        let (seed, ops) = (g.next_u64(), g.range(1, 149));
        let ctx = format!("case {case}: seed {seed:#x}, ops {ops}");
        let db = MiniDb::new(RegionId(0), 128, 128);
        let mut w = DbBenchReadRandom::new(db, ops, Prng::seed_from(seed));
        let (reads, _) = drive(&mut w, 128, 10_000, &ctx);
        assert_eq!(reads, ops, "{ctx}");
        assert_eq!(w.verify_failures(), 0, "{ctx}");
    }
}

/// ScratchChurn against a perfect memory model never reports failures
/// and its writes always follow a read of the same page.
#[test]
fn scratch_wellformed() {
    let mut g = Prng::seed_from(0x3C_0004);
    for case in 0..CASES {
        let (seed, pages, ops) = (g.next_u64(), g.range(1, 255), g.range(1, 149));
        let ctx = format!("case {case}: seed {seed:#x}, pages {pages}, ops {ops}");
        let mut w = ScratchChurn::new(RegionId(0), pages, ops, Prng::seed_from(seed));
        let mut mem: BTreeMap<u64, u64> = BTreeMap::new();
        let mut last: Option<ReadSnapshot> = None;
        loop {
            let step = w.next(last.as_ref());
            last = None;
            step.validate();
            match step {
                Step::Read { offset, len, .. } => {
                    let v = mem.get(&(offset / 4096)).copied().unwrap_or(0);
                    last = Some(read_of(&v.to_le_bytes(), len));
                }
                Step::Write { offset, data, .. } => {
                    mem.insert(offset / 4096, u64::from_le_bytes(data[..8].try_into().unwrap()));
                }
                Step::Compute { .. } => {}
                Step::Finish => break,
            }
        }
        assert_eq!(w.ops_done(), ops, "{ctx}");
        assert_eq!(w.verify_failures(), 0, "{ctx}");
    }
}
