//! Property-based tests of the workload generators: every step produced by
//! every workload is well-formed, in range, and deterministic per seed.

use hwdp_mem::PageData;
use hwdp_sim::rng::Prng;
use hwdp_workloads::kvstore::record_header;
use hwdp_workloads::{
    DbBenchReadRandom, FioRandRead, MiniDb, ReadSnapshot, RegionId, ScratchChurn, Step, Workload,
    Ycsb, YcsbKind,
};

/// A snapshot of a `len`-byte read at the start of a page that begins
/// with `prefix`.
fn read_of(prefix: &[u8], len: u32) -> ReadSnapshot {
    let mut page = PageData::Zero;
    page.write(0, prefix);
    ReadSnapshot::of(&page, 0, len as usize)
}
use proptest::prelude::*;

/// Drains a workload, answering every read with a correct record header,
/// and validates each step.
fn drive(w: &mut dyn Workload, region_pages: u64, max_steps: usize) -> (u64, u64) {
    let mut last: Option<ReadSnapshot> = None;
    let mut reads = 0;
    let mut writes = 0;
    for _ in 0..max_steps {
        let step = w.next(last.as_ref());
        last = None;
        step.validate();
        match step {
            Step::Read { offset, len, .. } => {
                assert!(offset / 4096 < region_pages, "read beyond region");
                reads += 1;
                last = Some(read_of(&record_header(offset / 4096, 0), len));
            }
            Step::Write { offset, .. } => {
                assert!(offset / 4096 < region_pages, "write beyond region");
                writes += 1;
            }
            Step::Compute { instructions } => assert!(instructions > 0),
            Step::Finish => break,
        }
    }
    (reads, writes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FIO: all accesses in range, deterministic, right op count.
    #[test]
    fn fio_wellformed(seed: u64, pages in 1u64..4096, ops in 1u64..200) {
        let mut a = FioRandRead::new(RegionId(0), pages, ops, Prng::seed_from(seed));
        let (reads, writes) = drive(&mut a, pages, 10_000);
        prop_assert_eq!(reads, ops);
        prop_assert_eq!(writes, 0);
        prop_assert_eq!(a.ops_done(), ops);
        // Determinism: two instances with the same seed emit identical
        // streams.
        let mut b1 = FioRandRead::new(RegionId(0), pages, ops, Prng::seed_from(seed));
        let mut b2 = FioRandRead::new(RegionId(0), pages, ops, Prng::seed_from(seed));
        for _ in 0..(2 * ops + 1) {
            prop_assert_eq!(b1.next(None), b2.next(None));
        }
    }

    /// Every YCSB kind produces only well-formed, in-range steps and
    /// finishes with verification clean when fed correct data.
    #[test]
    fn ycsb_wellformed(seed: u64, kind_idx in 0usize..6, ops in 1u64..150) {
        let kind = YcsbKind::ALL[kind_idx];
        let records = 256u64;
        let capacity = 512u64;
        let db = MiniDb::new(RegionId(0), records, capacity);
        let mut w = Ycsb::new(kind, db, ops, Prng::seed_from(seed));
        let (reads, writes) = drive(&mut w, capacity, 100_000);
        prop_assert_eq!(w.ops_done(), ops);
        prop_assert_eq!(w.verify_failures(), 0);
        match kind {
            YcsbKind::C => prop_assert_eq!(writes, 0),
            YcsbKind::A | YcsbKind::F => prop_assert!(writes > 0 || ops < 6),
            _ => {}
        }
        prop_assert!(reads + writes >= ops, "every op touches the store");
    }

    /// DBBench verifies clean against correct headers for any seed.
    #[test]
    fn dbbench_wellformed(seed: u64, ops in 1u64..150) {
        let db = MiniDb::new(RegionId(0), 128, 128);
        let mut w = DbBenchReadRandom::new(db, ops, Prng::seed_from(seed));
        let (reads, _) = drive(&mut w, 128, 10_000);
        prop_assert_eq!(reads, ops);
        prop_assert_eq!(w.verify_failures(), 0);
    }

    /// ScratchChurn against a perfect memory model never reports failures
    /// and its writes always follow a read of the same page.
    #[test]
    fn scratch_wellformed(seed: u64, pages in 1u64..256, ops in 1u64..150) {
        let mut w = ScratchChurn::new(RegionId(0), pages, ops, Prng::seed_from(seed));
        let mut mem: std::collections::HashMap<u64, u64> = Default::default();
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
        prop_assert_eq!(w.ops_done(), ops);
        prop_assert_eq!(w.verify_failures(), 0);
    }
}

