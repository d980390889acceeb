//! Property tests of the SMU: PMSHR conservation and coalescing,
//! free-queue SPSC semantics, and area-model monotonicity.
//!
//! Each property is a seeded loop: a [`Prng`] with the test's own fixed
//! seed draws every case's inputs, and each assertion names the case
//! index and those inputs, so a failure reproduces exactly.

use std::collections::BTreeMap;

use hwdp_mem::addr::{BlockRef, DeviceId, Lba, Pfn, PhysAddr, SocketId, Vpn};
use hwdp_mem::page_table::PageTable;
use hwdp_mem::pte::{Pte, PteFlags};
use hwdp_sim::Prng;
use hwdp_smu::area::SmuArea;
use hwdp_smu::free_queue::{FreePage, FreePageQueue};
use hwdp_smu::pmshr::{Pmshr, Presented};

/// Cases per property.
const CASES: usize = 256;

fn blk(l: u64) -> BlockRef {
    BlockRef::new(SocketId(0), DeviceId(0), Lba(l % (1 << 41)))
}

/// PMSHR: for any request stream, requests to the same page coalesce
/// (one entry), distinct pages get distinct entries, occupancy equals
/// live entries, invalidation returns all registered waiters, and a
/// freed slot neither frees twice nor stays taken.
#[test]
fn pmshr_conservation() {
    let mut g = Prng::seed_from(0x5A_0001);
    for case in 0..CASES {
        let n = g.range(1, 63);
        let pages: Vec<u64> = (0..n).map(|_| g.below(16)).collect();
        let ctx = format!("case {case}: pages {pages:?}");
        let mut pt = PageTable::new();
        for p in 0..16u64 {
            pt.set_pte(Vpn(p), Pte::lba_augmented(blk(p), PteFlags::user_data()));
        }
        let mut pmshr = Pmshr::new(16);
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut entry_of = BTreeMap::new();
        for (waiter, &page) in pages.iter().enumerate() {
            let walk = pt.walk(Vpn(page)).unwrap();
            match pmshr.present(walk, blk(page), waiter as u64).unwrap() {
                Presented::Allocated(idx) => {
                    assert!(!model.contains_key(&page), "fresh page {page} allocates once; {ctx}");
                    entry_of.insert(page, idx);
                    model.entry(page).or_default().push(waiter as u64);
                }
                Presented::Coalesced(idx) => {
                    assert_eq!(entry_of[&page], idx, "page {page} coalesces onto the same entry; {ctx}");
                    model.get_mut(&page).unwrap().push(waiter as u64);
                }
            }
        }
        assert_eq!(pmshr.occupancy() as usize, model.len(), "{ctx}");
        for (page, idx) in entry_of {
            let entry = pmshr.invalidate(idx).expect("live entry invalidates");
            assert_eq!(&entry.waiters, &model[&page], "page {page}: waiters preserved in order; {ctx}");
            assert!(pmshr.invalidate(idx).is_none(), "page {page}: a slot frees once; {ctx}");
        }
        assert_eq!(pmshr.occupancy(), 0, "{ctx}");
        // Every slot is free again, so all 16 pages allocate afresh.
        for page in 0..16u64 {
            let walk = pt.walk(Vpn(page)).unwrap();
            let presented = pmshr.present(walk, blk(page), page).unwrap();
            assert!(
                matches!(presented, Presented::Allocated(_)),
                "page {page} reuses a freed slot; {ctx}"
            );
        }
        assert_eq!(pmshr.occupancy(), 16, "{ctx}");
    }
}

/// Free queue: strict FIFO across any interleaving of pushes, fetches
/// and prefetch refills; nothing lost, nothing duplicated.
#[test]
fn free_queue_fifo() {
    let mut g = Prng::seed_from(0x5A_0002);
    for case in 0..CASES {
        let n = g.range(1, 199);
        let ops: Vec<u8> = (0..n).map(|_| g.below(3) as u8).collect();
        let ctx = format!("case {case}: ops {ops:?}");
        let mut q = FreePageQueue::new(64, 8);
        let mut pushed = 0u64;
        let mut fetched = 0u64;
        for &op in &ops {
            match op {
                0 => {
                    if q.push(FreePage::of(Pfn(pushed))) {
                        pushed += 1;
                    }
                }
                1 => {
                    if let Some((page, _)) = q.fetch() {
                        assert_eq!(page.pfn, Pfn(fetched), "FIFO order; {ctx}");
                        assert_eq!(page.dma, PhysAddr(fetched * 4096), "{ctx}");
                        fetched += 1;
                    }
                }
                _ => {
                    q.refill_prefetch();
                }
            }
        }
        while let Some((page, _)) = q.fetch() {
            assert_eq!(page.pfn, Pfn(fetched), "{ctx}");
            fetched += 1;
        }
        assert_eq!(fetched, pushed, "conservation; {ctx}");
        assert_eq!(q.stats().pops, pushed, "{ctx}");
    }
}

/// Area model: monotone in every structural parameter and always a
/// negligible die fraction for sane sizes.
#[test]
fn area_monotone() {
    let mut g = Prng::seed_from(0x5A_0003);
    for case in 0..CASES {
        let (p1, p2) = (g.range(1, 255) as usize, g.range(1, 255) as usize);
        let (d, pf) = (g.range(1, 7) as usize, g.range(1, 63) as usize);
        let ctx = format!("case {case}: pmshr {p1}/{p2}, depth {d}, prefetch {pf}");
        let (small, big) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = SmuArea::estimate(small, d, pf);
        let b = SmuArea::estimate(big, d, pf);
        assert!(b.total() >= a.total(), "{ctx}");
        assert!(a.die_fraction() < 0.01, "{ctx}");
        let (pm, rg, pb, mi) = a.shares();
        assert!((pm + rg + pb + mi - 1.0).abs() < 1e-9, "shares sum to 1; {ctx}");
    }
}
