//! Property tests of the OS model: extent-allocation disjointness,
//! page-cache/clock invariants, and reclaim consistency.
//!
//! Each property is a seeded loop: a [`Prng`] with the test's own fixed
//! seed draws every case's inputs, and each assertion names the case
//! index and those inputs, so a failure reproduces exactly.

use std::collections::BTreeSet;

use hwdp_mem::addr::{DeviceId, Pfn, SocketId};
use hwdp_mem::pte::PteClass;
use hwdp_os::fs::{FileId, MiniFs};
use hwdp_os::kernel::Os;
use hwdp_os::page_cache::PageCache;
use hwdp_os::vma::MmapFlags;
use hwdp_sim::Prng;

/// Cases per property.
const CASES: usize = 256;

/// Files never share blocks, whatever their sizes.
#[test]
fn fs_extents_disjoint() {
    let mut g = Prng::seed_from(0x05_0001);
    for case in 0..CASES {
        let n = g.range(1, 19);
        let sizes: Vec<u64> = (0..n).map(|_| g.range(1, 63)).collect();
        let mut fs = MiniFs::new();
        fs.register_device(SocketId(0), DeviceId(0), 4096);
        let mut seen = BTreeSet::new();
        for (i, &pages) in sizes.iter().enumerate() {
            let f = fs.create(&format!("f{i}"), SocketId(0), DeviceId(0), 1, pages);
            for p in 0..pages {
                assert!(
                    seen.insert(fs.lba_of(f, p).0),
                    "case {case}: block reused across files (file {i}, page {p}, sizes {sizes:?})"
                );
            }
        }
    }
}

/// Remapping pages always yields fresh, never-seen blocks and updates
/// the mapping.
#[test]
fn fs_remap_unique() {
    let mut g = Prng::seed_from(0x05_0002);
    for case in 0..CASES {
        let pages = g.range(1, 31);
        let n = g.range(1, 39);
        let remaps: Vec<u64> = (0..n).map(|_| g.below(32)).collect();
        let ctx = format!("case {case}: pages {pages}, remaps {remaps:?}");
        let mut fs = MiniFs::new();
        fs.register_device(SocketId(0), DeviceId(0), 4096);
        let f = fs.create("f", SocketId(0), DeviceId(0), 1, pages);
        let mut issued: BTreeSet<u64> = (0..pages).map(|p| fs.lba_of(f, p).0).collect();
        for &r in &remaps {
            let page = r % pages;
            let (old, new, _) = fs.remap_page(f, page);
            assert_ne!(old, new, "{ctx}");
            assert!(issued.insert(new.0), "remap produced a reused block; {ctx}");
            assert_eq!(fs.lba_of(f, page), new, "{ctx}");
        }
    }
}

/// The clock never evicts a page that the referenced-callback vouched
/// for in the same sweep, and every victim was actually cached.
#[test]
fn clock_respects_references() {
    let mut g = Prng::seed_from(0x05_0003);
    for case in 0..CASES {
        let n = g.range(1, 39) as usize;
        let size = g.below(10) as usize;
        let mut protected = BTreeSet::new();
        while protected.len() < size {
            protected.insert(g.below(40));
        }
        let ctx = format!("case {case}: n {n}, protected {protected:?}");
        let mut pc = PageCache::new();
        for p in 0..n as u64 {
            pc.insert(FileId(0), p, Pfn(p), None);
        }
        let victims = pc.select_victims(n, |_, page, _| protected.contains(&page));
        for v in &victims {
            assert!(!protected.contains(&v.page), "protected page {} evicted; {ctx}", v.page);
        }
        // Protected pages (within range) are still cached.
        for &p in protected.iter().filter(|&&p| (p as usize) < n) {
            assert!(pc.lookup(FileId(0), p).is_some(), "page {p} dropped; {ctx}");
        }
    }
}

/// Under random map/reclaim churn the kernel never double-frees and
/// the page table never disagrees with the cache: a cached page's PTE
/// is present at the recorded frame.
#[test]
fn kernel_cache_pte_agreement() {
    let mut g = Prng::seed_from(0x05_0004);
    for case in 0..CASES {
        let n = g.range(1, 119);
        let accesses: Vec<u64> = (0..n).map(|_| g.below(96)).collect();
        let ctx = format!("case {case}: accesses {accesses:?}");
        let mut os = Os::new(64);
        os.fs.register_device(SocketId(0), DeviceId(0), 1024);
        let f = os.fs.create("data", SocketId(0), DeviceId(0), 1, 96);
        let (_, vma) = os.mmap(f, MmapFlags::fast());
        for &page in &accesses {
            let vpn = vma.base.add(page);
            let pte = os.page_table.pte(vpn);
            match pte.class() {
                PteClass::LbaAugmented => {
                    // Simulate a hardware miss completing.
                    let (pfn, _evictions) = os.alloc_frame().unwrap();
                    let walk = os.page_table.walk(vpn).unwrap();
                    os.page_table.smu_complete(&walk, pfn);
                }
                PteClass::Resident | PteClass::ResidentNeedsSync => {}
                PteClass::NotPresentOsHandled => {
                    // Evicted earlier by the normal-path rewrite — fine.
                }
            }
            // Occasionally sync metadata.
            if page % 7 == 0 {
                os.kpted_scan();
            }
        }
        os.kpted_scan();
        // Invariant: every cached page's PTE points at the cached frame.
        let mut checked = 0;
        for page in 0..96u64 {
            if let Some(pfn) = os.cache.lookup(f, page) {
                let vpn = vma.base.add(page);
                assert_eq!(os.page_table.pte(vpn).pfn(), Some(pfn), "page {page}; {ctx}");
                checked += 1;
            }
        }
        assert!(checked <= 64, "cannot cache more pages than frames; {ctx}");
    }
}
