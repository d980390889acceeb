//! Property-based tests of the paging substrate: page-table consistency
//! under random operation sequences, TLB coherence, and page-data
//! round-trips.

use hwdp_mem::addr::{BlockRef, DeviceId, Lba, PageData, Pfn, ReadSnapshot, SocketId, Vpn, PAGE_SIZE, PATCH_MAX};
use hwdp_mem::page_table::PageTable;
use hwdp_mem::pte::{Pte, PteClass, PteFlags};
use hwdp_mem::tlb::Tlb;
use proptest::prelude::*;

fn blk(l: u64) -> BlockRef {
    BlockRef::new(SocketId(0), DeviceId(0), Lba(l % (1 << 41)))
}

proptest! {
    /// For any set of hardware-completed pages, one kpted scan finds each
    /// exactly once and a second scan finds none.
    #[test]
    fn scan_finds_each_completed_page_once(vpns in prop::collection::hash_set(0u64..1u64 << 27, 1..60)) {
        let mut pt = PageTable::new();
        for &v in &vpns {
            pt.set_pte(Vpn(v), Pte::lba_augmented(blk(v), PteFlags::user_data()));
            let walk = pt.walk(Vpn(v)).expect("populated");
            pt.smu_complete(&walk, Pfn(v + 1));
        }
        let mut found = Vec::new();
        pt.scan_needs_sync(|vpn, pte| {
            found.push(vpn.0);
            pte.clear_lba_bit()
        });
        found.sort_unstable();
        let mut expect: Vec<u64> = vpns.iter().copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(found, expect);
        let again = pt.scan_needs_sync(|_, pte| pte);
        prop_assert_eq!(again.ptes_synced, 0);
    }

    /// set_pte / pte round-trips for arbitrary VPNs and PTE values, and
    /// never disturbs neighbours.
    #[test]
    fn set_get_isolated(pairs in prop::collection::btree_map(0u64..1u64 << 27, 0u64..1u64 << 40, 1..50)) {
        let mut pt = PageTable::new();
        for (&v, &pfn) in &pairs {
            pt.set_pte(Vpn(v), Pte::present(Pfn(pfn), PteFlags::user_data()));
        }
        for (&v, &pfn) in &pairs {
            prop_assert_eq!(pt.pte(Vpn(v)).pfn(), Some(Pfn(pfn)));
        }
        // A VPN not in the map is empty (probe a few derived ones).
        for &v in pairs.keys().take(5) {
            let probe = v ^ (1 << 26) | 1;
            if !pairs.contains_key(&probe) {
                prop_assert_eq!(pt.pte(Vpn(probe)), Pte::EMPTY);
            }
        }
    }

    /// The full lifecycle (augment → hw-complete → sync → evict) ends in
    /// the LbaAugmented state with the eviction block, for any inputs.
    #[test]
    fn lifecycle_ends_augmented(v in 0u64..1u64 << 27, pfn in 0u64..1u64 << 40, l1 in 0u64..1u64 << 41, l2 in 0u64..1u64 << 41) {
        let mut pt = PageTable::new();
        pt.set_pte(Vpn(v), Pte::lba_augmented(blk(l1), PteFlags::user_data()));
        let walk = pt.walk(Vpn(v)).expect("populated");
        pt.smu_complete(&walk, Pfn(pfn));
        pt.scan_needs_sync(|_, pte| pte.clear_lba_bit());
        pt.update_pte(Vpn(v), |p| p.evict_to(blk(l2)));
        let pte = pt.pte(Vpn(v));
        prop_assert_eq!(pte.class(), PteClass::LbaAugmented);
        prop_assert_eq!(pte.block(), Some(blk(l2)));
    }

    /// TLB: after any interleaving of fills and invalidates, a lookup
    /// returns exactly the last fill not followed by an invalidate.
    #[test]
    fn tlb_reflects_last_operation(ops in prop::collection::vec((0u64..64u64, 0u64..1000u64, prop::bool::ANY), 1..100)) {
        let mut tlb = Tlb::new(256, 4); // large enough to avoid capacity evictions
        let mut model = std::collections::HashMap::new();
        for (vpn, pfn, invalidate) in ops {
            if invalidate {
                tlb.invalidate(Vpn(vpn));
                model.remove(&vpn);
            } else {
                tlb.fill(Vpn(vpn), Pfn(pfn));
                model.insert(vpn, pfn);
            }
        }
        for (&vpn, &pfn) in &model {
            prop_assert_eq!(tlb.lookup(Vpn(vpn)), Some(Pfn(pfn)));
        }
    }

    /// PageData read/write round-trips at arbitrary offsets across all
    /// representations.
    #[test]
    fn page_data_roundtrip(seed: u64, offset in 0usize..4080, bytes in prop::collection::vec(any::<u8>(), 1..16)) {
        for base in [PageData::Zero, PageData::Pattern(seed)] {
            let mut page = base.clone();
            let len = bytes.len().min(4096 - offset);
            page.write(offset, &bytes[..len]);
            let mut back = vec![0u8; len];
            page.read(offset, &mut back);
            prop_assert_eq!(&back[..], &bytes[..len]);
            // Bytes before the write are unchanged.
            if offset > 0 {
                let mut orig = vec![0u8; offset];
                let mut now = vec![0u8; offset];
                base.read(0, &mut orig);
                page.read(0, &mut now);
                prop_assert_eq!(orig, now);
            }
        }
    }

    /// A pattern read at any offset and length, aligned or not, is that
    /// slice of a whole-page read. Each case also reads a short slice
    /// (under 16 bytes), which may end inside the lane it starts in. A
    /// snapshot of the same window, of a pattern, zero or explicit-bytes
    /// page, yields the same bytes as `PageData::read`.
    #[test]
    fn pattern_read_is_a_slice_of_the_page(seed: u64, offset in 0usize..4096, len in 0usize..4096) {
        let page = PageData::Pattern(seed);
        let mut whole = vec![0u8; 4096];
        page.read(0, &mut whole);
        let mut bytes = page.clone();
        bytes.write(offset, &[seed as u8 ^ 0x5A]);
        for len in [len, len % 16] {
            let len = len.min(4096 - offset);
            let mut part = vec![0u8; len];
            page.read(offset, &mut part);
            prop_assert_eq!(&part[..], &whole[offset..offset + len]);
            for p in [&page, &PageData::Zero, &bytes] {
                p.read(offset, &mut part);
                let mut lazy = vec![0u8; len];
                prop_assert_eq!(ReadSnapshot::of(p, offset, len).copy_to(&mut lazy), len);
                prop_assert_eq!(&lazy, &part);
            }
        }
    }

    /// Random write sequences on a zero page match a plain byte array
    /// after every write: reads, snapshots, checksums and equality. Most
    /// writes land near one base offset, so they overlap, abut or leave
    /// gaps, and the hull of the windows written so far crosses
    /// `PATCH_MAX` at a random point; the rest land anywhere. The page
    /// stays inline exactly while that hull fits.
    #[test]
    fn zero_page_writes_match_a_byte_array(
        base in 0usize..4096,
        writes in prop::collection::vec((0usize..80, 1usize..48, any::<u8>(), prop::bool::ANY), 1..24),
        probe in 0usize..4096,
    ) {
        let mut page = PageData::Zero;
        let mut reference = [0u8; PAGE_SIZE];
        let mut hull = (PAGE_SIZE, 0);
        for (delta, len, byte, far) in writes {
            let at = if far { delta * 51 } else { base.saturating_sub(40) + delta };
            let at = at.min(PAGE_SIZE - len);
            let data: Vec<u8> = (0..len).map(|i| if byte % 4 == 0 { 0 } else { byte ^ i as u8 }).collect();
            page.write(at, &data);
            reference[at..at + len].copy_from_slice(&data);
            hull = (hull.0.min(at), hull.1.max(at + len));
            prop_assert_eq!(page.is_materialized(), hull.1 - hull.0 > PATCH_MAX);
            let near = at.saturating_sub(8);
            let probe_len = (probe % 64).min(PAGE_SIZE - probe);
            for (offset, len) in [(0, PAGE_SIZE), (near, (len + 16).min(PAGE_SIZE - near)), (probe, probe_len)] {
                let mut read = vec![0xEEu8; len];
                page.read(offset, &mut read);
                prop_assert_eq!(&read[..], &reference[offset..offset + len]);
                let mut lazy = vec![0xEEu8; len];
                prop_assert_eq!(ReadSnapshot::of(&page, offset, len).copy_to(&mut lazy), len);
                prop_assert_eq!(&lazy[..], &reference[offset..offset + len]);
            }
            let explicit = PageData::Bytes(Box::new(reference));
            prop_assert_eq!(page.checksum(), explicit.checksum());
            prop_assert_eq!(&page, &explicit);
        }
    }

    /// Checksums are representation-independent and sensitive to content.
    #[test]
    fn checksum_consistency(seed: u64, offset in 0usize..4088) {
        let pat = PageData::Pattern(seed);
        let mut materialized = PageData::Pattern(seed);
        materialized.materialize();
        prop_assert_eq!(pat.checksum(), materialized.checksum());
        let mut changed = pat.clone();
        let mut b = [0u8; 1];
        changed.read(offset, &mut b);
        changed.write(offset, &[b[0] ^ 0xFF]);
        prop_assert_ne!(changed.checksum(), pat.checksum());
    }
}
