//! Property tests of the paging substrate: page-table consistency under
//! random operation sequences, TLB coherence, and page-data round-trips.
//!
//! Each property is a seeded loop: a [`Prng`] with the test's own fixed
//! seed draws every case's inputs, and each assertion names the case
//! index and those inputs, so a failure reproduces exactly.

use std::collections::{BTreeMap, BTreeSet};

use hwdp_mem::addr::{BlockRef, DeviceId, Lba, PageData, Pfn, ReadSnapshot, SocketId, Vpn, PAGE_SIZE, PATCH_MAX};
use hwdp_mem::page_table::PageTable;
use hwdp_mem::pte::{Pte, PteClass, PteFlags};
use hwdp_mem::tlb::Tlb;
use hwdp_sim::Prng;

/// Cases per property.
const CASES: usize = 256;

fn blk(l: u64) -> BlockRef {
    BlockRef::new(SocketId(0), DeviceId(0), Lba(l % (1 << 41)))
}

/// For any set of hardware-completed pages, one kpted scan finds each
/// exactly once and a second scan finds none.
#[test]
fn scan_finds_each_completed_page_once() {
    let mut g = Prng::seed_from(0x3E_0001);
    for case in 0..CASES {
        let n = g.range(1, 59) as usize;
        let mut vpns = BTreeSet::new();
        while vpns.len() < n {
            vpns.insert(g.below(1 << 27));
        }
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
        let expect: Vec<u64> = vpns.iter().copied().collect();
        assert_eq!(found, expect, "case {case}");
        let again = pt.scan_needs_sync(|_, pte| pte);
        assert_eq!(again.ptes_synced, 0, "case {case}: vpns {vpns:?}");
    }
}

/// set_pte / pte round-trips for arbitrary VPNs and PTE values, and
/// never disturbs neighbours.
#[test]
fn set_get_isolated() {
    let mut g = Prng::seed_from(0x3E_0002);
    for case in 0..CASES {
        let n = g.range(1, 49) as usize;
        let mut pairs = BTreeMap::new();
        while pairs.len() < n {
            pairs.insert(g.below(1 << 27), g.below(1 << 40));
        }
        let mut pt = PageTable::new();
        for (&v, &pfn) in &pairs {
            pt.set_pte(Vpn(v), Pte::present(Pfn(pfn), PteFlags::user_data()));
        }
        for (&v, &pfn) in &pairs {
            assert_eq!(pt.pte(Vpn(v)).pfn(), Some(Pfn(pfn)), "case {case}: vpn {v} in {pairs:?}");
        }
        // A VPN not in the map is empty (probe a few derived ones).
        for &v in pairs.keys().take(5) {
            let probe = v ^ (1 << 26) | 1;
            if !pairs.contains_key(&probe) {
                assert_eq!(pt.pte(Vpn(probe)), Pte::EMPTY, "case {case}: probe {probe} in {pairs:?}");
            }
        }
    }
}

/// The full lifecycle (augment → hw-complete → sync → evict) ends in
/// the LbaAugmented state with the eviction block, for any inputs.
#[test]
fn lifecycle_ends_augmented() {
    let mut g = Prng::seed_from(0x3E_0003);
    for case in 0..CASES {
        let (v, pfn) = (g.below(1 << 27), g.below(1 << 40));
        let (l1, l2) = (g.below(1 << 41), g.below(1 << 41));
        let ctx = format!("case {case}: vpn {v}, pfn {pfn}, lba {l1} -> {l2}");
        let mut pt = PageTable::new();
        pt.set_pte(Vpn(v), Pte::lba_augmented(blk(l1), PteFlags::user_data()));
        let walk = pt.walk(Vpn(v)).expect("populated");
        pt.smu_complete(&walk, Pfn(pfn));
        pt.scan_needs_sync(|_, pte| pte.clear_lba_bit());
        pt.update_pte(Vpn(v), |p| p.evict_to(blk(l2)));
        let pte = pt.pte(Vpn(v));
        assert_eq!(pte.class(), PteClass::LbaAugmented, "{ctx}");
        assert_eq!(pte.block(), Some(blk(l2)), "{ctx}");
    }
}

/// TLB: after any interleaving of fills and invalidates, a lookup
/// returns exactly the last fill not followed by an invalidate.
#[test]
fn tlb_reflects_last_operation() {
    let mut g = Prng::seed_from(0x3E_0004);
    for case in 0..CASES {
        let n = g.range(1, 99);
        let ops: Vec<(u64, u64, bool)> = (0..n).map(|_| (g.below(64), g.below(1000), g.chance(0.5))).collect();
        let mut tlb = Tlb::new(256, 4); // large enough to avoid capacity evictions
        let mut model = BTreeMap::new();
        for &(vpn, pfn, invalidate) in &ops {
            if invalidate {
                tlb.invalidate(Vpn(vpn));
                model.remove(&vpn);
            } else {
                tlb.fill(Vpn(vpn), Pfn(pfn));
                model.insert(vpn, pfn);
            }
        }
        for (&vpn, &pfn) in &model {
            assert_eq!(tlb.lookup(Vpn(vpn)), Some(Pfn(pfn)), "case {case}: vpn {vpn} after {ops:?}");
        }
    }
}

/// PageData read/write round-trips at arbitrary offsets across all
/// representations.
#[test]
fn page_data_roundtrip() {
    let mut g = Prng::seed_from(0x3E_0005);
    for case in 0..CASES {
        let (seed, offset) = (g.next_u64(), g.below(4080) as usize);
        let n = g.range(1, 15);
        let bytes: Vec<u8> = (0..n).map(|_| g.next_u64() as u8).collect();
        let ctx = format!("case {case}: seed {seed:#x}, offset {offset}, bytes {bytes:?}");
        for base in [PageData::Zero, PageData::Pattern(seed)] {
            let mut page = base.clone();
            let len = bytes.len().min(4096 - offset);
            page.write(offset, &bytes[..len]);
            let mut back = vec![0u8; len];
            page.read(offset, &mut back);
            assert_eq!(&back[..], &bytes[..len], "{ctx}");
            // Bytes before the write are unchanged.
            if offset > 0 {
                let mut orig = vec![0u8; offset];
                let mut now = vec![0u8; offset];
                base.read(0, &mut orig);
                page.read(0, &mut now);
                assert_eq!(orig, now, "{ctx}");
            }
        }
    }
}

/// A pattern read at any offset and length, aligned or not, is that
/// slice of a whole-page read. Each case also reads a short slice
/// (under 16 bytes), which may end inside the lane it starts in. A
/// snapshot of the same window, of a pattern, zero or explicit-bytes
/// page, yields the same bytes as `PageData::read`.
#[test]
fn pattern_read_is_a_slice_of_the_page() {
    let mut g = Prng::seed_from(0x3E_0006);
    for case in 0..CASES {
        let (seed, offset, len) = (g.next_u64(), g.below(4096) as usize, g.below(4096) as usize);
        let ctx = format!("case {case}: seed {seed:#x}, offset {offset}, len {len}");
        let page = PageData::Pattern(seed);
        let mut whole = vec![0u8; 4096];
        page.read(0, &mut whole);
        let mut bytes = page.clone();
        bytes.write(offset, &[seed as u8 ^ 0x5A]);
        for len in [len, len % 16] {
            let len = len.min(4096 - offset);
            let mut part = vec![0u8; len];
            page.read(offset, &mut part);
            assert_eq!(&part[..], &whole[offset..offset + len], "{ctx}");
            for p in [&page, &PageData::Zero, &bytes] {
                p.read(offset, &mut part);
                let mut lazy = vec![0u8; len];
                assert_eq!(ReadSnapshot::of(p, offset, len).copy_to(&mut lazy), len, "{ctx}");
                assert_eq!(&lazy, &part, "{ctx}");
            }
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
fn zero_page_writes_match_a_byte_array() {
    let mut g = Prng::seed_from(0x3E_0007);
    for case in 0..CASES {
        let base = g.below(4096) as usize;
        let n = g.range(1, 23);
        let writes: Vec<(usize, usize, u8, bool)> = (0..n)
            .map(|_| (g.below(80) as usize, g.range(1, 47) as usize, g.next_u64() as u8, g.chance(0.5)))
            .collect();
        let probe = g.below(4096) as usize;
        let ctx = format!("case {case}: base {base}, probe {probe}, writes {writes:?}");
        let mut page = PageData::Zero;
        let mut reference = [0u8; PAGE_SIZE];
        let mut hull = (PAGE_SIZE, 0);
        for &(delta, len, byte, far) in &writes {
            let at = if far { delta * 51 } else { base.saturating_sub(40) + delta };
            let at = at.min(PAGE_SIZE - len);
            let data: Vec<u8> = (0..len).map(|i| if byte % 4 == 0 { 0 } else { byte ^ i as u8 }).collect();
            page.write(at, &data);
            reference[at..at + len].copy_from_slice(&data);
            hull = (hull.0.min(at), hull.1.max(at + len));
            assert_eq!(page.is_materialized(), hull.1 - hull.0 > PATCH_MAX, "{ctx}");
            let near = at.saturating_sub(8);
            let probe_len = (probe % 64).min(PAGE_SIZE - probe);
            for (offset, len) in [(0, PAGE_SIZE), (near, (len + 16).min(PAGE_SIZE - near)), (probe, probe_len)] {
                let mut read = vec![0xEEu8; len];
                page.read(offset, &mut read);
                assert_eq!(&read[..], &reference[offset..offset + len], "{ctx}");
                let mut lazy = vec![0xEEu8; len];
                assert_eq!(ReadSnapshot::of(&page, offset, len).copy_to(&mut lazy), len, "{ctx}");
                assert_eq!(&lazy[..], &reference[offset..offset + len], "{ctx}");
            }
            let explicit = PageData::Bytes(Box::new(reference));
            assert_eq!(page.checksum(), explicit.checksum(), "{ctx}");
            assert_eq!(&page, &explicit, "{ctx}");
        }
    }
}

/// Checksums are representation-independent and sensitive to content.
#[test]
fn checksum_consistency() {
    let mut g = Prng::seed_from(0x3E_0008);
    for case in 0..CASES {
        let (seed, offset) = (g.next_u64(), g.below(4088) as usize);
        let pat = PageData::Pattern(seed);
        let mut materialized = PageData::Pattern(seed);
        materialized.materialize();
        assert_eq!(pat.checksum(), materialized.checksum(), "case {case}: seed {seed:#x}");
        let mut changed = pat.clone();
        let mut b = [0u8; 1];
        changed.read(offset, &mut b);
        changed.write(offset, &[b[0] ^ 0xFF]);
        assert_ne!(changed.checksum(), pat.checksum(), "case {case}: seed {seed:#x}, offset {offset}");
    }
}
