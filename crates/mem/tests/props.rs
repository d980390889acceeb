//! Property tests of the paging substrate: page-table consistency under
//! random operation sequences, TLB coherence, and page-data round-trips.
//!
//! Each property is a seeded loop: a [`Prng`] with the test's own fixed
//! seed draws every case's inputs, and each assertion names the case
//! index and those inputs, so a failure reproduces exactly.

use std::collections::{BTreeMap, BTreeSet};

use hwdp_mem::addr::{
    BlockRef, DeviceId, Lba, PageData, Pfn, PhysAddr, ReadSnapshot, SocketId, Vpn, PAGE_SIZE, PATCH_MAX,
};
use hwdp_mem::page_table::{PageTable, ScanStats, WalkResult};
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

/// The page table without its host-side shortcuts: every access descends
/// three levels, and every scan loops over all 512 slots of each level.
/// Tables are allocated in the same order as [`PageTable`]'s, so entry
/// addresses (the PMSHR key) agree as well as PTEs.
struct ModelTable {
    /// `(entries, children)` per table; the PGD is table 0.
    tables: Vec<(Vec<Pte>, Vec<u32>)>,
}

impl ModelTable {
    const NONE: u32 = u32::MAX;
    const BASE: u64 = 1 << 40;

    fn new() -> Self {
        ModelTable { tables: vec![(vec![Pte::EMPTY; 512], vec![Self::NONE; 512])] }
    }

    fn addr(t: u32, i: usize) -> PhysAddr {
        PhysAddr(Self::BASE + t as u64 * 4096 + i as u64 * 8)
    }

    fn split(a: PhysAddr) -> (usize, usize) {
        let off = a.0 - Self::BASE;
        ((off / 4096) as usize, (off % 4096 / 8) as usize)
    }

    fn child(&mut self, t: u32, i: usize) -> u32 {
        if self.tables[t as usize].1[i] == Self::NONE {
            let new = self.tables.len() as u32;
            self.tables.push((vec![Pte::EMPTY; 512], vec![Self::NONE; 512]));
            self.tables[t as usize].1[i] = new;
        }
        self.tables[t as usize].1[i]
    }

    fn result(&self, vpn: Vpn, (pud, pmd, pt): (u32, u32, u32)) -> WalkResult {
        let (_, pud_i, pmd_i, pt_i) = vpn.indices();
        WalkResult {
            pte: self.tables[pt as usize].0[pt_i],
            pud_addr: Self::addr(pud, pud_i),
            pmd_addr: Self::addr(pmd, pmd_i),
            pte_addr: Self::addr(pt, pt_i),
        }
    }

    fn populate(&mut self, vpn: Vpn) -> WalkResult {
        let (pgd_i, pud_i, pmd_i, _) = vpn.indices();
        let pud = self.child(0, pgd_i);
        let pmd = self.child(pud, pud_i);
        let pt = self.child(pmd, pmd_i);
        self.result(vpn, (pud, pmd, pt))
    }

    fn walk(&self, vpn: Vpn) -> Option<WalkResult> {
        let (pgd_i, pud_i, pmd_i, _) = vpn.indices();
        let pud = Some(self.tables[0].1[pgd_i]).filter(|&t| t != Self::NONE)?;
        let pmd = Some(self.tables[pud as usize].1[pud_i]).filter(|&t| t != Self::NONE)?;
        let pt = Some(self.tables[pmd as usize].1[pmd_i]).filter(|&t| t != Self::NONE)?;
        Some(self.result(vpn, (pud, pmd, pt)))
    }

    fn leaf_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        let (t, i) = Self::split(self.walk(vpn)?.pte_addr);
        Some(&mut self.tables[t].0[i])
    }

    fn set_pte(&mut self, vpn: Vpn, pte: Pte) {
        let (t, i) = Self::split(self.populate(vpn).pte_addr);
        self.tables[t].0[i] = pte;
    }

    fn smu_complete(&mut self, w: &WalkResult, pfn: Pfn) -> Pte {
        let (t, i) = Self::split(w.pte_addr);
        let new = self.tables[t].0[i].complete_hw_miss(pfn);
        self.tables[t].0[i] = new;
        for a in [w.pmd_addr, w.pud_addr] {
            let (t, i) = Self::split(a);
            self.tables[t].0[i] = Pte(self.tables[t].0[i].0 | 1 << 10);
        }
        new
    }

    fn read_entry(&self, a: PhysAddr) -> Pte {
        if a.0 < Self::BASE {
            return Pte::EMPTY;
        }
        let (t, i) = Self::split(a);
        self.tables[t].0[i]
    }

    /// Every populated `(pgd, pud)` slot pair with its PUD and PMD tables,
    /// in ascending order, found by looping over all 512 slots per level.
    fn pmd_tables(&self) -> Vec<(usize, usize, usize, usize)> {
        let mut out = Vec::new();
        for pgd_i in 0..512 {
            let pud = self.tables[0].1[pgd_i];
            if pud == Self::NONE {
                continue;
            }
            for pud_i in 0..512 {
                let pmd = self.tables[pud as usize].1[pud_i];
                if pmd != Self::NONE {
                    out.push((pgd_i, pud_i, pud as usize, pmd as usize));
                }
            }
        }
        out
    }

    fn scan_needs_sync(&mut self, mut sync: impl FnMut(Vpn, Pte) -> Pte) -> ScanStats {
        let mut stats = ScanStats::default();
        for (pgd_i, pud_i, pud, pmd) in self.pmd_tables() {
            stats.entries_examined += 1;
            let pud_e = self.tables[pud].0[pud_i];
            if !pud_e.lba_bit() {
                stats.tables_skipped += 1;
                continue;
            }
            self.tables[pud].0[pud_i] = pud_e.clear_lba_bit();
            for pmd_i in 0..512 {
                let pt = self.tables[pmd].1[pmd_i];
                if pt == Self::NONE {
                    continue;
                }
                stats.entries_examined += 1;
                let pmd_e = self.tables[pmd].0[pmd_i];
                if !pmd_e.lba_bit() {
                    stats.tables_skipped += 1;
                    continue;
                }
                self.tables[pmd].0[pmd_i] = pmd_e.clear_lba_bit();
                for pt_i in 0..512 {
                    stats.entries_examined += 1;
                    let pte = self.tables[pt as usize].0[pt_i];
                    if pte.class() == PteClass::ResidentNeedsSync {
                        self.tables[pt as usize].0[pt_i] = sync(leaf_vpn(pgd_i, pud_i, pmd_i, pt_i), pte);
                        stats.ptes_synced += 1;
                    }
                }
            }
        }
        stats
    }

    fn for_each_pte(&self, mut f: impl FnMut(Vpn, Pte)) {
        for (pgd_i, pud_i, _, pmd) in self.pmd_tables() {
            for pmd_i in 0..512 {
                let pt = self.tables[pmd].1[pmd_i];
                if pt == Self::NONE {
                    continue;
                }
                for pt_i in 0..512 {
                    let pte = self.tables[pt as usize].0[pt_i];
                    if pte != Pte::EMPTY {
                        f(leaf_vpn(pgd_i, pud_i, pmd_i, pt_i), pte);
                    }
                }
            }
        }
    }
}

fn leaf_vpn(pgd_i: usize, pud_i: usize, pmd_i: usize, pt_i: usize) -> Vpn {
    Vpn(((pgd_i as u64) << 27) | ((pud_i as u64) << 18) | ((pmd_i as u64) << 9) | pt_i as u64)
}

fn walk_key(w: &WalkResult) -> (Pte, PhysAddr, PhysAddr, PhysAddr) {
    (w.pte, w.pud_addr, w.pmd_addr, w.pte_addr)
}

/// A VPN near one of `bases`: within a few pages of it, or across the
/// PMD (512 pages), PUD (2^18) or PGD (2^27) boundary nearest it.
fn near_vpn(g: &mut Prng, bases: &[u64]) -> Vpn {
    let base = bases[g.below(bases.len() as u64) as usize];
    let shift = [0, 9, 18, 27][g.below(4) as usize];
    let edge = if shift == 0 { base } else { (base >> shift << shift) + (1 << shift) };
    Vpn((edge + g.below(16)).saturating_sub(8) % (1 << 36))
}

fn random_pte(g: &mut Prng) -> Pte {
    match g.below(4) {
        0 => Pte::EMPTY,
        1 => Pte::present(Pfn(g.below(1 << 30)), PteFlags::user_data()),
        _ => Pte::lba_augmented(blk(g.next_u64()), PteFlags::user_data()),
    }
}

/// The memoized page table with populated-child bitmaps is
/// indistinguishable from the plain table: under any interleaving of
/// writes, walks, SMU completions and scans, over VPNs that cross PMD,
/// PUD and PGD boundaries in several distant regions, both give equal
/// PTEs, equal entry addresses, and equal scan callbacks (order
/// included) and statistics.
#[test]
fn page_table_matches_the_unmemoized_model() {
    let mut g = Prng::seed_from(0x3E_0009);
    for case in 0..CASES {
        let bases: Vec<u64> = (0..g.range(1, 5)).map(|_| g.below(1 << 36)).collect();
        let (mut pt, mut model) = (PageTable::new(), ModelTable::new());
        let mut addrs = vec![PhysAddr(0), PhysAddr(1 << 40)];
        let steps = g.range(1, 120);
        for step in 0..steps {
            let vpn = near_vpn(&mut g, &bases);
            let ctx = format!("case {case} step {step}: bases {bases:x?}, vpn {:#x}", vpn.0);
            match g.below(10) {
                0 => {
                    let pte = random_pte(&mut g);
                    pt.set_pte(vpn, pte);
                    model.set_pte(vpn, pte);
                }
                1 => {
                    let block = blk(g.next_u64());
                    let f = [Pte::with_accessed, Pte::with_dirty, Pte::clear_accessed][g.below(3) as usize];
                    let f = move |p: Pte| if p.is_present() { f(p) } else { p.evict_to(block) };
                    let new = pt.update_pte(vpn, f);
                    model.set_pte(vpn, f(model.walk(vpn).map_or(Pte::EMPTY, |w| w.pte)));
                    assert_eq!(new, model.walk(vpn).map(|w| w.pte).unwrap_or(Pte::EMPTY), "{ctx}");
                }
                2 => {
                    let (w, m) = (pt.ensure_populated(vpn), model.populate(vpn));
                    assert_eq!(walk_key(&w), walk_key(&m), "{ctx}");
                    addrs.extend([w.pud_addr, w.pmd_addr, w.pte_addr]);
                }
                3 => assert_eq!(pt.walk(vpn).map(|w| walk_key(&w)), model.walk(vpn).map(|w| walk_key(&w)), "{ctx}"),
                4 => assert_eq!(pt.pte(vpn), model.walk(vpn).map_or(Pte::EMPTY, |w| w.pte), "{ctx}"),
                5 => {
                    let (a, b) = (pt.leaf_mut(vpn), model.leaf_mut(vpn));
                    assert_eq!(a.as_deref(), b.as_deref(), "{ctx}");
                    if let (Some(a), Some(b)) = (a, b) {
                        *a = a.with_accessed();
                        *b = b.with_accessed();
                    }
                }
                6 => {
                    if let Some(w) = pt.walk(vpn).filter(|w| w.pte.class() == PteClass::LbaAugmented) {
                        let pfn = Pfn(g.below(1 << 30));
                        assert_eq!(pt.smu_complete(&w, pfn), model.smu_complete(&w, pfn), "{ctx}");
                    }
                }
                7 => {
                    let a = if g.chance(0.5) {
                        addrs[g.below(addrs.len() as u64) as usize]
                    } else {
                        ModelTable::addr(g.below(model.tables.len() as u64) as u32, g.below(512) as usize)
                    };
                    assert_eq!(pt.read_entry(a), model.read_entry(a), "{ctx}: entry {:#x}", a.0);
                }
                8 => {
                    let keep = g.chance(0.3);
                    let (mut seen, mut want) = (Vec::new(), Vec::new());
                    let sync = |seen: &mut Vec<(Vpn, Pte)>, vpn, pte: Pte| {
                        seen.push((vpn, pte));
                        if keep { pte } else { pte.clear_lba_bit() }
                    };
                    let stats = pt.scan_needs_sync(|v, p| sync(&mut seen, v, p));
                    let expect = model.scan_needs_sync(|v, p| sync(&mut want, v, p));
                    assert_eq!(stats, expect, "{ctx}");
                    assert_eq!(seen, want, "{ctx}");
                }
                _ => {
                    let (mut seen, mut want) = (Vec::new(), Vec::new());
                    pt.for_each_pte(|v, p| seen.push((v, p)));
                    model.for_each_pte(|v, p| want.push((v, p)));
                    assert_eq!(seen, want, "{ctx}");
                }
            }
            assert_eq!(pt.tables_allocated(), model.tables.len(), "{ctx}");
        }
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
