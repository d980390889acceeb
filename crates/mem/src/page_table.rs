//! A 4-level, x86-64-style page table with the paper's LBA extensions.
//!
//! Levels follow Linux naming on x86-64: PGD → PUD → PMD → PT, 512 entries
//! each, 4 KiB pages (48-bit virtual addresses).
//!
//! Two paper-specific behaviors live here:
//!
//! * **Upper-level LBA bits** (§III-B): after the SMU completes a page miss
//!   it sets the LBA bit in the PMD and PUD entries covering the PTE. The
//!   bit means "this subtree has one or more hardware-handled PTEs whose OS
//!   metadata is not yet updated".
//! * **Pruned `kpted` scan** (§IV-C): [`PageTable::scan_needs_sync`] visits
//!   only subtrees whose upper-level LBA bit is set, clearing the upper
//!   bit *before* descending (the paper's ordering, which guarantees no
//!   completion is lost if the SMU races with the scan), and reports how
//!   many entries were examined so the efficiency claim can be measured.
//!
//! Two host-side shortcuts make each access O(1) without changing any
//! simulated value:
//!
//! * **Leaf memo.** The table remembers the last leaf it reached, tagged
//!   by `vpn >> 9` and holding the `(pud, pmd, pt)` table indices, so a
//!   run of accesses to one 2 MiB region descends the tree once. The memo
//!   cannot go stale because **tables are never freed and a child link
//!   never changes once set**: a tag that matched once names the same
//!   tables forever. The hwdp-audit invariant `pt-memo-coherent` checks
//!   the memo against a fresh walk.
//! * **Populated-child bitmaps.** Every non-leaf table keeps one bit per
//!   slot, set when the slot gains a child. The scan and
//!   [`PageTable::for_each_pte`] visit only the set bits, in ascending
//!   order, so their cost follows the populated tables, not the 512 slots
//!   of each upper level. Visit order and [`ScanStats`] are those of a
//!   full loop over every slot.

use std::cell::Cell;

use crate::addr::{PhysAddr, Vpn};
use crate::pte::{Pte, PteClass};

/// Synthetic physical base address of the page-table arena. Entry addresses
/// (`table_index * 4096 + entry_index * 8`) are offset by this so they can
/// never collide with data-frame addresses; the PTE address is the PMSHR's
/// coalescing key (§III-C) so uniqueness matters.
const PT_REGION_BASE: u64 = 1 << 40;

const ENTRIES: usize = 512;
const NO_CHILD: u32 = u32::MAX;

/// Page-table level, leaf last.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// Page global directory (root).
    Pgd,
    /// Page upper directory.
    Pud,
    /// Page middle directory.
    Pmd,
    /// Leaf page table.
    Pt,
}

#[derive(Debug)]
struct Table {
    level: Level,
    entries: Vec<Pte>,
    children: Vec<u32>,
    /// Bit `i % 64` of word `i / 64` is set iff `children[i]` is populated
    /// (always zero in a leaf).
    populated: [u64; ENTRIES / 64],
}

impl Table {
    fn new(level: Level) -> Self {
        Table {
            level,
            entries: vec![Pte::EMPTY; ENTRIES],
            children: if level == Level::Pt { Vec::new() } else { vec![NO_CHILD; ENTRIES] },
            populated: [0; ENTRIES / 64],
        }
    }
}

/// Indices of the set bits of `words`, ascending.
fn set_bits(words: [u64; ENTRIES / 64]) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(w * 64 + b)
        })
    })
}

/// The last leaf reached: its tag `vpn >> 9` and the `(pud, pmd, pt)`
/// tables on the way to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LeafMemo {
    tag: u64,
    tables: (u32, u32, u32),
}

/// No VPN shifts right by 9 to `u64::MAX`, so this memo never hits.
const NO_MEMO: LeafMemo = LeafMemo { tag: u64::MAX, tables: (NO_CHILD, NO_CHILD, NO_CHILD) };

/// Result of a page-table walk to a fully populated leaf.
#[derive(Clone, Copy, Debug)]
pub struct WalkResult {
    /// The leaf entry.
    pub pte: Pte,
    /// Physical address of the PUD entry (SMU update target).
    pub pud_addr: PhysAddr,
    /// Physical address of the PMD entry (SMU update target).
    pub pmd_addr: PhysAddr,
    /// Physical address of the PTE — the PMSHR coalescing key.
    pub pte_addr: PhysAddr,
}

/// Statistics from one `kpted` scan pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Upper- and leaf-level entries examined.
    pub entries_examined: u64,
    /// Leaf PTEs found in the `ResidentNeedsSync` state and handed to the
    /// callback.
    pub ptes_synced: u64,
    /// Leaf tables skipped thanks to a clear upper-level LBA bit.
    pub tables_skipped: u64,
}

/// A process's 4-level page table.
#[derive(Debug)]
pub struct PageTable {
    tables: Vec<Table>,
    /// The last leaf reached (see the module doc for why it cannot go
    /// stale). A `Cell` so that read-only walks can fill it.
    memo: Cell<LeafMemo>,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty table (a PGD with no children).
    pub fn new() -> Self {
        PageTable { tables: vec![Table::new(Level::Pgd)], memo: Cell::new(NO_MEMO) }
    }

    /// Number of tables allocated (1 PGD + intermediates + leaves), i.e.
    /// the page-table memory footprint in 4 KiB pages. Fast `mmap()`
    /// populates tables eagerly, which the paper bounds at 0.2 % of the
    /// mapped size (§IV-B).
    pub fn tables_allocated(&self) -> usize {
        self.tables.len()
    }

    fn alloc_table(&mut self, level: Level) -> u32 {
        let idx = self.tables.len() as u32;
        self.tables.push(Table::new(level));
        idx
    }

    fn child_of(&mut self, table: u32, idx: usize, level: Level) -> u32 {
        let existing = self.tables[table as usize].children[idx];
        if existing != NO_CHILD {
            return existing;
        }
        let new = self.alloc_table(level);
        let parent = &mut self.tables[table as usize];
        parent.children[idx] = new;
        parent.populated[idx / 64] |= 1 << (idx % 64);
        new
    }

    /// Ensures all intermediate tables down to the leaf exist for `vpn`
    /// (fast-mmap eager population, §IV-B). Returns the leaf entry
    /// addresses.
    pub fn ensure_populated(&mut self, vpn: Vpn) -> WalkResult {
        let leaf = self.populate(vpn);
        self.walk_result(vpn, leaf)
    }

    /// Allocates any missing tables on the way to `vpn`'s leaf and returns
    /// the same `(pud, pmd, pt, pt index)` tuple as [`PageTable::leaf_of`].
    fn populate(&mut self, vpn: Vpn) -> (u32, u32, u32, usize) {
        let (pgd_i, pud_i, pmd_i, pt_i) = vpn.indices();
        let memo = self.memo.get();
        if memo.tag == vpn.0 >> 9 {
            let (pud_t, pmd_t, pt_t) = memo.tables;
            return (pud_t, pmd_t, pt_t, pt_i);
        }
        let pud_t = self.child_of(0, pgd_i, Level::Pud);
        let pmd_t = self.child_of(pud_t, pud_i, Level::Pmd);
        let pt_t = self.child_of(pmd_t, pmd_i, Level::Pt);
        self.memo.set(LeafMemo { tag: vpn.0 >> 9, tables: (pud_t, pmd_t, pt_t) });
        (pud_t, pmd_t, pt_t, pt_i)
    }

    /// The `(pud, pmd, pt)` tables on the way to `vpn`'s leaf by a fresh
    /// three-level descent, or `None` when one is missing.
    fn descend(&self, vpn: Vpn) -> Option<(u32, u32, u32)> {
        let (pgd_i, pud_i, pmd_i, _) = vpn.indices();
        let pud_t = self.tables[0].children[pgd_i];
        if pud_t == NO_CHILD {
            return None;
        }
        let pmd_t = self.tables[pud_t as usize].children[pud_i];
        if pmd_t == NO_CHILD {
            return None;
        }
        let pt_t = self.tables[pmd_t as usize].children[pmd_i];
        if pt_t == NO_CHILD {
            return None;
        }
        Some((pud_t, pmd_t, pt_t))
    }

    /// `(pud, pmd, pt, pt index)` of `vpn`'s leaf entry without allocating,
    /// through the memo.
    #[inline]
    fn leaf_of(&self, vpn: Vpn) -> Option<(u32, u32, u32, usize)> {
        let pt_i = (vpn.0 & 0x1FF) as usize;
        let memo = self.memo.get();
        let (pud_t, pmd_t, pt_t) = if memo.tag == vpn.0 >> 9 {
            memo.tables
        } else {
            let tables = self.descend(vpn)?;
            self.memo.set(LeafMemo { tag: vpn.0 >> 9, tables });
            tables
        };
        Some((pud_t, pmd_t, pt_t, pt_i))
    }

    fn walk_result(&self, vpn: Vpn, (pud_t, pmd_t, pt_t, pt_i): (u32, u32, u32, usize)) -> WalkResult {
        let (_, pud_i, pmd_i, _) = vpn.indices();
        WalkResult {
            pte: self.tables[pt_t as usize].entries[pt_i],
            pud_addr: entry_addr(pud_t, pud_i),
            pmd_addr: entry_addr(pmd_t, pmd_i),
            pte_addr: entry_addr(pt_t, pt_i),
        }
    }

    /// Walks to `vpn` without allocating. Returns `None` when intermediate
    /// tables are missing (the walk would fault to the OS regardless of the
    /// LBA machinery).
    #[inline]
    pub fn walk(&self, vpn: Vpn) -> Option<WalkResult> {
        let leaf = self.leaf_of(vpn)?;
        Some(self.walk_result(vpn, leaf))
    }

    /// Reads the leaf PTE for `vpn` ([`Pte::EMPTY`] if unpopulated).
    #[inline]
    pub fn pte(&self, vpn: Vpn) -> Pte {
        self.leaf_of(vpn).map_or(Pte::EMPTY, |(_, _, pt_t, pt_i)| self.tables[pt_t as usize].entries[pt_i])
    }

    /// The leaf PTE for `vpn`, for a read-modify-write through one walk;
    /// `None` (and nothing allocated) when the leaf is unpopulated.
    #[inline]
    pub fn leaf_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        let (_, _, pt_t, pt_i) = self.leaf_of(vpn)?;
        Some(&mut self.tables[pt_t as usize].entries[pt_i])
    }

    /// Writes the leaf PTE for `vpn`, populating intermediates as needed.
    pub fn set_pte(&mut self, vpn: Vpn, pte: Pte) {
        let (_, _, pt_t, pt_i) = self.populate(vpn);
        self.tables[pt_t as usize].entries[pt_i] = pte;
    }

    /// Mutates the leaf PTE in place via `f`, returning the new value.
    /// Populates intermediates as needed.
    pub fn update_pte(&mut self, vpn: Vpn, f: impl FnOnce(Pte) -> Pte) -> Pte {
        let (_, _, pt_t, pt_i) = self.populate(vpn);
        let e = &mut self.tables[pt_t as usize].entries[pt_i];
        *e = f(*e);
        *e
    }

    /// The SMU's post-I/O update (§III-C steps 7–8), addressed exactly the
    /// way the hardware does it — by the three entry addresses captured at
    /// miss time: flip the PTE to `present` (keeping its LBA bit) and set
    /// the LBA bits of the PMD and PUD entries.
    ///
    /// Addresses outside the page-table region degrade to a no-op (the
    /// update is dropped and `Pte::EMPTY` returned) — a captured walk can
    /// only go stale through state corruption, and completion paths must
    /// not panic.
    ///
    /// # Panics
    ///
    /// Panics if an in-region address names an entry of the wrong level,
    /// or the PTE is not in the `LbaAugmented` state.
    pub fn smu_complete(&mut self, walk: &WalkResult, pfn: crate::addr::Pfn) -> Pte {
        let (Some((pt_t, pt_i)), Some((pmd_t, pmd_i)), Some((pud_t, pud_i))) = (
            split_addr(walk.pte_addr),
            split_addr(walk.pmd_addr),
            split_addr(walk.pud_addr),
        ) else {
            return Pte::EMPTY;
        };
        assert_eq!(self.tables[pt_t].level, Level::Pt, "pte_addr must name a leaf entry");
        assert_eq!(self.tables[pmd_t].level, Level::Pmd, "pmd_addr must name a PMD entry");
        assert_eq!(self.tables[pud_t].level, Level::Pud, "pud_addr must name a PUD entry");
        let new = self.tables[pt_t].entries[pt_i].complete_hw_miss(pfn);
        self.tables[pt_t].entries[pt_i] = new;
        let pmd = &mut self.tables[pmd_t].entries[pmd_i];
        *pmd = Pte(pmd.0 | 1 << 10);
        let pud = &mut self.tables[pud_t].entries[pud_i];
        *pud = Pte(pud.0 | 1 << 10);
        new
    }

    /// Reads an entry by its physical address (hardware view). Addresses
    /// outside the page-table region read as `Pte::EMPTY`.
    pub fn read_entry(&self, addr: PhysAddr) -> Pte {
        let Some((t, i)) = split_addr(addr) else { return Pte::EMPTY };
        self.tables[t].entries[i]
    }

    /// `kpted`'s pruned scan (§IV-C). For every leaf PTE in the
    /// `ResidentNeedsSync` state, calls `sync(vpn, pte)`; the callback
    /// returns the replacement PTE (normally `pte.clear_lba_bit()` after
    /// updating OS metadata). Upper-level LBA bits are cleared before
    /// descending, as the paper requires. Only populated slots are visited
    /// and counted, in ascending order.
    pub fn scan_needs_sync(&mut self, mut sync: impl FnMut(Vpn, Pte) -> Pte) -> ScanStats {
        let mut stats = ScanStats::default();
        for pgd_i in set_bits(self.tables[0].populated) {
            let pud_t = self.tables[0].children[pgd_i] as usize;
            for pud_i in set_bits(self.tables[pud_t].populated) {
                let pmd_t = self.tables[pud_t].children[pud_i] as usize;
                stats.entries_examined += 1;
                let pud_e = self.tables[pud_t].entries[pud_i];
                if !pud_e.lba_bit() {
                    stats.tables_skipped += 1;
                    continue;
                }
                // Clear before inspecting the lower level (§IV-C).
                self.tables[pud_t].entries[pud_i] = pud_e.clear_lba_bit();
                for pmd_i in set_bits(self.tables[pmd_t].populated) {
                    let pt_t = self.tables[pmd_t].children[pmd_i] as usize;
                    stats.entries_examined += 1;
                    let pmd_e = self.tables[pmd_t].entries[pmd_i];
                    if !pmd_e.lba_bit() {
                        stats.tables_skipped += 1;
                        continue;
                    }
                    self.tables[pmd_t].entries[pmd_i] = pmd_e.clear_lba_bit();
                    for (pt_i, e) in self.tables[pt_t].entries.iter_mut().enumerate() {
                        stats.entries_examined += 1;
                        if e.class() == PteClass::ResidentNeedsSync {
                            *e = sync(leaf_vpn(pgd_i, pud_i, pmd_i, pt_i), *e);
                            stats.ptes_synced += 1;
                        }
                    }
                }
            }
        }
        stats
    }

    /// Iterates every populated leaf PTE in ascending VPN order
    /// (diagnostics / munmap sweeps).
    pub fn for_each_pte(&self, mut f: impl FnMut(Vpn, Pte)) {
        for pgd_i in set_bits(self.tables[0].populated) {
            let pud_t = self.tables[0].children[pgd_i] as usize;
            for pud_i in set_bits(self.tables[pud_t].populated) {
                let pmd_t = self.tables[pud_t].children[pud_i] as usize;
                for pmd_i in set_bits(self.tables[pmd_t].populated) {
                    let pt_t = self.tables[pmd_t].children[pmd_i] as usize;
                    for (pt_i, &pte) in self.tables[pt_t].entries.iter().enumerate() {
                        if pte != Pte::EMPTY {
                            f(leaf_vpn(pgd_i, pud_i, pmd_i, pt_i), pte);
                        }
                    }
                }
            }
        }
    }

    /// hwdp-audit `pt-memo-coherent` (full level): the leaf memo names the
    /// tables a fresh three-level descent reaches for its tag.
    pub fn audit_memo(&self, report: &mut hwdp_sim::sanitize::AuditReport) {
        let memo = self.memo.get();
        if memo == NO_MEMO {
            return;
        }
        let fresh = self.descend(Vpn(memo.tag << 9));
        report.check_args(
            "mem",
            "pt-memo-coherent",
            fresh == Some(memo.tables),
            format_args!(
                "leaf memo for VPN {:#x} holds tables {:?} but a fresh walk reaches {fresh:?}",
                memo.tag << 9,
                memo.tables
            ),
        );
    }

    /// Points the leaf memo's leaf at its PMD table, as a memo that
    /// survived a freed or relinked table would name the wrong table.
    #[cfg(test)]
    pub(crate) fn corrupt_memo_for_test(&self) {
        let mut memo = self.memo.get();
        memo.tables.2 = memo.tables.1;
        self.memo.set(memo);
    }
}

/// The VPN of leaf entry `pt_i` under the given upper-level slots.
fn leaf_vpn(pgd_i: usize, pud_i: usize, pmd_i: usize, pt_i: usize) -> Vpn {
    Vpn(((pgd_i as u64) << 27) | ((pud_i as u64) << 18) | ((pmd_i as u64) << 9) | pt_i as u64)
}

fn entry_addr(table: u32, idx: usize) -> PhysAddr {
    PhysAddr(PT_REGION_BASE + (table as u64) * 4096 + (idx as u64) * 8)
}

fn split_addr(addr: PhysAddr) -> Option<(usize, usize)> {
    let off = addr.0.checked_sub(PT_REGION_BASE)?;
    Some(((off / 4096) as usize, ((off % 4096) / 8) as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{BlockRef, DeviceId, Lba, Pfn, SocketId};
    use crate::pte::PteFlags;

    fn blk(l: u64) -> BlockRef {
        BlockRef::new(SocketId(0), DeviceId(0), Lba(l))
    }

    #[test]
    fn empty_walk_is_none() {
        let pt = PageTable::new();
        assert!(pt.walk(Vpn(0x123)).is_none());
        assert_eq!(pt.pte(Vpn(0x123)), Pte::EMPTY);
    }

    #[test]
    fn set_then_get() {
        let mut pt = PageTable::new();
        let pte = Pte::present(Pfn(42), PteFlags::user_data());
        pt.set_pte(Vpn(0xABCDE), pte);
        assert_eq!(pt.pte(Vpn(0xABCDE)), pte);
        assert_eq!(pt.pte(Vpn(0xABCDF)), Pte::EMPTY);
    }

    #[test]
    fn entry_addresses_unique_per_vpn() {
        let mut pt = PageTable::new();
        let mut addrs = std::collections::HashSet::new();
        for i in 0..2000u64 {
            let w = pt.ensure_populated(Vpn(i * 7));
            assert!(addrs.insert(w.pte_addr), "duplicate pte addr for vpn {i}");
        }
    }

    #[test]
    fn neighbours_share_upper_entries() {
        let mut pt = PageTable::new();
        let a = pt.ensure_populated(Vpn(0));
        let b = pt.ensure_populated(Vpn(1));
        assert_eq!(a.pmd_addr, b.pmd_addr);
        assert_eq!(a.pud_addr, b.pud_addr);
        assert_ne!(a.pte_addr, b.pte_addr);
        // Crossing a 2 MiB boundary changes the PMD entry.
        let c = pt.ensure_populated(Vpn(512));
        assert_ne!(a.pmd_addr, c.pmd_addr);
        assert_eq!(a.pud_addr, c.pud_addr);
    }

    #[test]
    fn tables_allocated_counts_eager_population() {
        let mut pt = PageTable::new();
        assert_eq!(pt.tables_allocated(), 1);
        pt.ensure_populated(Vpn(0));
        // PGD + PUD + PMD + PT.
        assert_eq!(pt.tables_allocated(), 4);
        pt.ensure_populated(Vpn(1));
        assert_eq!(pt.tables_allocated(), 4, "same leaf reused");
        pt.ensure_populated(Vpn(512));
        assert_eq!(pt.tables_allocated(), 5, "one more leaf table");
    }

    #[test]
    fn smu_complete_sets_upper_lba_bits() {
        let mut pt = PageTable::new();
        let vpn = Vpn(0x40201);
        pt.set_pte(vpn, Pte::lba_augmented(blk(5), PteFlags::user_data()));
        let w = pt.walk(vpn).unwrap();
        let new = pt.smu_complete(&w, Pfn(9));
        assert_eq!(new.class(), PteClass::ResidentNeedsSync);
        assert_eq!(pt.pte(vpn).pfn(), Some(Pfn(9)));
        assert!(pt.read_entry(w.pmd_addr).lba_bit(), "PMD entry marked");
        assert!(pt.read_entry(w.pud_addr).lba_bit(), "PUD entry marked");
    }

    #[test]
    fn scan_finds_and_clears_needs_sync() {
        let mut pt = PageTable::new();
        // Three hardware-handled pages in two different leaf tables.
        for &v in &[0u64, 3, 600] {
            let vpn = Vpn(v);
            pt.set_pte(vpn, Pte::lba_augmented(blk(v), PteFlags::user_data()));
            let w = pt.walk(vpn).unwrap();
            pt.smu_complete(&w, Pfn(v + 100));
        }
        let mut seen = Vec::new();
        let stats = pt.scan_needs_sync(|vpn, pte| {
            seen.push(vpn.0);
            pte.clear_lba_bit()
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 3, 600]);
        assert_eq!(stats.ptes_synced, 3);
        // All PTEs now conventional; a second scan syncs nothing and skips
        // the (now unmarked) subtrees.
        let stats2 = pt.scan_needs_sync(|_, pte| pte);
        assert_eq!(stats2.ptes_synced, 0);
        assert!(stats2.tables_skipped >= 1, "pruning via cleared upper bits");
        assert!(
            stats2.entries_examined < stats.entries_examined,
            "second scan must be cheaper: {} vs {}",
            stats2.entries_examined,
            stats.entries_examined
        );
    }

    #[test]
    fn scan_prunes_untouched_subtrees() {
        let mut pt = PageTable::new();
        // Populate many leaf tables but only mark one.
        for i in 0..8u64 {
            pt.set_pte(Vpn(i * 512), Pte::present(Pfn(i), PteFlags::user_data()));
        }
        let vpn = Vpn(3 * 512);
        pt.set_pte(vpn, Pte::lba_augmented(blk(1), PteFlags::user_data()));
        let w = pt.walk(vpn).unwrap();
        pt.smu_complete(&w, Pfn(50));
        let stats = pt.scan_needs_sync(|_, pte| pte.clear_lba_bit());
        assert_eq!(stats.ptes_synced, 1);
        assert_eq!(stats.tables_skipped, 7, "unmarked PMD entries skipped");
    }

    #[test]
    fn update_pte_applies_closure() {
        let mut pt = PageTable::new();
        pt.set_pte(Vpn(9), Pte::present(Pfn(1), PteFlags::user_data()));
        let new = pt.update_pte(Vpn(9), |p| p.with_dirty());
        assert!(new.is_dirty());
        assert!(pt.pte(Vpn(9)).is_dirty());
    }

    #[test]
    fn for_each_pte_visits_all_mappings() {
        let mut pt = PageTable::new();
        let vpns = [0u64, 511, 512, 513, 1 << 27];
        for &v in &vpns {
            pt.set_pte(Vpn(v), Pte::present(Pfn(v + 1), PteFlags::user_data()));
        }
        let mut seen = Vec::new();
        pt.for_each_pte(|vpn, _| seen.push(vpn.0));
        seen.sort_unstable();
        assert_eq!(seen, vpns.to_vec());
    }

    #[test]
    fn read_entry_outside_region_reads_empty() {
        let pt = PageTable::new();
        assert_eq!(pt.read_entry(PhysAddr(12345)), Pte::EMPTY);
    }
}
