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
}

impl Table {
    fn new(level: Level) -> Self {
        Table {
            level,
            entries: vec![Pte::EMPTY; ENTRIES],
            children: if level == Level::Pt { Vec::new() } else { vec![NO_CHILD; ENTRIES] },
        }
    }
}

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
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty table (a PGD with no children).
    pub fn new() -> Self {
        PageTable { tables: vec![Table::new(Level::Pgd)] }
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
        self.tables[table as usize].children[idx] = new;
        new
    }

    /// Ensures all intermediate tables down to the leaf exist for `vpn`
    /// (fast-mmap eager population, §IV-B). Returns the leaf entry
    /// addresses.
    pub fn ensure_populated(&mut self, vpn: Vpn) -> WalkResult {
        let (_, pud_i, pmd_i, _) = vpn.indices();
        let (pud_t, pmd_t, pt_t, pt_i) = self.populate(vpn);
        WalkResult {
            pte: self.tables[pt_t as usize].entries[pt_i],
            pud_addr: entry_addr(pud_t, pud_i),
            pmd_addr: entry_addr(pmd_t, pmd_i),
            pte_addr: entry_addr(pt_t, pt_i),
        }
    }

    /// Allocates any missing tables on the way to `vpn`'s leaf and returns
    /// the same `(pud, pmd, pt, pt index)` tuple as [`PageTable::leaf_of`].
    fn populate(&mut self, vpn: Vpn) -> (u32, u32, u32, usize) {
        let (pgd_i, pud_i, pmd_i, pt_i) = vpn.indices();
        let pud_t = self.child_of(0, pgd_i, Level::Pud);
        let pmd_t = self.child_of(pud_t, pud_i, Level::Pmd);
        let pt_t = self.child_of(pmd_t, pmd_i, Level::Pt);
        (pud_t, pmd_t, pt_t, pt_i)
    }

    /// The leaf entry for `vpn`, populating intermediates as needed.
    fn leaf_entry_mut(&mut self, vpn: Vpn) -> &mut Pte {
        let (_, _, pt_t, pt_i) = self.populate(vpn);
        &mut self.tables[pt_t as usize].entries[pt_i]
    }

    fn leaf_of(&self, vpn: Vpn) -> Option<(u32, u32, u32, usize)> {
        let (pgd_i, pud_i, pmd_i, pt_i) = vpn.indices();
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
        Some((pud_t, pmd_t, pt_t, pt_i))
    }

    /// Walks to `vpn` without allocating. Returns `None` when intermediate
    /// tables are missing (the walk would fault to the OS regardless of the
    /// LBA machinery).
    pub fn walk(&self, vpn: Vpn) -> Option<WalkResult> {
        let (_, pud_i, pmd_i, _) = vpn.indices();
        let (pud_t, pmd_t, pt_t, pt_i) = self.leaf_of(vpn)?;
        Some(WalkResult {
            pte: self.tables[pt_t as usize].entries[pt_i],
            pud_addr: entry_addr(pud_t, pud_i),
            pmd_addr: entry_addr(pmd_t, pmd_i),
            pte_addr: entry_addr(pt_t, pt_i),
        })
    }

    /// Reads the leaf PTE for `vpn` ([`Pte::EMPTY`] if unpopulated).
    pub fn pte(&self, vpn: Vpn) -> Pte {
        self.walk(vpn).map(|w| w.pte).unwrap_or(Pte::EMPTY)
    }

    /// Writes the leaf PTE for `vpn`, populating intermediates as needed.
    pub fn set_pte(&mut self, vpn: Vpn, pte: Pte) {
        *self.leaf_entry_mut(vpn) = pte;
    }

    /// Mutates the leaf PTE in place via `f`, returning the new value.
    /// Populates intermediates as needed.
    pub fn update_pte(&mut self, vpn: Vpn, f: impl FnOnce(Pte) -> Pte) -> Pte {
        let e = self.leaf_entry_mut(vpn);
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
    /// descending, as the paper requires.
    pub fn scan_needs_sync(&mut self, mut sync: impl FnMut(Vpn, Pte) -> Pte) -> ScanStats {
        let mut stats = ScanStats::default();
        for pgd_i in 0..ENTRIES {
            let pud_t = self.tables[0].children[pgd_i];
            if pud_t == NO_CHILD {
                continue;
            }
            for pud_i in 0..ENTRIES {
                let pmd_t = self.tables[pud_t as usize].children[pud_i];
                if pmd_t == NO_CHILD {
                    continue;
                }
                stats.entries_examined += 1;
                let pud_e = self.tables[pud_t as usize].entries[pud_i];
                if !pud_e.lba_bit() {
                    stats.tables_skipped += 1;
                    continue;
                }
                // Clear before inspecting the lower level (§IV-C).
                self.tables[pud_t as usize].entries[pud_i] = pud_e.clear_lba_bit();
                for pmd_i in 0..ENTRIES {
                    let pt_t = self.tables[pmd_t as usize].children[pmd_i];
                    if pt_t == NO_CHILD {
                        continue;
                    }
                    stats.entries_examined += 1;
                    let pmd_e = self.tables[pmd_t as usize].entries[pmd_i];
                    if !pmd_e.lba_bit() {
                        stats.tables_skipped += 1;
                        continue;
                    }
                    self.tables[pmd_t as usize].entries[pmd_i] = pmd_e.clear_lba_bit();
                    for pt_i in 0..ENTRIES {
                        stats.entries_examined += 1;
                        let pte = self.tables[pt_t as usize].entries[pt_i];
                        if pte.class() == PteClass::ResidentNeedsSync {
                            let vpn = Vpn(((pgd_i as u64) << 27)
                                | ((pud_i as u64) << 18)
                                | ((pmd_i as u64) << 9)
                                | pt_i as u64);
                            self.tables[pt_t as usize].entries[pt_i] = sync(vpn, pte);
                            stats.ptes_synced += 1;
                        }
                    }
                }
            }
        }
        stats
    }

    /// Iterates every populated leaf PTE (diagnostics / munmap sweeps).
    pub fn for_each_pte(&self, mut f: impl FnMut(Vpn, Pte)) {
        for pgd_i in 0..ENTRIES {
            let pud_t = self.tables[0].children[pgd_i];
            if pud_t == NO_CHILD {
                continue;
            }
            for pud_i in 0..ENTRIES {
                let pmd_t = self.tables[pud_t as usize].children[pud_i];
                if pmd_t == NO_CHILD {
                    continue;
                }
                for pmd_i in 0..ENTRIES {
                    let pt_t = self.tables[pmd_t as usize].children[pmd_i];
                    if pt_t == NO_CHILD {
                        continue;
                    }
                    for pt_i in 0..ENTRIES {
                        let pte = self.tables[pt_t as usize].entries[pt_i];
                        if pte != Pte::EMPTY {
                            let vpn = Vpn(((pgd_i as u64) << 27)
                                | ((pud_i as u64) << 18)
                                | ((pmd_i as u64) << 9)
                                | pt_i as u64);
                            f(vpn, pte);
                        }
                    }
                }
            }
        }
    }
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
