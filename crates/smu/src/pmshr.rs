//! The Page Miss Status Holding Registers (PMSHR).
//!
//! A fully associative CAM, structurally similar to a cache MSHR (§III-C):
//! each entry tracks one outstanding page miss, keyed by the **physical
//! address of the PTE** (the unique identifier of a virtual page).
//! Duplicate misses to the same page coalesce onto the existing entry —
//! this is also what prevents page aliasing within a process (§V).
//!
//! The entry count bounds the SMU's concurrent outstanding I/O; the paper's
//! prototype uses 32 entries, each 300 bits: three 64-bit entry addresses,
//! a 64-bit PFN, a 41-bit LBA and a 3-bit device ID (§VI-D).

use hwdp_mem::addr::{BlockRef, Pfn, PhysAddr};
use hwdp_mem::page_table::WalkResult;

/// Bits per PMSHR entry (3 × 64 addr + 64 PFN + 41 LBA + 3 device = 300,
/// §VI-D).
pub const ENTRY_BITS: u64 = 3 * 64 + 64 + 41 + 3;

/// The paper's prototype entry count.
pub const DEFAULT_ENTRIES: usize = 32;

/// Index of a PMSHR entry; doubles as the NVMe command identifier so the
/// completion unit can find the entry (§III-C).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EntryIdx(pub u16);

/// Errors from PMSHR allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PmshrError {
    /// All entries are in use; the miss must wait (or fall back).
    Full,
}

impl std::fmt::Display for PmshrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmshrError::Full => write!(f, "all PMSHR entries in use"),
        }
    }
}

impl std::error::Error for PmshrError {}

/// One outstanding page miss.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The miss's coalescing key and the PTE the updater will rewrite.
    pub walk: WalkResult,
    /// Storage location being fetched.
    pub block: BlockRef,
    /// Frame allocated for the incoming data (filled at step 4, §III-C).
    pub pfn: Option<Pfn>,
    /// DMA target address of that frame.
    pub dma: Option<PhysAddr>,
    /// Hardware contexts waiting on this miss (the original requester plus
    /// any coalesced ones).
    pub waiters: Vec<u64>,
}

/// Result of presenting a miss to the PMSHR.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Presented {
    /// A new entry was allocated; the caller drives the I/O.
    Allocated(EntryIdx),
    /// An outstanding miss to the same page exists; this requester was
    /// added to its waiter list and the walk goes pending (§III-C step 1).
    Coalesced(EntryIdx),
}

/// PMSHR occupancy and coalescing statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PmshrStats {
    /// Entries allocated over the run.
    pub allocations: u64,
    /// Requests coalesced onto an existing entry.
    pub coalesced: u64,
    /// Requests rejected because the CAM was full.
    pub full_rejections: u64,
    /// Highest simultaneous occupancy observed.
    pub high_water: u16,
}

/// The PMSHR CAM.
#[derive(Debug)]
pub struct Pmshr {
    slots: Vec<Option<Entry>>,
    live: u16,
    stats: PmshrStats,
}

impl Pmshr {
    /// Creates a PMSHR with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or exceeds `u16::MAX`.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0 && entries <= u16::MAX as usize, "invalid PMSHR size");
        Pmshr { slots: (0..entries).map(|_| None).collect(), live: 0, stats: PmshrStats::default() }
    }

    /// Creates the paper's 32-entry prototype configuration.
    pub fn paper_default() -> Self {
        Pmshr::new(DEFAULT_ENTRIES)
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently live.
    pub fn occupancy(&self) -> u16 {
        self.live
    }

    /// `true` when no entry is free.
    pub fn is_full(&self) -> bool {
        self.live as usize == self.slots.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> PmshrStats {
        self.stats
    }

    /// CAM lookup by PTE address.
    pub fn lookup(&self, pte_addr: PhysAddr) -> Option<EntryIdx> {
        self.slots.iter().position(|s| {
            s.as_ref().is_some_and(|e| e.walk.pte_addr == pte_addr)
        }).map(|i| EntryIdx(i as u16))
    }

    /// Presents a miss: coalesce onto an existing entry or allocate a new
    /// one, registering `waiter` either way.
    ///
    /// # Errors
    ///
    /// [`PmshrError::Full`] when no entry matches and none is free.
    pub fn present(
        &mut self,
        walk: WalkResult,
        block: BlockRef,
        waiter: u64,
    ) -> Result<Presented, PmshrError> {
        self.present_inner(walk, block, Some(waiter))
    }

    /// Presents a *prefetch* miss (paper §V "Prefetching Support"): no
    /// core is waiting on it, so the entry starts with an empty waiter
    /// list. Demand misses arriving later coalesce onto it and are woken
    /// by its completion, converting the prefetch into a hit.
    ///
    /// # Errors
    ///
    /// [`PmshrError::Full`] when no entry matches and none is free.
    pub fn present_detached(
        &mut self,
        walk: WalkResult,
        block: BlockRef,
    ) -> Result<Presented, PmshrError> {
        self.present_inner(walk, block, None)
    }

    fn present_inner(
        &mut self,
        walk: WalkResult,
        block: BlockRef,
        waiter: Option<u64>,
    ) -> Result<Presented, PmshrError> {
        if let Some(idx) = self.lookup(walk.pte_addr) {
            if let (Some(w), Some(e)) = (waiter, self.slots[idx.0 as usize].as_mut()) {
                e.waiters.push(w);
            }
            self.stats.coalesced += 1;
            return Ok(Presented::Coalesced(idx));
        }
        let free = self.slots.iter().position(|s| s.is_none());
        let Some(free) = free else {
            self.stats.full_rejections += 1;
            return Err(PmshrError::Full);
        };
        self.slots[free] = Some(Entry {
            walk,
            block,
            pfn: None,
            dma: None,
            waiters: waiter.into_iter().collect(),
        });
        self.live += 1;
        self.stats.allocations += 1;
        self.stats.high_water = self.stats.high_water.max(self.live);
        Ok(Presented::Allocated(EntryIdx(free as u16)))
    }

    /// Completes entry initialization with the allocated frame
    /// (§III-C step 4). A no-op on a dead entry (the caller's allocation
    /// was invalidated under it).
    pub fn set_frame(&mut self, idx: EntryIdx, pfn: Pfn, dma: PhysAddr) {
        let Some(e) = self.slots[idx.0 as usize].as_mut() else { return };
        e.pfn = Some(pfn);
        e.dma = Some(dma);
    }

    /// Read access to a live entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not live.
    #[allow(clippy::expect_used)] // documented under `# Panics`
    pub fn entry(&self, idx: EntryIdx) -> &Entry {
        self.slots[idx.0 as usize].as_ref().expect("entry not live")
    }

    /// Read access to an entry that may have been retired — fault-recovery
    /// paths probe entries that an abandoned I/O may already have
    /// invalidated, so absence is a normal outcome, not a bug.
    pub fn try_entry(&self, idx: EntryIdx) -> Option<&Entry> {
        self.slots.get(idx.0 as usize).and_then(|s| s.as_ref())
    }

    /// Invalidates the entry after broadcast (§III-C step 8), returning it
    /// (waiter list included); `None` when the slot is already free (an
    /// already-abandoned entry, or a late completion racing fault
    /// recovery — double invalidation is a no-op).
    pub fn invalidate(&mut self, idx: EntryIdx) -> Option<Entry> {
        let e = self.slots.get_mut(idx.0 as usize)?.take()?;
        self.live -= 1;
        Some(e)
    }

    /// hwdp-audit checker: the CAM's occupancy counter matches the live
    /// slots, no two live entries track the same page (the coalescing /
    /// anti-aliasing guarantee of §V), and any assigned frame's DMA target
    /// is that frame's base address.
    pub fn audit(&self, report: &mut hwdp_sim::sanitize::AuditReport) {
        let layer = "smu";
        let live_slots = self.slots.iter().filter(|s| s.is_some()).count();
        report.check(layer, "pmshr-occupancy", live_slots == self.live as usize, || {
            format!("{live_slots} live slots but the occupancy counter says {}", self.live)
        });
        let mut seen: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(e) = slot else { continue };
            if let Some(&prev) = seen.get(&e.walk.pte_addr.0) {
                report.check(layer, "pmshr-duplicate", false, || {
                    format!(
                        "slots {prev} and {i} both track the miss at PTE address {:#x} (duplicate outstanding fault)",
                        e.walk.pte_addr.0
                    )
                });
            } else {
                report.checked();
                seen.insert(e.walk.pte_addr.0, i);
            }
            if let (Some(pfn), Some(dma)) = (e.pfn, e.dma) {
                report.check(layer, "pmshr-frame-dma", dma == pfn.base(), || {
                    format!("slot {i}: DMA target {dma:?} is not the base of {pfn:?}")
                });
            }
        }
    }

    /// Test-only corruption hook: copies a live entry into a free slot
    /// without touching the occupancy counter, so the hwdp-audit
    /// `pmshr-duplicate` negative test can inject the duplicate-fault
    /// state that [`Pmshr::present`]'s coalescing makes unreachable.
    #[cfg(test)]
    pub(crate) fn inject_duplicate_for_test(&mut self, idx: EntryIdx) {
        let clone = self.slots[idx.0 as usize].clone();
        if let Some(free) = self.slots.iter().position(|s| s.is_none()) {
            self.slots[free] = clone;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdp_mem::addr::{DeviceId, Lba, SocketId, Vpn};
    use hwdp_mem::page_table::PageTable;
    use hwdp_mem::pte::{Pte, PteFlags};

    fn walk_for(vpn: u64) -> WalkResult {
        let mut pt = PageTable::new();
        let block = BlockRef::new(SocketId(0), DeviceId(0), Lba(vpn));
        pt.set_pte(Vpn(vpn), Pte::lba_augmented(block, PteFlags::user_data()));
        pt.walk(Vpn(vpn)).expect("populated")
    }

    fn block(l: u64) -> BlockRef {
        BlockRef::new(SocketId(0), DeviceId(1), Lba(l))
    }

    #[test]
    fn entry_is_300_bits() {
        assert_eq!(ENTRY_BITS, 300, "§VI-D: each PMSHR entry is 300 bits");
    }

    #[test]
    fn allocate_then_coalesce() {
        let mut p = Pmshr::paper_default();
        let w = walk_for(5);
        let a = p.present(w, block(5), 100).unwrap();
        let Presented::Allocated(idx) = a else { panic!("expected allocation") };
        // Same PTE address → coalesced.
        let b = p.present(w, block(5), 101).unwrap();
        assert_eq!(b, Presented::Coalesced(idx));
        assert_eq!(p.entry(idx).waiters, vec![100, 101]);
        assert_eq!(p.occupancy(), 1);
        assert_eq!(p.stats().coalesced, 1);
    }

    #[test]
    fn different_pages_get_different_entries() {
        let mut p = Pmshr::paper_default();
        // Two distinct VPNs within one page table → distinct PTE addresses.
        let mut pt = PageTable::new();
        for vpn in [1u64, 2] {
            pt.set_pte(Vpn(vpn), Pte::lba_augmented(block(vpn), PteFlags::user_data()));
        }
        let w1 = pt.walk(Vpn(1)).unwrap();
        let w2 = pt.walk(Vpn(2)).unwrap();
        let a = p.present(w1, block(1), 1).unwrap();
        let b = p.present(w2, block(2), 2).unwrap();
        assert!(matches!(a, Presented::Allocated(_)));
        assert!(matches!(b, Presented::Allocated(_)));
        assert_ne!(a, b);
        assert_eq!(p.occupancy(), 2);
    }

    #[test]
    fn full_cam_rejects() {
        let mut p = Pmshr::new(2);
        let mut pt = PageTable::new();
        for vpn in 0..3u64 {
            pt.set_pte(Vpn(vpn), Pte::lba_augmented(block(vpn), PteFlags::user_data()));
        }
        for vpn in 0..2u64 {
            p.present(pt.walk(Vpn(vpn)).unwrap(), block(vpn), vpn).unwrap();
        }
        assert!(p.is_full());
        let err = p.present(pt.walk(Vpn(2)).unwrap(), block(2), 9);
        assert_eq!(err, Err(PmshrError::Full));
        assert_eq!(p.stats().full_rejections, 1);
        // Coalescing still works when full.
        let again = p.present(pt.walk(Vpn(0)).unwrap(), block(0), 10).unwrap();
        assert!(matches!(again, Presented::Coalesced(_)));
    }

    #[test]
    fn invalidate_frees_slot_and_returns_waiters() {
        let mut p = Pmshr::new(1);
        let w = walk_for(7);
        let Presented::Allocated(idx) = p.present(w, block(7), 42).unwrap() else {
            panic!("expected allocation")
        };
        p.set_frame(idx, Pfn(9), PhysAddr(9 << 12));
        let e = p.invalidate(idx).unwrap();
        assert_eq!(e.waiters, vec![42]);
        assert_eq!(e.pfn, Some(Pfn(9)));
        assert_eq!(p.occupancy(), 0);
        // Slot is reusable.
        assert!(matches!(p.present(w, block(7), 1), Ok(Presented::Allocated(_))));
    }

    #[test]
    fn lookup_after_invalidate_misses() {
        let mut p = Pmshr::new(4);
        let w = walk_for(3);
        let Presented::Allocated(idx) = p.present(w, block(3), 1).unwrap() else {
            panic!("expected allocation")
        };
        assert_eq!(p.lookup(w.pte_addr), Some(idx));
        p.invalidate(idx);
        assert_eq!(p.lookup(w.pte_addr), None);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut p = Pmshr::new(8);
        let mut pt = PageTable::new();
        for vpn in 0..5u64 {
            pt.set_pte(Vpn(vpn), Pte::lba_augmented(block(vpn), PteFlags::user_data()));
        }
        let idxs: Vec<_> = (0..5u64)
            .map(|vpn| match p.present(pt.walk(Vpn(vpn)).unwrap(), block(vpn), vpn).unwrap() {
                Presented::Allocated(i) => i,
                _ => panic!("fresh pages allocate"),
            })
            .collect();
        for i in idxs {
            p.invalidate(i);
        }
        assert_eq!(p.stats().high_water, 5);
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn audit_clean_through_miss_lifecycle() {
        let mut p = Pmshr::new(4);
        let mut pt = PageTable::new();
        for vpn in 0..3u64 {
            pt.set_pte(Vpn(vpn), Pte::lba_augmented(block(vpn), PteFlags::user_data()));
        }
        let idxs: Vec<_> = (0..3u64)
            .map(|vpn| match p.present(pt.walk(Vpn(vpn)).unwrap(), block(vpn), vpn).unwrap() {
                Presented::Allocated(i) => i,
                _ => panic!("fresh pages allocate"),
            })
            .collect();
        p.set_frame(idxs[0], Pfn(9), PhysAddr(9 << 12));
        let mut report = hwdp_sim::AuditReport::new();
        p.audit(&mut report);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.checks >= 4, "occupancy + one per live entry + frame-dma");
        p.invalidate(idxs[1]);
        let mut report = hwdp_sim::AuditReport::new();
        p.audit(&mut report);
        assert!(report.is_clean());
    }

    #[test]
    fn negative_duplicate_outstanding_fault_detected() {
        // Injected corruption: two live entries keyed by the same PTE
        // address — the aliasing the CAM lookup exists to prevent (§V).
        let mut p = Pmshr::new(4);
        let w = walk_for(5);
        let Presented::Allocated(idx) = p.present(w, block(5), 1).unwrap() else {
            panic!("expected allocation")
        };
        p.inject_duplicate_for_test(idx);
        let mut report = hwdp_sim::AuditReport::new();
        p.audit(&mut report);
        let dup: Vec<_> =
            report.violations.iter().filter(|v| v.invariant == "pmshr-duplicate").collect();
        assert_eq!(dup.len(), 1, "{:?}", report.violations);
        assert_eq!(dup[0].layer, "smu");
        assert!(dup[0].message.contains("duplicate outstanding fault"));
        // The injected clone also desyncs the occupancy counter.
        assert!(report.violations.iter().any(|v| v.invariant == "pmshr-occupancy"));
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn entry_access_after_invalidate_panics() {
        let mut p = Pmshr::new(1);
        let w = walk_for(1);
        let Presented::Allocated(idx) = p.present(w, block(1), 1).unwrap() else {
            panic!("expected allocation")
        };
        p.invalidate(idx);
        let _ = p.entry(idx);
    }
}
