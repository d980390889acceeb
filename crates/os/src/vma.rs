//! Virtual memory areas and the process address space.
//!
//! The paper deploys hardware-based demand paging **per VMA**: a new
//! `mmap()` flag selects fast (LBA-augmented) demand paging for areas
//! whose miss latency is critical (§IV-B). This module tracks the areas
//! and resolves faulting addresses back to `(file, page)`.

use crate::fs::FileId;
use hwdp_mem::addr::{VirtAddr, Vpn};

/// Flags controlling an mmap.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MmapFlags {
    /// The paper's new flag: handle misses in hardware via LBA-augmented
    /// PTEs.
    pub fast: bool,
    /// Map read-only.
    pub read_only: bool,
    /// Pre-load every page (the `MAP_POPULATE` baseline used for the
    /// "ideal" configuration of Fig. 4).
    pub populate: bool,
}

impl MmapFlags {
    /// The paper's fast file mmap.
    pub const fn fast() -> Self {
        MmapFlags { fast: true, read_only: false, populate: false }
    }

    /// Conventional demand-paged mmap.
    pub const fn normal() -> Self {
        MmapFlags { fast: false, read_only: false, populate: false }
    }

    /// Fully pre-populated mapping (no faults at run time).
    pub const fn populate() -> Self {
        MmapFlags { fast: false, read_only: false, populate: true }
    }
}

/// Identifies a VMA within an address space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VmaId(pub u32);

/// One mapped region.
#[derive(Clone, Copy, Debug)]
pub struct Vma {
    /// First page of the region.
    pub base: Vpn,
    /// Length in pages.
    pub pages: u64,
    /// Backing file.
    pub file: FileId,
    /// File page corresponding to `base`.
    pub file_page_offset: u64,
    /// Mapping flags.
    pub flags: MmapFlags,
}

impl Vma {
    /// Whether `vpn` falls inside this area.
    pub fn contains(&self, vpn: Vpn) -> bool {
        vpn.0 >= self.base.0 && vpn.0 < self.base.0 + self.pages
    }

    /// The file page backing `vpn`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `vpn` is outside the area.
    pub fn file_page(&self, vpn: Vpn) -> u64 {
        debug_assert!(self.contains(vpn));
        self.file_page_offset + (vpn.0 - self.base.0)
    }

    /// The VPN mapping a given file page, if it falls in this area.
    pub fn vpn_of_file_page(&self, file_page: u64) -> Option<Vpn> {
        if file_page < self.file_page_offset {
            return None;
        }
        let rel = file_page - self.file_page_offset;
        (rel < self.pages).then(|| self.base.add(rel))
    }
}

/// mmap region base: 0x6000_0000_0000 keeps well inside 48-bit canonical
/// space and far from any other synthetic region.
const MMAP_BASE: u64 = 0x6000_0000_0000;

/// A (single-process) address space: the VMA list. The page table itself
/// is owned by [`crate::kernel::Os`].
#[derive(Debug, Default)]
pub struct AddressSpace {
    vmas: Vec<Option<Vma>>,
    next_base: u64,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace { vmas: Vec::new(), next_base: MMAP_BASE >> 12 }
    }

    /// Reserves address space for a new mapping and records the VMA.
    /// A one-page guard gap is left between mappings.
    pub fn insert(&mut self, file: FileId, file_page_offset: u64, pages: u64, flags: MmapFlags) -> (VmaId, Vma) {
        assert!(pages > 0, "empty mapping");
        let base = Vpn(self.next_base);
        self.next_base += pages + 1;
        let vma = Vma { base, pages, file, file_page_offset, flags };
        self.vmas.push(Some(vma));
        (VmaId(self.vmas.len() as u32 - 1), vma)
    }

    /// Removes a VMA (munmap). Returns the removed area, or `None` if it
    /// was already unmapped (a double-unmap is a no-op).
    pub fn remove(&mut self, id: VmaId) -> Option<Vma> {
        self.vmas[id.0 as usize].take()
    }

    /// The VMA covering `vpn`, if any.
    pub fn resolve(&self, vpn: Vpn) -> Option<(VmaId, Vma)> {
        self.vmas
            .iter()
            .enumerate()
            .find_map(|(i, v)| v.filter(|v| v.contains(vpn)).map(|v| (VmaId(i as u32), v)))
    }

    /// Looks up a live VMA by id.
    pub fn get(&self, id: VmaId) -> Option<Vma> {
        self.vmas.get(id.0 as usize).and_then(|v| *v)
    }

    /// Iterates live VMAs.
    pub fn iter(&self) -> impl Iterator<Item = (VmaId, Vma)> + '_ {
        self.vmas
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (VmaId(i as u32), v)))
    }

    /// The VPNs mapping `(file, page)`, one per live VMA of the file that
    /// covers the page.
    pub fn vpns_of(&self, file: FileId, page: u64) -> impl Iterator<Item = Vpn> + '_ {
        self.iter()
            .filter(move |(_, v)| v.file == file)
            .filter_map(move |(_, v)| v.vpn_of_file_page(page))
    }

    /// Resolves a virtual address to `(vma, file, file_page, page_offset)`.
    pub fn translate(&self, addr: VirtAddr) -> Option<(VmaId, FileId, u64, usize)> {
        let (id, vma) = self.resolve(addr.vpn())?;
        Some((id, vma.file, vma.file_page(addr.vpn()), addr.page_offset()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_resolve() {
        let mut asp = AddressSpace::new();
        let (id, vma) = asp.insert(FileId(3), 0, 100, MmapFlags::fast());
        assert!(vma.contains(vma.base));
        assert!(vma.contains(vma.base.add(99)));
        assert!(!vma.contains(vma.base.add(100)));
        let (rid, rvma) = asp.resolve(vma.base.add(50)).expect("resolves");
        assert_eq!(rid, id);
        assert_eq!(rvma.file, FileId(3));
        assert_eq!(rvma.file_page(vma.base.add(50)), 50);
    }

    #[test]
    fn mappings_do_not_overlap() {
        let mut asp = AddressSpace::new();
        let (_, a) = asp.insert(FileId(0), 0, 10, MmapFlags::normal());
        let (_, b) = asp.insert(FileId(1), 0, 10, MmapFlags::normal());
        assert!(b.base.0 > a.base.0 + a.pages, "guard gap present");
        for p in 0..10 {
            assert!(!b.contains(a.base.add(p)));
        }
    }

    #[test]
    fn file_page_offset_respected() {
        let mut asp = AddressSpace::new();
        let (_, vma) = asp.insert(FileId(0), 64, 16, MmapFlags::fast());
        assert_eq!(vma.file_page(vma.base), 64);
        assert_eq!(vma.file_page(vma.base.add(15)), 79);
        assert_eq!(vma.vpn_of_file_page(64), Some(vma.base));
        assert_eq!(vma.vpn_of_file_page(79), Some(vma.base.add(15)));
        assert_eq!(vma.vpn_of_file_page(63), None);
        assert_eq!(vma.vpn_of_file_page(80), None);
    }

    #[test]
    fn translate_returns_offset() {
        let mut asp = AddressSpace::new();
        let (id, vma) = asp.insert(FileId(7), 0, 4, MmapFlags::fast());
        let addr = VirtAddr(vma.base.base().raw() + 2 * 4096 + 123);
        let (tid, file, page, off) = asp.translate(addr).expect("translates");
        assert_eq!(tid, id);
        assert_eq!(file, FileId(7));
        assert_eq!(page, 2);
        assert_eq!(off, 123);
    }

    #[test]
    fn remove_unmaps() {
        let mut asp = AddressSpace::new();
        let (id, vma) = asp.insert(FileId(0), 0, 4, MmapFlags::fast());
        let removed = asp.remove(id).unwrap();
        assert_eq!(removed.base, vma.base);
        assert!(asp.resolve(vma.base).is_none());
        assert!(asp.get(id).is_none());
    }

    #[test]
    fn double_unmap_is_a_noop() {
        let mut asp = AddressSpace::new();
        let (id, _) = asp.insert(FileId(0), 0, 4, MmapFlags::fast());
        assert!(asp.remove(id).is_some());
        assert!(asp.remove(id).is_none());
    }

    #[test]
    fn iter_skips_removed() {
        let mut asp = AddressSpace::new();
        let (a, _) = asp.insert(FileId(0), 0, 1, MmapFlags::fast());
        let (_b, _) = asp.insert(FileId(1), 0, 1, MmapFlags::fast());
        asp.remove(a);
        let live: Vec<_> = asp.iter().map(|(id, _)| id).collect();
        assert_eq!(live.len(), 1);
    }
}
