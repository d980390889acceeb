//! The kernel state machine: frame allocation & reclaim, mmap population,
//! fault bookkeeping, `kpted` metadata sync, `kpoold` refill support, and
//! kernel-work accounting.
//!
//! Timing lives in the system simulator (`hwdp-core`); this module owns
//! the *state transitions* and the instruction accounting that Fig. 15
//! reports.

use hwdp_mem::addr::{BlockRef, PageData, Pfn, Vpn};
use hwdp_mem::page_table::{PageTable, ScanStats};
use hwdp_mem::phys::FramePool;
use hwdp_mem::pte::{Pte, PteFlags};

use crate::costs::{BackgroundCosts, OsdpCosts, SwOnlyCosts};
use crate::fs::{FileId, MiniFs};
use crate::page_cache::{PageCache, Victim};
use crate::vma::{AddressSpace, MmapFlags, Vma, VmaId};

/// A page chosen for eviction, with everything the I/O layer needs to
/// write it back and everything already done to the page tables.
#[derive(Clone, Debug)]
pub struct Eviction {
    /// File identity.
    pub file: FileId,
    /// Page index within the file.
    pub page: u64,
    /// The storage block to write to (current FS mapping).
    pub block: BlockRef,
    /// Whether the page was dirty (needs a device write).
    pub dirty: bool,
    /// Snapshot of the page contents taken at eviction time (the frame is
    /// recycled immediately; the writeback uses this snapshot).
    pub data: PageData,
    /// The VPN whose translation was torn down (TLB shootdown target).
    pub vpn: Option<Vpn>,
}

/// Kernel instruction/cycle accounting, split by context as in Fig. 15.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelAccounting {
    /// Kernel instructions retired in application thread context (fault
    /// handling, syscalls).
    pub app_kernel_instr: u64,
    /// Instructions retired by `kpted`.
    pub kpted_instr: u64,
    /// Instructions retired by `kpoold`.
    pub kpoold_instr: u64,
}

impl KernelAccounting {
    /// Total kernel instructions across all contexts.
    pub fn total_instr(&self) -> u64 {
        self.app_kernel_instr + self.kpted_instr + self.kpoold_instr
    }

    /// Kernel cycles, modelling inline kernel code at `kernel_ipc` and
    /// `kpted`'s batched work at `kernel_ipc × batch_speedup` (the paper
    /// observes kpted's cycle reduction outpacing its instruction
    /// reduction thanks to batching).
    pub fn total_cycles(&self, kernel_ipc: f64, batch_speedup: f64) -> u64 {
        let inline = (self.app_kernel_instr + self.kpoold_instr) as f64 / kernel_ipc;
        let batched = self.kpted_instr as f64 / (kernel_ipc * batch_speedup);
        (inline + batched) as u64
    }
}

/// Fault classification for the OSDP path.
///
/// Evictions performed to free the frame are appended to the caller's
/// scratch buffer by [`Os::osdp_fault`] rather than carried here, so the
/// steady-state fault path never allocates.
#[derive(Clone, Copy, Debug)]
pub enum FaultPlan {
    /// The page is already cached (minor fault): map it and continue.
    Minor {
        /// The cached frame.
        pfn: Pfn,
    },
    /// A device read is required (major fault).
    Major {
        /// Frame allocated to receive the data.
        pfn: Pfn,
        /// Where to read from.
        block: BlockRef,
    },
    /// First touch of an anonymous page (§V): allocate and zero-fill, no
    /// device I/O.
    ZeroFill {
        /// The freshly zeroed frame.
        pfn: Pfn,
    },
}

/// OS-level statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct OsStats {
    /// Minor faults (page-cache hits).
    pub minor_faults: u64,
    /// Major faults handled by the OS path.
    pub major_faults: u64,
    /// Pages evicted by reclaim.
    pub evictions: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
    /// Pages synchronized by `kpted`.
    pub kpted_synced: u64,
    /// `kpted` scan passes.
    pub kpted_scans: u64,
    /// Frames handed to the SMU free queue by refill.
    pub refilled_frames: u64,
}

/// The kernel.
#[derive(Debug)]
pub struct Os {
    /// Physical memory.
    pub frames: FramePool,
    /// The file system.
    pub fs: MiniFs,
    /// The (single) process address space.
    pub aspace: AddressSpace,
    /// The process page table (LBA-augmented).
    pub page_table: PageTable,
    /// Page cache + LRU + rmap.
    pub cache: PageCache,
    /// OSDP fault-path cost model.
    pub osdp_costs: OsdpCosts,
    /// Software-only path cost model.
    pub sw_costs: SwOnlyCosts,
    /// Background-thread cost model.
    pub bg_costs: BackgroundCosts,
    /// Kernel-work accounting.
    pub acct: KernelAccounting,
    stats: OsStats,
    /// Frames the OS keeps in reserve for its own allocations.
    reserve: usize,
    /// Reusable victim buffer for [`Os::reclaim_into`].
    scratch_victims: Vec<Victim>,
}

impl Os {
    /// Creates a kernel managing `total_frames` of physical memory.
    pub fn new(total_frames: usize) -> Self {
        Os {
            frames: FramePool::new(total_frames),
            fs: MiniFs::new(),
            aspace: AddressSpace::new(),
            page_table: PageTable::new(),
            cache: PageCache::new(),
            osdp_costs: OsdpCosts::paper_default(),
            sw_costs: SwOnlyCosts::paper_default(),
            bg_costs: BackgroundCosts::paper_default(),
            acct: KernelAccounting::default(),
            stats: OsStats::default(),
            reserve: (total_frames / 64).max(8),
            scratch_victims: Vec::new(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    fn prot_of(flags: MmapFlags) -> PteFlags {
        if flags.read_only {
            PteFlags::user_ro()
        } else {
            PteFlags::user_data()
        }
    }

    /// The storage block an LBA-augmented PTE for `(file, page)` should
    /// point at: the real block for file pages and swapped-out anonymous
    /// pages, the reserved [`hwdp_mem::addr::Lba::ANON_ZERO`] constant for
    /// never-written anonymous pages (§V).
    pub fn block_for(&self, file: FileId, page: u64) -> BlockRef {
        let (socket, device, _, lba) = self.fs.location(file, page);
        let lba = if self.fs.is_anon(file) && !self.fs.is_swap_initialized(file, page) {
            hwdp_mem::addr::Lba::ANON_ZERO
        } else {
            lba
        };
        BlockRef::new(socket, device, lba)
    }

    /// `mmap()` — maps `file` in full. For fast mappings (§IV-B) every PTE
    /// is populated eagerly: pages already in the cache are linked
    /// directly; all others become LBA-augmented. The file is marked so
    /// future block remaps propagate. Returns the new VMA.
    pub fn mmap(&mut self, file: FileId, flags: MmapFlags) -> (VmaId, Vma) {
        let pages = self.fs.pages(file);
        let (id, vma) = self.aspace.insert(file, 0, pages, flags);
        self.acct.app_kernel_instr += 600; // mmap syscall base cost
        if flags.fast {
            self.fs.mark_lba_mapped(file);
            let prot = Self::prot_of(flags);
            for p in 0..pages {
                let vpn = vma.base.add(p);
                if let Some(pfn) = self.cache.lookup(file, p) {
                    self.page_table.set_pte(vpn, Pte::present(pfn, prot));
                } else {
                    let block = self.block_for(file, p);
                    self.page_table.set_pte(vpn, Pte::lba_augmented(block, prot));
                }
                // PTE population: ~12 instructions per entry (retrieving the
                // LBA from the FS mapping and writing the entry).
                self.acct.app_kernel_instr += 12;
            }
        }
        (id, vma)
    }

    /// Anonymous `mmap()` (§V): creates swap backing of `pages` blocks on
    /// the given device and maps it. Under fast mmap every PTE is
    /// LBA-augmented with the reserved first-touch constant, so the SMU
    /// zero-fills without I/O; once a page is swapped out, its PTE carries
    /// the real swap-block LBA and swap-in is an ordinary hardware miss.
    pub fn mmap_anon(
        &mut self,
        socket: hwdp_mem::addr::SocketId,
        device: hwdp_mem::addr::DeviceId,
        nsid: u32,
        pages: u64,
        flags: MmapFlags,
    ) -> (VmaId, Vma) {
        let file = self.fs.create_anon("[anon]", socket, device, nsid, pages);
        self.mmap(file, flags)
    }

    /// Installs a resident mapping (population, or fault completion):
    /// writes the PTE, inserts the page into the cache/LRU/rmap, and tags
    /// the frame.
    pub fn map_resident(&mut self, vma: Vma, file_page: u64, pfn: Pfn) {
        let Some(vpn) = vma.vpn_of_file_page(file_page) else { return };
        let prot = Self::prot_of(vma.flags);
        self.page_table.set_pte(vpn, Pte::present(pfn, prot).with_accessed());
        self.cache.insert(vma.file, file_page, pfn, Some(vpn));
        self.frames.set_owner(pfn, Some((vma.file.0, file_page)));
    }

    /// Allocates one frame, reclaiming if the pool is below reserve.
    /// Returns the frame and any evictions performed, or `None` when even
    /// direct reclaim cannot produce a frame (a memory leak in the
    /// simulation — everything reclaimable is accounted for).
    ///
    /// Convenience wrapper over [`Os::alloc_frame_into`] for setup paths
    /// and tests; the hot fault path passes a reusable scratch buffer.
    pub fn alloc_frame(&mut self) -> Option<(Pfn, Vec<Eviction>)> {
        let mut evictions = Vec::new();
        self.alloc_frame_into(&mut evictions).map(|pfn| (pfn, evictions))
    }

    /// Allocation-free [`Os::alloc_frame`]: evictions performed to free
    /// the frame are appended to `evictions`. On failure (`None`) the
    /// buffer is left exactly as it was on entry, matching the historical
    /// contract that a failed allocation reports no evictions.
    pub fn alloc_frame_into(&mut self, evictions: &mut Vec<Eviction>) -> Option<Pfn> {
        let entry = evictions.len();
        if self.frames.free_count() <= self.reserve {
            let want = self.reserve.max(16);
            self.reclaim_into(want, evictions);
        }
        if self.frames.free_count() == 0 {
            // Hardware-handled pages not yet synced by kpted are invisible
            // to the LRU; under extreme pressure the kernel syncs
            // synchronously (direct reclaim) so they become evictable.
            self.kpted_scan();
            self.reclaim_into(self.reserve.max(16), evictions);
        }
        let pfn = self.frames.alloc().or_else(|| {
            // Reserve breached and nothing reclaimed yet: force a reclaim.
            self.reclaim_into(16, evictions);
            self.frames.alloc()
        });
        if pfn.is_none() {
            evictions.truncate(entry);
        }
        pfn
    }

    /// Runs the clock over OS-known pages, evicting up to `n`. Fast-VMA
    /// pages get their PTE rewritten to LBA-augmented (§IV-B: LBA written
    /// back, present cleared, LBA bit set); normal pages get an empty PTE.
    /// The freed frames return to the pool.
    ///
    /// Convenience wrapper over [`Os::reclaim_into`] for tests and setup
    /// paths.
    pub fn reclaim(&mut self, n: usize) -> Vec<Eviction> {
        let mut out = Vec::new();
        self.reclaim_into(n, &mut out);
        out
    }

    /// Allocation-free [`Os::reclaim`]: evictions are appended to `out`.
    pub fn reclaim_into(&mut self, n: usize, out: &mut Vec<Eviction>) {
        // Split borrows: the clock callback inspects PTE accessed bits.
        let mut victims = std::mem::take(&mut self.scratch_victims);
        let Os { cache, page_table, .. } = self;
        cache.select_victims_into(
            n,
            |_, _, vpn| {
                let Some(e) = vpn.and_then(|vpn| page_table.leaf_mut(vpn)) else { return false };
                if e.is_accessed() {
                    *e = e.clear_accessed();
                    true
                } else {
                    false
                }
            },
            &mut victims,
        );
        out.reserve(victims.len());
        for &v in &victims {
            let dirty = self.frames.is_dirty(v.pfn)
                || v.vpn.map(|vpn| self.page_table.pte(vpn).is_dirty()).unwrap_or(false);
            // A dirty anonymous page is being swapped out for the first
            // time: its swap block becomes live and the PTE must carry the
            // real LBA from now on (§V swap-out).
            if dirty && self.fs.is_anon(v.file) {
                self.fs.mark_swap_initialized(v.file, v.page);
            }
            // Writebacks always target the page's current block (its tier
            // migration override, if any); the PTE gets the sentinel again
            // only if the anon page is still never-written.
            let (socket, device, _, lba) = self.fs.location(v.file, v.page);
            let wb_block = BlockRef::new(socket, device, lba);
            let pte_block = self.block_for(v.file, v.page);
            let data = self.frames.free(v.pfn);
            if let Some(vpn) = v.vpn {
                let fast = self
                    .aspace
                    .resolve(vpn)
                    .map(|(_, vma)| vma.flags.fast)
                    .unwrap_or(false);
                // A cached page's leaf was populated when the page was
                // mapped, and tables are never freed.
                if let Some(e) = self.page_table.leaf_mut(vpn) {
                    *e = if fast { e.evict_to(pte_block) } else { Pte::EMPTY };
                }
            }
            self.stats.evictions += 1;
            if dirty {
                self.stats.writebacks += 1;
            }
            // Reclaim work: ~800 instructions per evicted page.
            self.acct.app_kernel_instr += 800;
            out.push(Eviction { file: v.file, page: v.page, block: wb_block, dirty, data, vpn: v.vpn });
        }
        self.scratch_victims = victims;
    }

    /// §IV-B: the file system moved `page` of `file` to a new block
    /// (copy-on-write / log-structured update). If the file is fast-mmapped
    /// and the page is non-resident, its LBA-augmented PTE is rewritten to
    /// the new location. Returns `(old, new)` LBAs.
    pub fn on_block_remap(&mut self, file: FileId, page: u64) -> (hwdp_mem::addr::Lba, hwdp_mem::addr::Lba) {
        let (old, new, propagate) = self.fs.remap_page(file, page);
        if propagate {
            let (socket, device, _) = self.fs.home(file);
            self.propagate_block_update(file, page, BlockRef::new(socket, device, new));
        }
        (old, new)
    }

    /// Rewrites every LBA-augmented PTE mapping `(file, page)` to point at
    /// `block`. Shared by block remaps (§IV-B) and tier-migration commits,
    /// both of which move a non-resident page's backing store.
    pub fn propagate_block_update(&mut self, file: FileId, page: u64, block: BlockRef) {
        // Split borrows: the address-space walk only reads VMAs while the
        // page table is updated, so no intermediate collection is needed.
        let Os { aspace, page_table, .. } = self;
        for (_, vma) in aspace.iter() {
            if vma.file != file {
                continue;
            }
            let Some(vpn) = vma.vpn_of_file_page(page) else { continue };
            if page_table.pte(vpn).class() == hwdp_mem::pte::PteClass::LbaAugmented {
                page_table.update_pte(vpn, |p| p.evict_to(block));
            }
        }
        self.acct.app_kernel_instr += 120;
    }

    /// §V: a process `fork()` reverts the area's LBA-augmented PTEs to
    /// normal OS-handled PTEs, because the current design does not support
    /// sharing fast-mmapped pages across address spaces. Returns how many
    /// PTEs were reverted.
    pub fn fork_revert_lba(&mut self, id: VmaId) -> u64 {
        // VMA ids come only from `mmap`; an unknown one is a caller bug.
        #[allow(clippy::expect_used)]
        let vma = self.aspace.get(id).expect("fork of unmapped VMA");
        let mut reverted = 0;
        for p in 0..vma.pages {
            let vpn = vma.base.add(p);
            if self.page_table.pte(vpn).class() == hwdp_mem::pte::PteClass::LbaAugmented {
                self.page_table.set_pte(vpn, Pte::EMPTY);
                reverted += 1;
            }
        }
        self.acct.app_kernel_instr += 200 + 4 * vma.pages;
        reverted
    }

    /// Classifies and prepares an OSDP fault at `vpn` (also used for the
    /// HWDP fallback when the free-page queue is empty).
    ///
    /// Evictions performed to free the frame are appended to `evictions`
    /// (a caller-owned scratch buffer, so the fault path never allocates).
    ///
    /// Returns `None` if `vpn` is not covered by any VMA (a real segfault
    /// — the workloads never do this) or frame allocation fails; the
    /// caller surfaces the anomaly instead of the process aborting.
    pub fn osdp_fault(&mut self, vpn: Vpn, evictions: &mut Vec<Eviction>) -> Option<FaultPlan> {
        let (_, vma) = self.aspace.resolve(vpn)?;
        let file_page = vma.file_page(vpn);
        self.acct.app_kernel_instr += self.osdp_costs.instructions_per_fault();
        if let Some(pfn) = self.cache.lookup(vma.file, file_page) {
            self.stats.minor_faults += 1;
            let prot = Self::prot_of(vma.flags);
            self.page_table.set_pte(vpn, Pte::present(pfn, prot).with_accessed());
            return Some(FaultPlan::Minor { pfn });
        }
        // Anonymous first touch: no backing data exists yet — zero-fill
        // without any device I/O (a minor fault in Linux terms, §V).
        if self.fs.is_anon(vma.file) && !self.fs.is_swap_initialized(vma.file, file_page) {
            self.stats.minor_faults += 1;
            let pfn = self.alloc_frame_into(evictions)?;
            return Some(FaultPlan::ZeroFill { pfn });
        }
        self.stats.major_faults += 1;
        let pfn = self.alloc_frame_into(evictions)?;
        let block = self.block_for(vma.file, file_page);
        Some(FaultPlan::Major { pfn, block })
    }

    /// Completes an OSDP major fault after the device read: maps the page
    /// and updates OS metadata inline (the conventional path). If the VMA
    /// vanished mid-flight (teardown raced the I/O), the data is dropped
    /// and the frame released instead of crashing.
    pub fn osdp_fault_complete(&mut self, vpn: Vpn, pfn: Pfn) {
        let Some((_, vma)) = self.aspace.resolve(vpn) else {
            self.release_fault_frame(pfn);
            return;
        };
        let file_page = vma.file_page(vpn);
        self.map_resident(vma, file_page, pfn);
    }

    /// Aborts an OSDP major fault whose device read ultimately failed
    /// (fault-injection recovery): releases the frame that was allocated
    /// to receive the data. The PTE stays not-present, so a later access
    /// simply re-faults.
    pub fn osdp_fault_abort(&mut self, _vpn: Vpn, pfn: Pfn) {
        self.release_fault_frame(pfn);
        // Error-path unwind: undo the allocation, drop the page lock.
        self.acct.app_kernel_instr += 300;
    }

    /// Frees a fault-allocated frame that never got mapped. Tolerates a
    /// frame that was already reclaimed out from under the fault.
    fn release_fault_frame(&mut self, pfn: Pfn) {
        if (pfn.0 as usize) < self.frames.total()
            && self.frames.state(pfn) == hwdp_mem::phys::FrameState::Allocated
        {
            self.frames.free(pfn);
        }
    }

    /// One `kpted` pass (§IV-C): scan page tables using the upper-level
    /// LBA bits, and for every hardware-handled PTE update the OS
    /// metadata (cache/LRU/rmap insert) and clear its LBA bit.
    pub fn kpted_scan(&mut self) -> (u64, ScanStats) {
        let Os { cache, page_table, aspace, frames, .. } = self;
        let mut synced = 0u64;
        let stats = page_table.scan_needs_sync(|vpn, pte| {
            // A needs-sync PTE is present by construction; skip (leave the
            // entry untouched) if the invariant ever slips.
            let Some(pfn) = pte.pfn() else { return pte };
            if let Some((_, vma)) = aspace.resolve(vpn) {
                let file_page = vma.file_page(vpn);
                // The SMU mapped this page; only now does the OS learn of
                // it.
                if cache.lookup(vma.file, file_page).is_none() {
                    cache.insert(vma.file, file_page, pfn, Some(vpn));
                    frames.set_owner(pfn, Some((vma.file.0, file_page)));
                }
            }
            synced += 1;
            pte.clear_lba_bit()
        });
        self.stats.kpted_scans += 1;
        self.stats.kpted_synced += synced;
        self.acct.kpted_instr += self.bg_costs.kpted_instr_per_scan
            + synced * self.bg_costs.kpted_instr_per_page
            + stats.entries_examined / 8; // amortized pruned-walk cost
        (synced, stats)
    }

    /// `kpoold` support: allocates up to `n` frames for the SMU free-page
    /// queue (reclaiming as needed). Returns the frames and any
    /// evictions/writebacks produced.
    ///
    /// Convenience wrapper over [`Os::take_frames_for_refill_into`] for
    /// tests; the kpoold tick passes reusable scratch buffers.
    pub fn take_frames_for_refill(&mut self, n: usize) -> (Vec<Pfn>, Vec<Eviction>) {
        let mut frames = Vec::new();
        let mut evictions = Vec::new();
        self.take_frames_for_refill_into(n, &mut frames, &mut evictions);
        (frames, evictions)
    }

    /// Allocation-free [`Os::take_frames_for_refill`]: frames and
    /// evictions are appended to the caller's scratch buffers.
    pub fn take_frames_for_refill_into(
        &mut self,
        n: usize,
        frames: &mut Vec<Pfn>,
        evictions: &mut Vec<Eviction>,
    ) {
        let start = frames.len();
        frames.reserve(n);
        for _ in 0..n {
            // Stop rather than thrash when memory is this tight.
            if self.frames.free_count() <= self.reserve {
                let before = evictions.len();
                self.reclaim_into(self.reserve.max(16), evictions);
                if evictions.len() == before && self.frames.free_count() == 0 {
                    break;
                }
            }
            match self.frames.alloc() {
                Some(p) => frames.push(p),
                None => break,
            }
        }
        let taken = (frames.len() - start) as u64;
        self.stats.refilled_frames += taken;
        self.acct.kpoold_instr += taken * self.bg_costs.kpoold_instr_per_page;
    }

    /// `munmap()` (§IV-C): callers must first drain outstanding SMU misses
    /// for the area (the core enforces the SMU barrier); then this updates
    /// OS metadata for any still-unsynced PTEs, tears down the mappings,
    /// and frees the frames. Returns evictions needing writeback.
    pub fn munmap(&mut self, id: VmaId) -> Vec<Eviction> {
        // Metadata must be consistent before unmapping (§IV-C).
        self.kpted_scan();
        let Some(vma) = self.aspace.remove(id) else { return Vec::new() };
        let mut evictions = Vec::new();
        for p in 0..vma.pages {
            let vpn = vma.base.add(p);
            let pte = self.page_table.pte(vpn);
            if pte.is_present() {
                // A present PTE always carries a frame.
                #[allow(clippy::expect_used)]
                let pfn = pte.pfn().expect("present");
                let file_page = vma.file_page(vpn);
                let (socket, device, _, lba) = self.fs.location(vma.file, file_page);
                let dirty = self.frames.is_dirty(pfn) || pte.is_dirty();
                if dirty && self.fs.is_anon(vma.file) {
                    self.fs.mark_swap_initialized(vma.file, file_page);
                }
                self.cache.remove(vma.file, file_page);
                let data = self.frames.free(pfn);
                if dirty {
                    self.stats.writebacks += 1;
                    evictions.push(Eviction {
                        file: vma.file,
                        page: file_page,
                        block: BlockRef::new(socket, device, lba),
                        dirty: true,
                        data,
                        vpn: Some(vpn),
                    });
                }
            }
            self.page_table.set_pte(vpn, Pte::EMPTY);
        }
        self.acct.app_kernel_instr += 400 + 20 * vma.pages;
        evictions
    }

    /// `msync()` (§IV-C): sync OS metadata first, then return writebacks
    /// for every dirty resident page of the area. Frames stay mapped;
    /// their dirty bits are cleared.
    pub fn msync(&mut self, id: VmaId) -> Vec<Eviction> {
        self.kpted_scan();
        // VMA ids come only from `mmap`; an unknown one is a caller bug.
        #[allow(clippy::expect_used)]
        let vma = self.aspace.get(id).expect("msync of unmapped VMA");
        let mut out = Vec::new();
        for p in 0..vma.pages {
            let vpn = vma.base.add(p);
            let pte = self.page_table.pte(vpn);
            if let Some(pfn) = pte.pfn() {
                if self.frames.is_dirty(pfn) || pte.is_dirty() {
                    let file_page = vma.file_page(vpn);
                    let (socket, device, _, lba) = self.fs.location(vma.file, file_page);
                    if self.fs.is_anon(vma.file) {
                        self.fs.mark_swap_initialized(vma.file, file_page);
                    }
                    self.frames.clear_dirty(pfn);
                    self.stats.writebacks += 1;
                    out.push(Eviction {
                        file: vma.file,
                        page: file_page,
                        block: BlockRef::new(socket, device, lba),
                        dirty: true,
                        data: self.frames.snapshot(pfn),
                        vpn: Some(vpn),
                    });
                }
            }
        }
        self.acct.app_kernel_instr += 500 + 10 * vma.pages;
        out
    }

    /// Number of OS-known resident pages (page-cache size).
    pub fn resident_pages(&self) -> usize {
        self.cache.len()
    }
}

impl hwdp_sim::sanitize::Sanitizer for Os {
    fn layer(&self) -> &'static str {
        "os"
    }

    fn sanitize(
        &self,
        level: hwdp_sim::sanitize::SanitizeLevel,
        report: &mut hwdp_sim::sanitize::AuditReport,
    ) {
        if !level.cheap_checks() {
            return;
        }
        let layer = "os";
        self.frames.audit(report);
        report.check_args(
            layer,
            "cache-size",
            self.cache.len() <= self.frames.total(),
            format_args!(
                "{} cached pages exceed {} physical frames",
                self.cache.len(),
                self.frames.total()
            ),
        );
        if !level.full_checks() {
            return;
        }
        let mut frame_users: std::collections::BTreeMap<u64, (u32, u64)> =
            std::collections::BTreeMap::new();
        for (file, page, pfn, _vpn) in self.cache.iter() {
            let in_range = (pfn.0 as usize) < self.frames.total();
            report.check_args(
                layer,
                "cache-frame-range",
                in_range,
                format_args!("cache entry ({file:?},{page}) names out-of-range {pfn:?}"),
            );
            if !in_range {
                continue;
            }
            report.check_args(
                layer,
                "cache-frame-allocated",
                self.frames.state(pfn) == hwdp_mem::phys::FrameState::Allocated,
                format_args!("cache entry ({file:?},{page}) names {pfn:?}, which is on the free list"),
            );
            if let Some(owner) = self.frames.owner(pfn) {
                report.check_args(
                    layer,
                    "cache-frame-owner",
                    owner == (file.0, page),
                    format_args!("cache entry ({file:?},{page}) names {pfn:?}, owned by {owner:?}"),
                );
            }
            if let Some(prev) = frame_users.insert(pfn.0, (file.0, page)) {
                report.check_args(
                    layer,
                    "cache-frame-alias",
                    false,
                    format_args!("{pfn:?} cached by both {prev:?} and ({},{page})", file.0),
                );
            } else {
                report.checked();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdp_mem::addr::{DeviceId, Lba, SocketId};
    use hwdp_mem::pte::PteClass;

    fn os_with_file(frames: usize, file_pages: u64) -> (Os, FileId) {
        let mut os = Os::new(frames);
        os.fs.register_device(SocketId(0), DeviceId(0), file_pages + 64);
        let f = os.fs.create("data", SocketId(0), DeviceId(0), 1, file_pages);
        (os, f)
    }

    #[test]
    fn fast_mmap_populates_lba_ptes() {
        let (mut os, f) = os_with_file(64, 16);
        let (_, vma) = os.mmap(f, MmapFlags::fast());
        for p in 0..16u64 {
            let pte = os.page_table.pte(vma.base.add(p));
            assert_eq!(pte.class(), PteClass::LbaAugmented, "page {p}");
            assert_eq!(pte.block().unwrap().lba, Lba(p));
        }
        assert!(os.fs.is_lba_mapped(f));
        // Fast mmap allocated the full page-table footprint eagerly.
        assert!(os.page_table.tables_allocated() >= 4);
    }

    #[test]
    fn fast_mmap_links_cached_pages() {
        let (mut os, f) = os_with_file(64, 4);
        // Pre-cache page 2 (as if previously read via the OS path).
        let (pfn, _) = os.alloc_frame().unwrap();
        os.cache.insert(f, 2, pfn, None);
        let (_, vma) = os.mmap(f, MmapFlags::fast());
        assert_eq!(os.page_table.pte(vma.base.add(2)).pfn(), Some(pfn));
        assert_eq!(os.page_table.pte(vma.base.add(1)).class(), PteClass::LbaAugmented);
    }

    #[test]
    fn normal_mmap_leaves_ptes_empty() {
        let (mut os, f) = os_with_file(64, 4);
        let (_, vma) = os.mmap(f, MmapFlags::normal());
        assert_eq!(os.page_table.pte(vma.base).class(), PteClass::NotPresentOsHandled);
        let _ = vma;
    }

    #[test]
    fn osdp_fault_major_then_minor() {
        let (mut os, f) = os_with_file(64, 8);
        let (_, vma) = os.mmap(f, MmapFlags::normal());
        let vpn = vma.base.add(3);
        let mut evictions = Vec::new();
        let FaultPlan::Major { pfn, block } = os.osdp_fault(vpn, &mut evictions).unwrap() else {
            panic!("first touch is a major fault")
        };
        assert_eq!(block.lba, Lba(3));
        assert!(evictions.is_empty(), "plenty of memory");
        os.osdp_fault_complete(vpn, pfn);
        assert_eq!(os.page_table.pte(vpn).pfn(), Some(pfn));
        // A second thread faulting the same page now takes the minor path.
        os.page_table.set_pte(vpn, Pte::EMPTY); // simulate another mapping's view
        let FaultPlan::Minor { pfn: again } = os.osdp_fault(vpn, &mut evictions).unwrap() else {
            panic!("cached page gives a minor fault")
        };
        assert_eq!(again, pfn);
        assert_eq!(os.stats().major_faults, 1);
        assert_eq!(os.stats().minor_faults, 1);
    }

    #[test]
    fn reclaim_rewrites_fast_ptes_to_lba() {
        let (mut os, f) = os_with_file(40, 16);
        let (_, vma) = os.mmap(f, MmapFlags::fast());
        // Resident pages 0..8.
        for p in 0..8 {
            let (pfn, _) = os.alloc_frame().unwrap();
            os.map_resident(vma, p, pfn);
        }
        // Clear accessed bits so the clock can take them.
        for p in 0..8 {
            os.page_table.update_pte(vma.base.add(p), Pte::clear_accessed);
        }
        let evs = os.reclaim(4);
        assert_eq!(evs.len(), 4);
        for ev in &evs {
            let pte = os.page_table.pte(ev.vpn.unwrap());
            assert_eq!(pte.class(), PteClass::LbaAugmented, "evicted fast page re-augmented");
            assert_eq!(pte.block().unwrap().lba, os.fs.lba_of(f, ev.page));
        }
        assert_eq!(os.stats().evictions, 4);
    }

    #[test]
    fn alloc_frame_reclaims_under_pressure() {
        let (mut os, f) = os_with_file(32, 64);
        let (_, vma) = os.mmap(f, MmapFlags::fast());
        // Exhaust memory with resident pages.
        let mut mapped = 0;
        while os.frames.free_count() > os.reserve {
            let (pfn, _) = os.alloc_frame().unwrap();
            os.map_resident(vma, mapped, pfn);
            os.page_table.update_pte(vma.base.add(mapped), Pte::clear_accessed);
            mapped += 1;
        }
        // Next allocation must trigger reclaim but still succeed.
        let (pfn, evictions) = os.alloc_frame().unwrap();
        assert!(!evictions.is_empty(), "reclaim ran");
        let _ = pfn;
    }

    #[test]
    fn kpted_syncs_hardware_handled_pages() {
        let (mut os, f) = os_with_file(64, 8);
        let (_, vma) = os.mmap(f, MmapFlags::fast());
        // Simulate the SMU completing misses on pages 1 and 5.
        for p in [1u64, 5] {
            let vpn = vma.base.add(p);
            let walk = os.page_table.walk(vpn).unwrap();
            let (pfn, _) = os.alloc_frame().unwrap();
            os.page_table.smu_complete(&walk, pfn);
        }
        assert_eq!(os.resident_pages(), 0, "OS metadata not yet updated");
        let (synced, _) = os.kpted_scan();
        assert_eq!(synced, 2);
        assert_eq!(os.resident_pages(), 2, "pages now in cache/LRU");
        for p in [1u64, 5] {
            assert_eq!(os.page_table.pte(vma.base.add(p)).class(), PteClass::Resident);
            assert!(os.cache.lookup(f, p).is_some());
        }
        assert!(os.acct.kpted_instr > 0);
        // Second scan finds nothing.
        let (synced, _) = os.kpted_scan();
        assert_eq!(synced, 0);
    }

    #[test]
    fn refill_produces_frames_and_accounts() {
        let (mut os, _f) = os_with_file(64, 8);
        let (frames, evs) = os.take_frames_for_refill(10);
        assert_eq!(frames.len(), 10);
        assert!(evs.is_empty());
        assert_eq!(os.stats().refilled_frames, 10);
        assert_eq!(os.acct.kpoold_instr, 10 * os.bg_costs.kpoold_instr_per_page);
    }

    #[test]
    fn munmap_tears_down_and_reports_dirty() {
        let (mut os, f) = os_with_file(64, 4);
        let (id, vma) = os.mmap(f, MmapFlags::fast());
        let (pfn, _) = os.alloc_frame().unwrap();
        os.map_resident(vma, 0, pfn);
        os.frames.write(pfn, 0, b"dirty!");
        let evs = os.munmap(id);
        assert_eq!(evs.len(), 1, "one dirty page written back");
        assert_eq!(evs[0].page, 0);
        assert!(os.aspace.resolve(vma.base).is_none());
        assert_eq!(os.resident_pages(), 0);
        assert_eq!(os.page_table.pte(vma.base).class(), PteClass::NotPresentOsHandled);
    }

    #[test]
    fn munmap_syncs_unsynced_ptes_first() {
        let (mut os, f) = os_with_file(64, 4);
        let (id, vma) = os.mmap(f, MmapFlags::fast());
        // Hardware-handled page never synced by kpted.
        let vpn = vma.base.add(2);
        let walk = os.page_table.walk(vpn).unwrap();
        let (pfn, _) = os.alloc_frame().unwrap();
        os.page_table.smu_complete(&walk, pfn);
        os.frames.write(pfn, 0, b"x");
        let evs = os.munmap(id);
        assert_eq!(evs.len(), 1, "dirty hardware-handled page still written back");
        assert_eq!(evs[0].page, 2);
    }

    #[test]
    fn msync_flushes_dirty_but_keeps_mapping() {
        let (mut os, f) = os_with_file(64, 4);
        let (id, vma) = os.mmap(f, MmapFlags::fast());
        let (pfn, _) = os.alloc_frame().unwrap();
        os.map_resident(vma, 1, pfn);
        os.frames.write(pfn, 8, b"payload");
        let evs = os.msync(id);
        assert_eq!(evs.len(), 1);
        assert!(!os.frames.is_dirty(pfn), "dirty cleared after sync");
        assert_eq!(os.page_table.pte(vma.base.add(1)).pfn(), Some(pfn), "still mapped");
        let mut buf = [0u8; 7];
        evs[0].data.read(8, &mut buf);
        assert_eq!(&buf, b"payload");
        // Nothing dirty on a second sync.
        assert!(os.msync(id).is_empty());
    }

    #[test]
    fn os_audits_clean_after_faults_and_reclaim() {
        use hwdp_sim::sanitize::{AuditReport, SanitizeLevel, Sanitizer};
        let (mut os, f) = os_with_file(40, 16);
        let (_, vma) = os.mmap(f, MmapFlags::fast());
        for p in 0..8 {
            let (pfn, _) = os.alloc_frame().unwrap();
            os.map_resident(vma, p, pfn);
            os.page_table.update_pte(vma.base.add(p), Pte::clear_accessed);
        }
        os.reclaim(4);
        assert_eq!(os.layer(), "os");
        let mut report = AuditReport::new();
        os.sanitize(SanitizeLevel::Full, &mut report);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.checks > 0);
    }

    #[test]
    fn negative_cache_entry_to_free_frame_detected() {
        use hwdp_sim::sanitize::{AuditReport, SanitizeLevel, Sanitizer};
        // Injected corruption: a page-cache entry points at a frame that
        // was freed underneath it (the cache and pool disagree).
        let (mut os, f) = os_with_file(32, 4);
        let (pfn, _) = os.alloc_frame().unwrap();
        os.cache.insert(f, 0, pfn, None);
        os.frames.free(pfn);
        let mut report = AuditReport::new();
        os.sanitize(SanitizeLevel::Full, &mut report);
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| v.layer == "os" && v.invariant == "cache-frame-allocated"));
    }

    #[test]
    fn negative_aliased_frame_detected() {
        use hwdp_sim::sanitize::{AuditReport, SanitizeLevel, Sanitizer};
        // Injected corruption: two logical pages cache the same frame —
        // the aliasing the PMSHR exists to prevent (§V).
        let (mut os, f) = os_with_file(32, 4);
        let (pfn, _) = os.alloc_frame().unwrap();
        os.cache.insert(f, 0, pfn, None);
        os.cache.insert(f, 1, pfn, None);
        let mut report = AuditReport::new();
        os.sanitize(SanitizeLevel::Full, &mut report);
        assert!(report.violations.iter().any(|v| v.invariant == "cache-frame-alias"));
    }

    #[test]
    fn accounting_rolls_up() {
        let mut a = KernelAccounting { app_kernel_instr: 1000, kpted_instr: 1600, kpoold_instr: 400 };
        assert_eq!(a.total_instr(), 3000);
        let cycles = a.total_cycles(1.0, 1.6);
        assert_eq!(cycles, 1000 + 400 + 1000);
        a.app_kernel_instr += 1;
        assert_eq!(a.total_instr(), 3001);
    }
}
