//! The physical frame pool: simulated DRAM.
//!
//! Frames carry *real page contents* ([`PageData`]) so the DMA path, user
//! load/store path, and eviction/writeback path move actual bytes —
//! integration tests assert byte-for-byte integrity across full
//! fault → DMA → evict → re-fault cycles.

use crate::addr::{PageData, Pfn, ReadSnapshot};

/// What a frame is currently used for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameState {
    /// On the allocator free list.
    Free,
    /// Allocated (to the OS page allocator, the SMU free-page queue, or a
    /// mapped page).
    Allocated,
}

/// Identity of the logical page a frame caches, for reverse mapping during
/// reclaim: `(file_id, page_index_within_file)`.
pub type FrameOwner = (u32, u64);

#[derive(Debug)]
struct Frame {
    state: FrameState,
    data: PageData,
    owner: Option<FrameOwner>,
    dirty: bool,
}

/// A fixed-size pool of 4 KiB physical frames with a free list.
///
/// ```
/// use hwdp_mem::{phys::FramePool, ReadSnapshot};
/// let mut pool = FramePool::new(8);
/// let f = pool.alloc().unwrap();
/// pool.write(f, 0, b"abc");
/// let mut snap = ReadSnapshot::default();
/// pool.read(f, 0, 3, &mut snap);
/// let mut buf = [0u8; 3];
/// snap.copy_to(&mut buf);
/// assert_eq!(&buf, b"abc");
/// pool.free(f);
/// ```
#[derive(Debug)]
pub struct FramePool {
    frames: Vec<Frame>,
    free_list: Vec<Pfn>,
}

impl FramePool {
    /// Creates a pool of `total` frames, all free and zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "frame pool must have at least one frame");
        let frames = (0..total)
            .map(|_| Frame { state: FrameState::Free, data: PageData::Zero, owner: None, dirty: false })
            .collect();
        // Pop order: lowest PFN first, for determinism.
        let free_list = (0..total as u64).rev().map(Pfn).collect();
        FramePool { frames, free_list }
    }

    /// Total number of frames.
    pub fn total(&self) -> usize {
        self.frames.len()
    }

    /// Number of free frames.
    pub fn free_count(&self) -> usize {
        self.free_list.len()
    }

    /// Allocates a frame (zeroing it), or `None` if the pool is exhausted.
    pub fn alloc(&mut self) -> Option<Pfn> {
        let pfn = self.free_list.pop()?;
        let f = &mut self.frames[pfn.0 as usize];
        debug_assert_eq!(f.state, FrameState::Free);
        f.state = FrameState::Allocated;
        f.data = PageData::Zero;
        f.owner = None;
        f.dirty = false;
        Some(pfn)
    }

    /// Returns a frame to the free list and hands back the contents it
    /// held, moved out rather than copied (an eviction's writeback data).
    ///
    /// # Panics
    ///
    /// Panics if the frame is already free (double free) or out of range.
    pub fn free(&mut self, pfn: Pfn) -> PageData {
        let f = &mut self.frames[pfn.0 as usize];
        assert_eq!(f.state, FrameState::Allocated, "double free of {pfn:?}");
        f.state = FrameState::Free;
        f.owner = None;
        f.dirty = false;
        self.free_list.push(pfn);
        std::mem::take(&mut f.data)
    }

    /// Current state of a frame.
    pub fn state(&self, pfn: Pfn) -> FrameState {
        self.frames[pfn.0 as usize].state
    }

    /// Replaces the whole contents of a frame (the DMA write of a 4 KiB
    /// block). Clears the dirty flag: the frame now matches storage.
    pub fn dma_fill(&mut self, pfn: Pfn, data: PageData) {
        let f = &mut self.frames[pfn.0 as usize];
        debug_assert_eq!(f.state, FrameState::Allocated, "DMA into unallocated frame");
        f.data = data;
        f.dirty = false;
    }

    /// A user load of `len` bytes at `offset`: captures what the frame
    /// holds now into `into` (see [`ReadSnapshot`]).
    pub fn read(&self, pfn: Pfn, offset: usize, len: usize, into: &mut ReadSnapshot) {
        into.capture(&self.frames[pfn.0 as usize].data, offset, len);
    }

    /// Writes bytes into a frame (user store), marking it dirty.
    pub fn write(&mut self, pfn: Pfn, offset: usize, data: &[u8]) {
        let f = &mut self.frames[pfn.0 as usize];
        f.data.write(offset, data);
        f.dirty = true;
    }

    /// Snapshot of the frame's contents (for writeback to storage).
    pub fn snapshot(&self, pfn: Pfn) -> PageData {
        self.frames[pfn.0 as usize].data.clone()
    }

    /// Whether the frame has been written since the last DMA fill /
    /// writeback.
    pub fn is_dirty(&self, pfn: Pfn) -> bool {
        self.frames[pfn.0 as usize].dirty
    }

    /// Clears the dirty flag (after writeback completes).
    pub fn clear_dirty(&mut self, pfn: Pfn) {
        self.frames[pfn.0 as usize].dirty = false;
    }

    /// Records which logical page this frame caches.
    pub fn set_owner(&mut self, pfn: Pfn, owner: Option<FrameOwner>) {
        self.frames[pfn.0 as usize].owner = owner;
    }

    /// The logical page this frame caches, if any.
    pub fn owner(&self, pfn: Pfn) -> Option<FrameOwner> {
        self.frames[pfn.0 as usize].owner
    }

    /// Checksum of a frame's contents (test helper).
    pub fn checksum(&self, pfn: Pfn) -> u64 {
        self.frames[pfn.0 as usize].data.checksum()
    }

    /// hwdp-audit checker: leak/double-free accounting. The free list and
    /// the per-frame states must agree exactly — every listed frame is in
    /// range, marked [`FrameState::Free`] and listed once; every frame
    /// marked free is on the list.
    pub fn audit(&self, report: &mut hwdp_sim::sanitize::AuditReport) {
        let layer = "mem";
        let marked_free = self.frames.iter().filter(|f| f.state == FrameState::Free).count();
        report.check_args(
            layer,
            "frame-accounting",
            marked_free == self.free_list.len(),
            format_args!(
                "{} frames marked Free but {} on the free list (leak or double free)",
                marked_free,
                self.free_list.len()
            ),
        );
        let mut seen = vec![false; self.frames.len()];
        for &pfn in &self.free_list {
            let idx = pfn.0 as usize;
            if !report.check_args(
                layer,
                "frame-free-range",
                idx < self.frames.len(),
                format_args!(
                    "free list holds out-of-range {pfn:?} (pool has {} frames)",
                    self.frames.len()
                ),
            ) {
                continue;
            }
            report.check_args(
                layer,
                "frame-free-state",
                self.frames[idx].state == FrameState::Free,
                format_args!("free list holds {pfn:?} whose state is {:?}", self.frames[idx].state),
            );
            report.check_args(
                layer,
                "frame-free-dup",
                !seen[idx],
                format_args!("free list holds {pfn:?} twice (double free)"),
            );
            seen[idx] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut pool = FramePool::new(2);
        assert_eq!(pool.free_count(), 2);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_ne!(a, b);
        assert!(pool.alloc().is_none(), "pool exhausted");
        pool.free(a);
        assert_eq!(pool.free_count(), 1);
        assert_eq!(pool.alloc(), Some(a), "LIFO reuse");
    }

    #[test]
    fn alloc_is_deterministic() {
        let mut p1 = FramePool::new(4);
        let mut p2 = FramePool::new(4);
        for _ in 0..4 {
            assert_eq!(p1.alloc(), p2.alloc());
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pool = FramePool::new(1);
        let a = pool.alloc().unwrap();
        pool.free(a);
        pool.free(a);
    }

    #[test]
    fn freed_frame_is_zeroed_on_realloc() {
        let mut pool = FramePool::new(1);
        let a = pool.alloc().unwrap();
        pool.write(a, 0, b"secret");
        pool.free(a);
        let b = pool.alloc().unwrap();
        let mut snap = ReadSnapshot::default();
        pool.read(b, 0, 6, &mut snap);
        let mut buf = [0xAAu8; 6];
        snap.copy_to(&mut buf);
        assert_eq!(buf, [0u8; 6], "no data leaks across allocations");
    }

    #[test]
    fn dma_fill_clears_dirty_and_replaces_contents() {
        let mut pool = FramePool::new(1);
        let a = pool.alloc().unwrap();
        pool.write(a, 0, b"x");
        assert!(pool.is_dirty(a));
        pool.dma_fill(a, PageData::Pattern(7));
        assert!(!pool.is_dirty(a));
        assert_eq!(pool.checksum(a), PageData::Pattern(7).checksum());
    }

    #[test]
    fn write_marks_dirty_and_snapshot_captures() {
        let mut pool = FramePool::new(1);
        let a = pool.alloc().unwrap();
        pool.dma_fill(a, PageData::Pattern(3));
        pool.write(a, 10, b"zz");
        assert!(pool.is_dirty(a));
        let snap = pool.snapshot(a);
        let mut buf = [0u8; 2];
        snap.read(10, &mut buf);
        assert_eq!(&buf, b"zz");
        pool.clear_dirty(a);
        assert!(!pool.is_dirty(a));
    }

    #[test]
    fn free_hands_back_the_contents() {
        let mut pool = FramePool::new(1);
        let a = pool.alloc().unwrap();
        pool.dma_fill(a, PageData::Pattern(3));
        pool.write(a, 10, b"zz");
        let mut expect = PageData::Pattern(3);
        expect.write(10, b"zz");
        assert_eq!(pool.free(a), expect);
        let b = pool.alloc().unwrap();
        assert_eq!(pool.checksum(b), PageData::Zero.checksum(), "freed frame is zeroed");
    }

    #[test]
    fn owner_tracking() {
        let mut pool = FramePool::new(1);
        let a = pool.alloc().unwrap();
        assert_eq!(pool.owner(a), None);
        pool.set_owner(a, Some((3, 17)));
        assert_eq!(pool.owner(a), Some((3, 17)));
        pool.free(a);
        let b = pool.alloc().unwrap();
        assert_eq!(pool.owner(b), None, "owner cleared across alloc");
    }

    #[test]
    fn state_reporting() {
        let mut pool = FramePool::new(2);
        let a = pool.alloc().unwrap();
        assert_eq!(pool.state(a), FrameState::Allocated);
        pool.free(a);
        assert_eq!(pool.state(a), FrameState::Free);
    }

    #[test]
    fn audit_clean_across_alloc_free_cycles() {
        let mut pool = FramePool::new(8);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        pool.free(a);
        let _ = b;
        let mut report = hwdp_sim::sanitize::AuditReport::new();
        pool.audit(&mut report);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.checks > 0, "audit actually evaluated invariants");
    }
}
