//! The free-page queue and its SMU-side prefetch buffer (§III-C, §IV-D).
//!
//! The queue is a circular buffer *in memory* holding `<PFN, DMA address>`
//! pairs. It has exactly one producer (the kernel's page-refill routine /
//! `kpoold`) and one consumer (the SMU's free-page fetcher), so no
//! synchronization is needed. The hardware keeps three registers: queue
//! base, head and tail.
//!
//! A naive fetch would expose a whole memory round trip on the miss path;
//! the SMU therefore eagerly prefetches a few entries into an internal
//! buffer (16 entries in the paper's area breakdown, §VI-D) during device
//! I/O time, making the common-case fetch free (Fig. 11(b)).

use hwdp_mem::addr::{Pfn, PhysAddr};
use std::collections::VecDeque;

/// The paper's prototype queue depth: 4096 entries = 16 MiB of pages,
/// 0.05 % of the 32 GiB test machine (§VI-C).
pub const DEFAULT_DEPTH: usize = 4096;

/// The prefetch buffer size from the §VI-D area breakdown.
pub const PREFETCH_ENTRIES: usize = 16;

/// Queue statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FreeQueueStats {
    /// Frames consumed by the SMU.
    pub pops: u64,
    /// Pops served from the prefetch buffer (no memory latency exposed).
    pub prefetched_pops: u64,
    /// Fetch attempts that found both buffer and queue empty — each one
    /// forces an OS page-fault fallback plus a synchronous refill (§IV-D).
    pub empty_events: u64,
    /// Frames pushed by the OS producer.
    pub pushes: u64,
}

/// A free frame ready for DMA.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FreePage {
    /// The frame.
    pub pfn: Pfn,
    /// Its DMA address (frame base).
    pub dma: PhysAddr,
}

impl FreePage {
    /// Creates the pair for a frame (DMA address = frame base).
    pub fn of(pfn: Pfn) -> Self {
        FreePage { pfn, dma: pfn.base() }
    }
}

/// The single-producer / single-consumer free-page queue plus the SMU's
/// prefetch buffer.
#[derive(Debug)]
pub struct FreePageQueue {
    ring: VecDeque<FreePage>,
    depth: usize,
    prefetch: VecDeque<FreePage>,
    prefetch_capacity: usize,
    stats: FreeQueueStats,
}

impl FreePageQueue {
    /// Creates a queue with the given ring depth and prefetch buffer size.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(depth: usize, prefetch_capacity: usize) -> Self {
        assert!(depth > 0 && prefetch_capacity > 0, "capacities must be nonzero");
        FreePageQueue {
            ring: VecDeque::with_capacity(depth),
            depth,
            prefetch: VecDeque::with_capacity(prefetch_capacity),
            prefetch_capacity,
            stats: FreeQueueStats::default(),
        }
    }

    /// The paper's prototype configuration (4096-deep ring, 16-entry
    /// prefetch buffer).
    pub fn paper_default() -> Self {
        FreePageQueue::new(DEFAULT_DEPTH, PREFETCH_ENTRIES)
    }

    /// Ring capacity.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Frames available (ring + prefetch buffer).
    pub fn available(&self) -> usize {
        self.ring.len() + self.prefetch.len()
    }

    /// Free slots in the ring (for the producer to fill).
    pub fn slack(&self) -> usize {
        self.depth - self.ring.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> FreeQueueStats {
        self.stats
    }

    /// Producer side: the OS pushes one free frame. Returns `false`
    /// (frame not queued) when the ring is full.
    pub fn push(&mut self, page: FreePage) -> bool {
        if self.ring.len() >= self.depth {
            return false;
        }
        self.ring.push_back(page);
        self.stats.pushes += 1;
        true
    }

    /// Producer side: bulk refill (the OS allocates pages in batch —
    /// §IV-A). Returns how many were accepted.
    pub fn push_batch(&mut self, pages: impl IntoIterator<Item = FreePage>) -> usize {
        let mut n = 0;
        for p in pages {
            if !self.push(p) {
                break;
            }
            n += 1;
        }
        n
    }

    /// Consumer side: the SMU's free-page fetcher. Returns the frame and
    /// whether it came from the prefetch buffer (determining whether the
    /// miss path pays a memory round trip).
    ///
    /// `None` means both buffer and ring were empty: the SMU invalidates
    /// the PMSHR entry and the MMU raises a normal page fault (§III-C).
    pub fn fetch(&mut self) -> Option<(FreePage, bool)> {
        if let Some(p) = self.prefetch.pop_front() {
            self.stats.pops += 1;
            self.stats.prefetched_pops += 1;
            return Some((p, true));
        }
        match self.ring.pop_front() {
            Some(p) => {
                self.stats.pops += 1;
                Some((p, false))
            }
            None => {
                self.stats.empty_events += 1;
                None
            }
        }
    }

    /// SMU side: top up the prefetch buffer from the ring. Called during
    /// device I/O time so the memory latency is hidden (§III-C). Returns
    /// how many entries moved.
    pub fn refill_prefetch(&mut self) -> usize {
        let mut n = 0;
        while self.prefetch.len() < self.prefetch_capacity {
            match self.ring.pop_front() {
                Some(p) => {
                    self.prefetch.push_back(p);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// hwdp-audit checker for this queue. Cheap checks validate capacity
    /// bounds and counter sanity; full checks sweep every queued entry and
    /// verify its DMA address is the frame base the producer is contracted
    /// to write (`<PFN, DMA>` pair coherence).
    pub fn audit(
        &self,
        qid: usize,
        level: hwdp_sim::SanitizeLevel,
        report: &mut hwdp_sim::AuditReport,
    ) {
        let layer = "smu";
        if !level.cheap_checks() {
            return;
        }
        report.check(layer, "freeq-capacity", self.ring.len() <= self.depth, || {
            format!("queue {qid}: ring holds {} entries, depth is {}", self.ring.len(), self.depth)
        });
        report.check(layer, "freeq-prefetch-capacity", self.prefetch.len() <= self.prefetch_capacity, || {
            format!(
                "queue {qid}: prefetch buffer holds {} entries, capacity is {}",
                self.prefetch.len(),
                self.prefetch_capacity
            )
        });
        report.check(layer, "freeq-counters", self.stats.pops <= self.stats.pushes && self.stats.prefetched_pops <= self.stats.pops, || {
            format!(
                "queue {qid}: counters inconsistent (pops {}, prefetched {}, pushes {})",
                self.stats.pops, self.stats.prefetched_pops, self.stats.pushes
            )
        });
        if !level.full_checks() {
            return;
        }
        for p in self.prefetch.iter().chain(self.ring.iter()) {
            report.check(layer, "free-page-dma", p.dma == p.pfn.base(), || {
                format!("queue {qid}: queued pair has DMA {:?} but {:?} bases at {:?}", p.dma, p.pfn, p.pfn.base())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u64) -> FreePage {
        FreePage::of(Pfn(n))
    }

    #[test]
    fn paper_default_dimensions() {
        let q = FreePageQueue::paper_default();
        assert_eq!(q.depth(), 4096);
        // 4096 × 4 KiB = 16 MiB (§VI-C).
        assert_eq!(q.depth() * 4096, 16 << 20);
    }

    #[test]
    fn fifo_order() {
        let mut q = FreePageQueue::new(8, 2);
        q.push(fp(1));
        q.push(fp(2));
        assert_eq!(q.fetch().unwrap().0, fp(1));
        assert_eq!(q.fetch().unwrap().0, fp(2));
    }

    #[test]
    fn cold_fetch_not_prefetched() {
        let mut q = FreePageQueue::new(8, 2);
        q.push(fp(1));
        let (_, prefetched) = q.fetch().unwrap();
        assert!(!prefetched, "no refill happened, so the fetch is cold");
    }

    #[test]
    fn prefetched_fetch_is_free() {
        let mut q = FreePageQueue::new(8, 2);
        q.push_batch((0..4).map(fp));
        assert_eq!(q.refill_prefetch(), 2, "buffer tops up to capacity");
        let (_, pre) = q.fetch().unwrap();
        assert!(pre);
        let (_, pre) = q.fetch().unwrap();
        assert!(pre);
        let (_, pre) = q.fetch().unwrap();
        assert!(!pre, "buffer exhausted, falls back to the ring");
        assert_eq!(q.stats().prefetched_pops, 2);
    }

    #[test]
    fn empty_event_counted() {
        let mut q = FreePageQueue::new(4, 2);
        assert!(q.fetch().is_none());
        assert_eq!(q.stats().empty_events, 1);
    }

    #[test]
    fn ring_full_rejects_push() {
        let mut q = FreePageQueue::new(2, 2);
        assert!(q.push(fp(1)));
        assert!(q.push(fp(2)));
        assert!(!q.push(fp(3)));
        assert_eq!(q.stats().pushes, 2);
        assert_eq!(q.slack(), 0);
    }

    #[test]
    fn push_batch_stops_at_capacity() {
        let mut q = FreePageQueue::new(3, 2);
        let n = q.push_batch((0..10).map(fp));
        assert_eq!(n, 3);
        assert_eq!(q.available(), 3);
    }

    #[test]
    fn dma_address_is_frame_base() {
        assert_eq!(fp(3).dma, PhysAddr(3 * 4096));
    }

    #[test]
    fn audit_clean_through_refill_and_fetch() {
        let mut q = FreePageQueue::new(8, 2);
        q.push_batch((0..6).map(fp));
        q.refill_prefetch();
        q.fetch();
        let mut report = hwdp_sim::AuditReport::new();
        q.audit(0, hwdp_sim::SanitizeLevel::Full, &mut report);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.checks >= 3 + 5, "3 cheap checks + one per queued entry");
        let mut report = hwdp_sim::AuditReport::new();
        q.audit(0, hwdp_sim::SanitizeLevel::Off, &mut report);
        assert_eq!(report.checks, 0);
    }

    #[test]
    fn negative_mismatched_dma_pair_detected() {
        // Injected corruption: a producer queues a <PFN, DMA> pair whose
        // DMA target is not the frame base — DMA would land in the wrong
        // frame. FreePage's fields are public (the producer builds pairs),
        // so this needs no test hook.
        let mut q = FreePageQueue::new(4, 2);
        q.push(fp(1));
        q.push(FreePage { pfn: Pfn(2), dma: PhysAddr(999) });
        let mut report = hwdp_sim::AuditReport::new();
        q.audit(7, hwdp_sim::SanitizeLevel::Full, &mut report);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].layer, "smu");
        assert_eq!(report.violations[0].invariant, "free-page-dma");
        assert!(report.violations[0].message.contains("queue 7"));
    }
}
