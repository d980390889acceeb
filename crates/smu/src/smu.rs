//! The page-miss handler: the SMU's control flow (paper Fig. 7).
//!
//! One [`Smu`] exists per socket. A miss request from the MMU carries the
//! five parameters of §III-C (three entry addresses, device ID, LBA) plus
//! the requesting hardware context. The SMU walks the numbered steps of
//! Fig. 7:
//!
//! 1. PMSHR lookup — duplicate misses coalesce and the walk goes pending;
//! 2. PMSHR allocate + initialize;
//! 3. free-page fetch (prefetch buffer → free, ring → memory round trip,
//!    empty → **fail**: invalidate the entry, notify the MMU, which raises
//!    a normal page fault and the OS refills the queue);
//! 4. complete the entry with the allocated PFN;
//! 5. issue the NVMe read via the host controller;
//! 6. (device I/O; the SMU tops up its prefetch buffer during this time);
//! 7. page-table updater rewrites PTE/PMD/PUD;
//! 8. broadcast completion, invalidate the PMSHR entry.

use hwdp_mem::addr::{BlockRef, Pfn, PhysAddr, SocketId};
use hwdp_mem::page_table::{PageTable, WalkResult};
use hwdp_mem::pte::Pte;
use hwdp_nvme::command::NvmeCommand;
use hwdp_nvme::device::QueueId;
use hwdp_sim::time::Duration;

use crate::free_queue::FreePageQueue;
use crate::host_controller::HostController;
use crate::pmshr::{EntryIdx, Pmshr, PmshrError, Presented};
use crate::timing::SmuTiming;

/// A page-miss handling request from the MMU (§III-C: the five parameters
/// plus the requesting context).
#[derive(Clone, Copy, Debug)]
pub struct MissRequest {
    /// Leaf walk result: the PUD/PMD/PTE entry addresses and current PTE.
    pub walk: WalkResult,
    /// Storage location from the LBA-augmented PTE.
    pub block: BlockRef,
    /// The hardware context (thread) stalled on this miss.
    pub waiter: u64,
    /// The requesting hardware-thread index — selects the free-page queue
    /// when per-core queues are enabled (§V "Enforcing OS-level Resource
    /// Management Policy").
    pub core: usize,
}

/// What happened when the SMU was presented a miss.
#[derive(Debug)]
pub enum MissOutcome {
    /// An I/O was started. The caller submits `cmd` on `qid` to the
    /// device identified by the request's block, then calls
    /// [`Smu::finish_io`] when the device completes.
    Started {
        /// PMSHR entry driving this miss (also the NVMe CID).
        entry: EntryIdx,
        /// Frame receiving the data.
        pfn: Pfn,
        /// DMA target.
        dma: PhysAddr,
        /// The isolated SMU queue to submit on.
        qid: QueueId,
        /// The generated 4 KiB read.
        cmd: NvmeCommand,
        /// Hardware latency spent before the doorbell (Fig. 11(b)).
        before_device: Duration,
    },
    /// Duplicate miss: coalesced onto `entry`; the walk pends until that
    /// entry broadcasts.
    Coalesced {
        /// The existing entry this request joined.
        entry: EntryIdx,
        /// Lookup cost paid.
        cost: Duration,
    },
    /// First touch of an anonymous page (the PTE's LBA field holds the
    /// reserved [`hwdp_mem::addr::Lba::ANON_ZERO`] constant, §V): the SMU
    /// bypasses I/O entirely. The caller zero-fills the frame and calls
    /// [`Smu::finish_zero_fill`] — no NVMe command, no device time.
    ZeroFill {
        /// PMSHR entry driving this miss.
        entry: EntryIdx,
        /// Frame to zero-fill.
        pfn: Pfn,
        /// Its DMA address.
        dma: PhysAddr,
        /// Hardware latency (request + CAM + free-page fetch only).
        before_device: Duration,
    },
    /// Free-page queue empty: entry invalidated, MMU must raise a normal
    /// page fault and the OS performs a synchronous refill (§IV-D).
    FreeQueueEmpty {
        /// Cost paid discovering the empty queue.
        cost: Duration,
    },
    /// All PMSHR entries busy: the request must be retried after a
    /// completion frees an entry.
    PmshrFull {
        /// Lookup cost paid.
        cost: Duration,
    },
    /// The host controller could not issue the I/O (no queue descriptor is
    /// installed for the device): the entry was invalidated and the frame
    /// returned to the free queue. The caller degrades the miss to the
    /// OSDP software path (§IV fallback) instead of aborting.
    FailToOs {
        /// Hardware latency spent before the failure was detected.
        cost: Duration,
    },
}

/// Result of completing an I/O (steps 7–8).
#[derive(Debug)]
pub struct FinishResult {
    /// Contexts to wake (original requester + coalesced waiters).
    pub waiters: Vec<u64>,
    /// The rewritten PTE (present, LBA bit still set for `kpted`).
    pub pte: Pte,
    /// The frame now holding the page.
    pub pfn: Pfn,
    /// Hardware latency after the device's CQ write (Fig. 11(b)).
    pub after_device: Duration,
}

/// SMU-level statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmuStats {
    /// Misses that started an I/O.
    pub started: u64,
    /// Misses coalesced onto an outstanding entry.
    pub coalesced: u64,
    /// Fallbacks because the free-page queue was empty.
    pub free_queue_empty: u64,
    /// Retries because the PMSHR was full.
    pub pmshr_full: u64,
    /// Misses fully completed.
    pub completed: u64,
    /// Anonymous first-touch misses satisfied without I/O (§V).
    pub zero_fills: u64,
    /// Prefetch misses issued with no waiting core (§V future work).
    pub prefetches: u64,
    /// Misses degraded to the OS because the host controller could not
    /// issue the command.
    pub issue_failures: u64,
    /// In-flight misses abandoned by fault recovery after retries were
    /// exhausted (entry invalidated, frame returned).
    pub abandoned: u64,
}

/// One socket's Storage Management Unit.
#[derive(Debug)]
pub struct Smu {
    socket: SocketId,
    /// The PMSHR CAM (public for ablation benches that resize it).
    pub pmshr: Pmshr,
    /// Free-page queue(s) + prefetch buffers. One global queue in the
    /// paper's prototype; one per hardware thread when per-core queues
    /// (§V future work) are enabled.
    queues: Vec<FreePageQueue>,
    /// The NVMe host controller with per-device queue descriptors.
    pub host: HostController,
    timing: SmuTiming,
    stats: SmuStats,
}

impl Smu {
    /// Creates an SMU with explicit component configuration and one global
    /// free-page queue (the paper's prototype).
    pub fn new(socket: SocketId, pmshr: Pmshr, free_queue: FreePageQueue, timing: SmuTiming) -> Self {
        Smu {
            socket,
            pmshr,
            queues: vec![free_queue],
            host: HostController::new(),
            timing,
            stats: SmuStats::default(),
        }
    }

    /// Switches to per-core free-page queues (§V): one queue of `depth`
    /// entries (with a `prefetch`-entry buffer) per hardware thread, so
    /// OS-level memory policy (NUMA, cgroups, page coloring) can be
    /// enforced per thread context. Discards any previously queued frames.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_per_core_queues(mut self, cores: usize, depth: usize, prefetch: usize) -> Self {
        assert!(cores > 0, "need at least one queue");
        self.queues = (0..cores).map(|_| FreePageQueue::new(depth, prefetch)).collect();
        self
    }

    /// Number of free-page queues (1 unless per-core queues are enabled).
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// The free-page queue serving hardware thread `core`.
    pub fn free_queue_for(&mut self, core: usize) -> &mut FreePageQueue {
        let n = self.queues.len();
        &mut self.queues[core % n]
    }

    /// The global queue (queue 0) — compatibility accessor for the
    /// single-queue prototype configuration.
    pub fn free_queue(&mut self) -> &mut FreePageQueue {
        &mut self.queues[0]
    }

    /// Aggregated free-queue statistics across all queues.
    pub fn free_queue_stats(&self) -> crate::free_queue::FreeQueueStats {
        let mut total = crate::free_queue::FreeQueueStats::default();
        for q in &self.queues {
            let s = q.stats();
            total.pops += s.pops;
            total.prefetched_pops += s.prefetched_pops;
            total.empty_events += s.empty_events;
            total.pushes += s.pushes;
        }
        total
    }

    /// The paper's prototype configuration: 32-entry PMSHR, 4096-deep free
    /// queue with a 16-entry prefetch buffer, Fig. 11(b) timings.
    pub fn paper_default(socket: SocketId) -> Self {
        Smu::new(socket, Pmshr::paper_default(), FreePageQueue::paper_default(), SmuTiming::paper_default())
    }

    /// This SMU's socket (misses are routed here by the PTE's SID field).
    pub fn socket(&self) -> SocketId {
        self.socket
    }

    /// The timing model in use.
    pub fn timing(&self) -> &SmuTiming {
        &self.timing
    }

    /// Statistics so far.
    pub fn stats(&self) -> SmuStats {
        self.stats
    }

    /// Steps 1–5 of Fig. 7. See [`MissOutcome`] for the caller's follow-up
    /// obligations.
    ///
    /// # Panics
    ///
    /// Panics if the request's block is homed on a different socket (the
    /// MMU routes by SID, so this indicates a routing bug).
    pub fn begin_miss(&mut self, req: MissRequest) -> MissOutcome {
        assert_eq!(req.block.socket, self.socket, "miss routed to wrong SMU");
        // Step 1: CAM lookup (+ step 2 allocate).
        let presented = match self.pmshr.present(req.walk, req.block, req.waiter) {
            Ok(p) => p,
            Err(PmshrError::Full) => {
                self.stats.pmshr_full += 1;
                return MissOutcome::PmshrFull { cost: self.timing.coalesced_lookup() };
            }
        };
        let entry = match presented {
            Presented::Coalesced(idx) => {
                self.stats.coalesced += 1;
                return MissOutcome::Coalesced { entry: idx, cost: self.timing.coalesced_lookup() };
            }
            Presented::Allocated(idx) => idx,
        };
        // Step 3: free-page fetch (from the requester's queue when
        // per-core queues are enabled).
        let qidx = req.core % self.queues.len();
        let Some((page, prefetched)) = self.queues[qidx].fetch() else {
            // Failure path: invalidate, notify MMU (§III-C).
            self.pmshr.invalidate(entry);
            self.stats.free_queue_empty += 1;
            return MissOutcome::FreeQueueEmpty { cost: self.timing.before_device(false) };
        };
        // Step 4: finish entry initialization with the PFN.
        self.pmshr.set_frame(entry, page.pfn, page.dma);
        // §V: the reserved anonymous-first-touch LBA bypasses I/O.
        if req.block.lba == hwdp_mem::addr::Lba::ANON_ZERO {
            self.queues[qidx].refill_prefetch();
            self.stats.zero_fills += 1;
            let cycles =
                self.timing.request_reg_writes_cycles + self.timing.cam_lookup_cycles;
            let mut before = self.timing.freq.cycles(cycles);
            if !prefetched {
                before += self.timing.cold_free_page_fetch;
            }
            return MissOutcome::ZeroFill { entry, pfn: page.pfn, dma: page.dma, before_device: before };
        }
        // Step 5: generate the NVMe command and ring the doorbell. A
        // device with no queue pair degrades to the software path rather
        // than aborting the process.
        let (qid, cmd) =
            match self.host.issue_read(req.block.device, req.block.lba, page.dma, entry.0) {
                Ok(v) => v,
                Err(_) => {
                    self.pmshr.invalidate(entry);
                    self.queues[qidx].push(page);
                    self.stats.issue_failures += 1;
                    return MissOutcome::FailToOs { cost: self.timing.before_device(prefetched) };
                }
            };
        // Step 6 happens in the device; use the idle time to top up the
        // prefetch buffer (hides the memory round trip, §III-C).
        self.queues[qidx].refill_prefetch();
        self.stats.started += 1;
        MissOutcome::Started {
            entry,
            pfn: page.pfn,
            dma: page.dma,
            qid,
            cmd,
            before_device: self.timing.before_device(prefetched),
        }
    }

    /// §V "Prefetching Support" (future work in the paper, implemented
    /// here): starts a miss with *no waiting core*. Best-effort: returns
    /// `None` (and does nothing) when the page is already in flight, the
    /// PMSHR is full, the free queue is empty, or the target is an
    /// anonymous first-touch page. On success the caller submits the
    /// command and later calls [`Smu::finish_io`] as usual; any demand
    /// miss arriving meanwhile coalesces onto the prefetch.
    pub fn begin_prefetch(
        &mut self,
        req: MissRequest,
    ) -> Option<(EntryIdx, QueueId, NvmeCommand, Pfn, Duration)> {
        assert_eq!(req.block.socket, self.socket, "prefetch routed to wrong SMU");
        if req.block.lba == hwdp_mem::addr::Lba::ANON_ZERO {
            return None; // zero pages are free on demand anyway
        }
        let entry = match self.pmshr.present_detached(req.walk, req.block) {
            Ok(Presented::Allocated(idx)) => idx,
            Ok(Presented::Coalesced(_)) | Err(PmshrError::Full) => return None,
        };
        let qidx = req.core % self.queues.len();
        let Some((page, prefetched)) = self.queues[qidx].fetch() else {
            self.pmshr.invalidate(entry);
            return None;
        };
        self.pmshr.set_frame(entry, page.pfn, page.dma);
        let Ok((qid, cmd)) =
            self.host.issue_read(req.block.device, req.block.lba, page.dma, entry.0)
        else {
            self.pmshr.invalidate(entry);
            self.queues[qidx].push(page);
            return None;
        };
        self.queues[qidx].refill_prefetch();
        self.stats.prefetches += 1;
        Some((entry, qid, cmd, page.pfn, self.timing.before_device(prefetched)))
    }

    /// Steps 7–8 of Fig. 7, run when the device's CQ write is snooped:
    /// handle the completion protocol, rewrite PTE/PMD/PUD through the
    /// page-table updater, broadcast, invalidate the entry.
    ///
    /// Returns `None` when `entry` is no longer live or has no frame —
    /// e.g. a completion that was delayed past its timeout arriving after
    /// fault recovery abandoned the entry. The caller drops it.
    pub fn finish_io(
        &mut self,
        entry: EntryIdx,
        page_table: &mut PageTable,
    ) -> Option<FinishResult> {
        let e = self.pmshr.try_entry(entry)?;
        let (walk, pfn, block) = (e.walk, e.pfn?, e.block);
        // Completion unit: CQ pointer, doorbell, phase (§III-C). A missing
        // descriptor means the SMU no longer owns the device; nothing to
        // advance.
        #[allow(clippy::let_underscore_must_use)]
        let _ = self.host.handle_completion(block.device);
        // Step 7: the page-table updater rewrites the three entries by
        // address; LBA bit stays set for kpted.
        let pte = page_table.smu_complete(&walk, pfn);
        // Step 8: broadcast + invalidate.
        let e = self.pmshr.invalidate(entry)?;
        self.stats.completed += 1;
        Some(FinishResult { waiters: e.waiters, pte, pfn, after_device: self.timing.after_device() })
    }

    /// Completes an anonymous zero-fill miss (§V): the page-table updater
    /// runs exactly as for an I/O miss, but there is no NVMe completion to
    /// handle — the "after" latency is just the table update and notify.
    ///
    /// Returns `None` when `entry` is no longer live or has no frame (the
    /// same late-arrival race as [`Smu::finish_io`]).
    pub fn finish_zero_fill(
        &mut self,
        entry: EntryIdx,
        page_table: &mut PageTable,
    ) -> Option<FinishResult> {
        let e = self.pmshr.try_entry(entry)?;
        let (walk, pfn) = (e.walk, e.pfn?);
        let pte = page_table.smu_complete(&walk, pfn);
        let e = self.pmshr.invalidate(entry)?;
        self.stats.completed += 1;
        let after = self
            .timing
            .freq
            .cycles(self.timing.table_update_cycles + self.timing.notify_cycles);
        Some(FinishResult { waiters: e.waiters, pte, pfn, after_device: after })
    }

    /// Fault recovery: regenerates and re-issues the NVMe read for a live
    /// entry whose previous attempt failed (media error or host-side
    /// timeout). The command reuses the entry's block and DMA target, so
    /// the retry is indistinguishable from the original on the wire.
    ///
    /// Returns `None` when the entry is no longer live, never got a frame,
    /// or the device descriptor is gone — the caller escalates instead.
    pub fn reissue_read(&mut self, entry: EntryIdx) -> Option<(QueueId, NvmeCommand)> {
        let e = self.pmshr.try_entry(entry)?;
        let (block, dma) = (e.block, e.dma?);
        self.host.issue_read(block.device, block.lba, dma, entry.0).ok()
    }

    /// Fault recovery: abandons an in-flight miss after retries are
    /// exhausted — invalidates the entry and returns its frame to free
    /// queue `core`, handing the entry (waiters and walk included) back so
    /// the caller can re-execute the access through the OSDP software
    /// path. Returns `None` when the entry is already gone.
    pub fn abandon_io(&mut self, entry: EntryIdx, core: usize) -> Option<crate::pmshr::Entry> {
        let e = self.pmshr.invalidate(entry)?;
        if let (Some(pfn), Some(dma)) = (e.pfn, e.dma) {
            let n = self.queues.len();
            self.queues[core % n].push(crate::free_queue::FreePage { pfn, dma });
        }
        self.stats.abandoned += 1;
        Some(e)
    }
}

impl hwdp_sim::Sanitizer for Smu {
    fn layer(&self) -> &'static str {
        "smu"
    }

    /// Delegates to the PMSHR CAM checker (occupancy, duplicate-fault,
    /// frame/DMA coherence) and every free-page queue's checker (capacity
    /// bounds, counter sanity, `<PFN, DMA>` pair coherence).
    fn sanitize(&self, level: hwdp_sim::SanitizeLevel, report: &mut hwdp_sim::AuditReport) {
        if !level.cheap_checks() {
            return;
        }
        self.pmshr.audit(report);
        for (qid, q) in self.queues.iter().enumerate() {
            q.audit(qid, level, report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host_controller::QueueDescriptor;
    use hwdp_mem::addr::{DeviceId, Lba, Vpn};
    use hwdp_mem::pte::{PteClass, PteFlags};

    fn setup() -> (Smu, PageTable) {
        let mut smu = Smu::new(
            SocketId(0),
            Pmshr::new(4),
            FreePageQueue::new(64, 4),
            SmuTiming::paper_default(),
        );
        smu.host.install(
            DeviceId(0),
            QueueDescriptor {
                nsid: 1,
                qid: QueueId(0),
                sq_base: PhysAddr(0x100000),
                cq_base: PhysAddr(0x200000),
                sq_doorbell: PhysAddr(0xF0001000),
                cq_doorbell: PhysAddr(0xF0001004),
                depth: 32,
            },
        );
        // OS seeds the free queue.
        smu.free_queue().push_batch((100..164).map(|p| crate::free_queue::FreePage::of(Pfn(p))));
        (smu, PageTable::new())
    }

    fn augment(pt: &mut PageTable, vpn: u64, lba: u64) -> MissRequest {
        let block = BlockRef::new(SocketId(0), DeviceId(0), Lba(lba));
        pt.set_pte(Vpn(vpn), Pte::lba_augmented(block, PteFlags::user_data()));
        MissRequest { walk: pt.walk(Vpn(vpn)).unwrap(), block, waiter: vpn, core: 0 }
    }

    #[test]
    fn full_miss_lifecycle() {
        let (mut smu, mut pt) = setup();
        let req = augment(&mut pt, 7, 42);
        let MissOutcome::Started { entry, pfn, dma, cmd, before_device, .. } = smu.begin_miss(req)
        else {
            panic!("fresh miss should start an I/O")
        };
        assert_eq!(cmd.slba, 42);
        assert_eq!(cmd.cid, entry.0, "command tagged with PMSHR index");
        assert_eq!(dma, pfn.base());
        assert!(before_device > Duration::from_nanos(70), "includes the 77ns cmd write");
        // Device I/O happens... then:
        let fin = smu.finish_io(entry, &mut pt).expect("live entry completes");
        assert_eq!(fin.waiters, vec![7]);
        assert_eq!(fin.pfn, pfn);
        assert_eq!(fin.pte.class(), PteClass::ResidentNeedsSync);
        assert_eq!(pt.pte(Vpn(7)).pfn(), Some(pfn));
        assert_eq!(smu.stats().started, 1);
        assert_eq!(smu.stats().completed, 1);
    }

    #[test]
    fn duplicate_misses_coalesce() {
        let (mut smu, mut pt) = setup();
        let req = augment(&mut pt, 7, 42);
        let MissOutcome::Started { entry, .. } = smu.begin_miss(req) else { panic!("started") };
        let dup = MissRequest { waiter: 99, ..req };
        let MissOutcome::Coalesced { entry: e2, cost } = smu.begin_miss(dup) else {
            panic!("duplicate should coalesce")
        };
        assert_eq!(entry, e2);
        assert!(cost < Duration::from_nanos(5));
        let fin = smu.finish_io(entry, &mut pt).expect("live entry completes");
        assert_eq!(fin.waiters, vec![7, 99], "both contexts woken by the broadcast");
        assert_eq!(smu.stats().coalesced, 1);
    }

    #[test]
    fn empty_free_queue_falls_back() {
        let (mut smu, mut pt) = setup();
        while smu.free_queue().fetch().is_some() {}
        let req = augment(&mut pt, 3, 9);
        let MissOutcome::FreeQueueEmpty { .. } = smu.begin_miss(req) else {
            panic!("empty queue must fail to OS")
        };
        assert_eq!(smu.pmshr.occupancy(), 0, "entry invalidated on failure");
        assert_eq!(smu.stats().free_queue_empty, 1);
        // PTE untouched — the OS fault handler takes over.
        assert_eq!(pt.pte(Vpn(3)).class(), PteClass::LbaAugmented);
    }

    #[test]
    fn pmshr_full_reports_retry() {
        let (mut smu, mut pt) = setup();
        for vpn in 0..4u64 {
            let req = augment(&mut pt, vpn, vpn + 10);
            assert!(matches!(smu.begin_miss(req), MissOutcome::Started { .. }));
        }
        let req = augment(&mut pt, 9, 99);
        assert!(matches!(smu.begin_miss(req), MissOutcome::PmshrFull { .. }));
        assert_eq!(smu.stats().pmshr_full, 1);
    }

    #[test]
    #[should_panic(expected = "wrong SMU")]
    fn foreign_socket_rejected() {
        let (mut smu, mut pt) = setup();
        let block = BlockRef::new(SocketId(3), DeviceId(0), Lba(1));
        pt.set_pte(Vpn(1), Pte::lba_augmented(block, PteFlags::user_data()));
        let req = MissRequest { walk: pt.walk(Vpn(1)).unwrap(), block, waiter: 0, core: 0 };
        let _ = smu.begin_miss(req);
    }

    #[test]
    fn prefetch_buffer_tops_up_during_io() {
        let (mut smu, mut pt) = setup();
        let req = augment(&mut pt, 1, 1);
        let MissOutcome::Started { entry, .. } = smu.begin_miss(req) else { panic!("started") };
        smu.finish_io(entry, &mut pt).expect("live entry completes");
        // After one miss the prefetch buffer holds entries, so the next
        // miss's free page fetch is free (prefetched = true → smaller
        // before_device than a cold fetch).
        let req2 = augment(&mut pt, 2, 2);
        let MissOutcome::Started { before_device, .. } = smu.begin_miss(req2) else {
            panic!("started")
        };
        assert_eq!(before_device, smu.timing().before_device(true));
    }

    #[test]
    fn smu_audits_clean_with_outstanding_misses() {
        use hwdp_sim::Sanitizer as _;
        let (mut smu, mut pt) = setup();
        let req = augment(&mut pt, 1, 1);
        let MissOutcome::Started { entry, .. } = smu.begin_miss(req) else { panic!("started") };
        let req2 = augment(&mut pt, 2, 2);
        assert!(matches!(smu.begin_miss(req2), MissOutcome::Started { .. }));
        let mut report = hwdp_sim::AuditReport::new();
        smu.sanitize(hwdp_sim::SanitizeLevel::Full, &mut report);
        assert_eq!(smu.layer(), "smu");
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.checks > 0);
        smu.finish_io(entry, &mut pt).expect("live entry completes");
        let mut report = hwdp_sim::AuditReport::new();
        smu.sanitize(hwdp_sim::SanitizeLevel::Off, &mut report);
        assert_eq!(report.checks, 0, "Off level runs no checks");
    }

    #[test]
    fn reissue_regenerates_the_same_command() {
        let (mut smu, mut pt) = setup();
        let req = augment(&mut pt, 7, 42);
        let MissOutcome::Started { entry, cmd, qid, .. } = smu.begin_miss(req) else {
            panic!("started")
        };
        let (rqid, rcmd) = smu.reissue_read(entry).expect("entry is live");
        assert_eq!(rqid, qid);
        assert_eq!((rcmd.slba, rcmd.cid, rcmd.prp1), (cmd.slba, cmd.cid, cmd.prp1));
        assert_eq!(smu.host.stats().command_writes, 2, "retry rings the doorbell again");
        smu.finish_io(entry, &mut pt).expect("live entry completes");
        assert_eq!(smu.reissue_read(entry), None, "retired entries cannot be reissued");
    }

    #[test]
    fn abandon_returns_frame_and_waiters() {
        let (mut smu, mut pt) = setup();
        let req = augment(&mut pt, 7, 42);
        let dup = MissRequest { waiter: 99, ..req };
        let MissOutcome::Started { entry, pfn, .. } = smu.begin_miss(req) else {
            panic!("started")
        };
        assert!(matches!(smu.begin_miss(dup), MissOutcome::Coalesced { .. }));
        let before = smu.free_queue().available();
        let e = smu.abandon_io(entry, 0).expect("entry is live");
        assert_eq!(e.waiters, vec![7, 99], "caller re-executes both contexts via OSDP");
        assert_eq!(e.pfn, Some(pfn));
        assert_eq!(smu.pmshr.occupancy(), 0, "entry invalidated");
        assert_eq!(smu.free_queue().available(), before + 1, "frame returned to the free queue");
        assert_eq!(smu.stats().abandoned, 1);
        // A completion delayed past its timeout now finds nothing: dropped.
        assert!(smu.finish_io(entry, &mut pt).is_none());
        assert_eq!(smu.abandon_io(entry, 0).map(|e| e.waiters), None);
        // The PTE is untouched — OSDP re-executes from LbaAugmented.
        assert_eq!(pt.pte(Vpn(7)).class(), PteClass::LbaAugmented);
    }

    #[test]
    fn missing_descriptor_degrades_to_os() {
        let (mut smu, mut pt) = setup();
        // Device 1 never had a queue pair installed.
        let block = BlockRef::new(SocketId(0), DeviceId(1), Lba(5));
        pt.set_pte(Vpn(5), Pte::lba_augmented(block, PteFlags::user_data()));
        let req = MissRequest { walk: pt.walk(Vpn(5)).unwrap(), block, waiter: 5, core: 0 };
        let frames = smu.free_queue().available();
        let MissOutcome::FailToOs { cost } = smu.begin_miss(req) else {
            panic!("missing descriptor must degrade, not panic")
        };
        assert!(cost > Duration::ZERO);
        assert_eq!(smu.pmshr.occupancy(), 0, "entry rolled back");
        assert_eq!(smu.free_queue().available(), frames, "frame returned");
        assert_eq!(smu.stats().issue_failures, 1);
        // Prefetches fail silently the same way.
        assert!(smu.begin_prefetch(MissRequest { waiter: 0, ..req }).is_none());
        assert_eq!(smu.pmshr.occupancy(), 0);
    }

    #[test]
    fn completion_advances_cq_protocol() {
        let (mut smu, mut pt) = setup();
        let req = augment(&mut pt, 1, 1);
        let MissOutcome::Started { entry, .. } = smu.begin_miss(req) else { panic!("started") };
        smu.finish_io(entry, &mut pt).expect("live entry completes");
        let hs = smu.host.stats();
        assert_eq!(hs.snooped_completions, 1);
        assert_eq!(hs.cq_doorbells, 1);
        assert_eq!(hs.command_writes, 1);
    }
}
