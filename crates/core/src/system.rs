//! The integrated full-system simulator.
//!
//! One [`System`] wires together the substrates: CPU cores (with SMT and
//! the pollution model), the extended MMU/TLB, the per-socket SMU, NVMe
//! devices, and the OS (page tables, page cache, fault paths, `kpted`,
//! `kpoold`). Workload threads execute [`Step`]s in virtual time; every
//! page miss walks the full machinery of whichever [`Mode`] is configured.
//!
//! The engine is a discrete-event simulation: thread segments, device
//! completions and kernel-thread ticks are events on one deterministic
//! queue.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use hwdp_cpu::perf::PerfCounters;
use hwdp_cpu::pollution::Pollution;
use hwdp_cpu::smt::{issue_factor, HwThreadState};
use hwdp_mem::addr::{BlockRef, DeviceId, Lba, PageData, Pfn, ReadSnapshot, SocketId, Vpn};
use hwdp_mem::pte::{Pte, PteClass};
use hwdp_mem::tlb::Tlb;
use hwdp_mem::walker::Walker;
use hwdp_nvme::command::{NvmeCommand, Status};
use hwdp_nvme::device::{Completed, CompletionToken, ControllerState, NvmeController, QueueId, SubmitError};
use hwdp_nvme::namespace::BlockStore;
use hwdp_nvme::profile::DeviceProfile;
use hwdp_os::fs::FileId;
use hwdp_os::kernel::{Eviction, FaultPlan, Os};
use hwdp_os::vma::{MmapFlags, VmaId};
use hwdp_smu::free_queue::{FreePage, FreePageQueue};
use hwdp_smu::host_controller::QueueDescriptor;
use hwdp_smu::pmshr::{EntryIdx, Pmshr};
use hwdp_smu::smu::{MissOutcome, MissRequest, Smu};
use hwdp_smu::timing::SmuTiming;
use hwdp_sim::dense::DenseMap;
use hwdp_sim::events::{EventId, EventQueue};
use hwdp_sim::rng::Prng;
use hwdp_sim::sanitize::{AuditReport, SanitizeLevel, Sanitizer};
use hwdp_sim::sorted::SortedMap;
use hwdp_sim::stats::LatencyHist;
use hwdp_sim::time::{Duration, Time};
use hwdp_tier::{MigrationPlan, TierEngine, TierResidence};
use hwdp_workloads::kvstore::initial_record;
use hwdp_workloads::{RegionId, Step, Workload};

use crate::config::{Mode, SystemConfig};
use crate::metrics::{RunResult, ThreadReport, TimeBreakdown};

/// Identifies a workload thread.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ThreadId(pub usize);

/// Identifies a hardware thread context (`core * smt_ways + slot`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HwId(pub usize);

/// Cost of copying a full 4 KiB page to the user buffer (cache-resident).
const ACCESS_4K: Duration = Duration::from_nanos(60);
/// Cost of a small (≤ 64 B) user access.
const ACCESS_SMALL: Duration = Duration::from_nanos(15);
/// Frames fetched per synchronous free-queue refill (overlapped with the
/// in-flight fault's device time, §IV-D).
const SYNC_REFILL_BATCH: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    /// Waiting for a hardware context.
    Runnable,
    /// Executing on a hardware thread.
    Running(HwId),
    /// Pipeline-stalled on a hardware-handled miss (still owns the hw
    /// context).
    Stalled(HwId),
    /// Descheduled waiting for an OS-handled I/O.
    Blocked,
    /// Workload finished.
    Finished,
}

struct Thread {
    name: String,
    workload: Box<dyn Workload>,
    base_ipc: f64,
    pollution: Pollution,
    perf: PerfCounters,
    state: ThreadState,
    /// The step being executed (kept across fault retries).
    current: Option<Step>,
    /// What the thread's last read saw, captured at access time.
    last_read: Option<ReadSnapshot>,
    pin: Option<HwId>,
    /// Last hardware context this thread ran on (SMT identity for the
    /// per-thread report; `None` until first installed).
    last_hw: Option<HwId>,
    /// User cycles this thread would have spent at full cache warmth
    /// (pollution factor excluded, SMT sharing included). The ratio
    /// user_instructions / warm_user_cycles is the pollution-adjusted IPC.
    warm_user_cycles: u64,
    time: TimeBreakdown,
    miss_hist: LatencyHist,
    read_hist: LatencyHist,
    miss_start: Option<Time>,
    read_start: Option<Time>,
    runnable_since: Option<Time>,
}

struct HwThread {
    running: Option<ThreadId>,
    state: HwThreadState,
    tlb: Tlb,
    walker: Walker,
}

#[derive(Clone, Copy, Debug)]
enum Purpose {
    HwdpMiss { entry: EntryIdx },
    OsdpRead { key: (u32, u64) },
    Writeback,
    /// Migration copy read (source tier); `key` is the page's home slow
    /// LBA.
    TierRead { key: u64 },
    /// Migration copy write (destination tier).
    TierWrite { key: u64 },
}

#[derive(Debug)]
enum Event {
    /// Run the thread's next action.
    Step(ThreadId),
    /// A device finished a command.
    IoDone { dev: usize, token: CompletionToken, purpose: Purpose },
    /// Fault-recovery watchdog: the command behind `token` missed its
    /// [`crate::config::RetryPolicy::command_timeout`] deadline.
    IoTimeout { dev: usize, token: CompletionToken },
    /// Backstop retry of submissions parked by a queue-full window.
    SqDrain { dev: usize },
    /// Injected controller crash (scheduled from the fault config's
    /// `crash=` knob): the device loses every in-flight command and
    /// ignores doorbells until the host drives a reset.
    ControllerCrash { dev: usize },
    /// The host-issued controller reset completes (deterministic latency
    /// after [`System::handle_controller_failure`] begins it).
    ControllerReset { dev: usize },
    /// `kpoold` wakeup.
    KpoolTick,
    /// `kpted` wakeup.
    KptedTick,
    /// Tier migration-daemon wakeup (scheduled only when tiering is on).
    TierTick,
}

struct OsdpPending {
    vpn: Vpn,
    pfn: Pfn,
    block: BlockRef,
    /// OS-path retry count for this read (the OS retries once after the
    /// SMU layers gave up, then surfaces the error).
    attempts: u32,
    waiters: Vec<ThreadId>,
}

/// Watchdog bookkeeping for one in-flight command. Only populated while
/// fault injection is active: fault-free runs schedule no timeout events
/// and keep no per-command state, preserving byte-identical artifacts.
#[derive(Debug)]
struct IoMeta {
    purpose: Purpose,
    attempt: u32,
    timeout: EventId,
}

/// A submission rejected by queue-full backpressure, parked until the
/// next completion on the device (or the `SqDrain` backstop) retries it.
struct DeferredIo {
    qid: QueueId,
    cmd: NvmeCommand,
    data: Option<PageData>,
    purpose: Purpose,
    attempt: u32,
}

/// Driver-side tiering state: the placement engine plus what the engine
/// deliberately does not know — which file page each tracked key belongs
/// to, and which in-flight copies were invalidated by a concurrent
/// writeback.
struct TierRuntime {
    engine: TierEngine,
    /// The fast tier's device ID (device 0 is always the slow tier).
    fast_dev: DeviceId,
    /// Migration-daemon wake period.
    period: Duration,
    /// Page key (home slow LBA) → owning `(file, page)`, for location
    /// updates at commit.
    pages: DenseMap<(FileId, u64)>,
    /// Keys whose source copy was rewritten while their migration was in
    /// flight; the commit observes the mark and aborts (the copy is
    /// stale).
    dirty_guard: BTreeSet<u64>,
}

/// An I/O failure that exhausted every recovery layer (device retries,
/// SMU-to-OS degradation, OS-path retry) and was surfaced to the workload
/// instead of panicking the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IoError {
    /// The storage block whose read ultimately failed.
    pub block: BlockRef,
    /// The virtual page the faulting access targeted.
    pub vpn: Vpn,
}

/// The full system under test.
pub struct System {
    cfg: SystemConfig,
    queue: EventQueue<Event>,
    /// The kernel (public for inspection in tests and benches).
    pub os: Os,
    smu: Smu,
    devices: Vec<NvmeController>,
    device_index: BTreeMap<(u8, u8), usize>,
    /// OS driver queue per device (index-aligned with `devices`).
    os_queues: Vec<QueueId>,
    threads: Vec<Thread>,
    hw: Vec<HwThread>,
    runqueue: VecDeque<ThreadId>,
    /// Mapped regions' VMAs, keyed by region id (dense from
    /// `next_region`).
    region_map: DenseMap<VmaId>,
    next_region: u32,
    /// In-flight OS faults keyed by `(file, page)`; only a handful are in
    /// flight at once.
    osdp_inflight: SortedMap<(u32, u64), OsdpPending>,
    pending_misses: VecDeque<(ThreadId, Vpn)>,
    rng: Prng,
    wb_cid: u16,
    last_finish: Time,
    active_threads: usize,
    long_io_switches: u64,
    readahead_reads: u64,
    /// Events dispatched by the main loop (scheduler-throughput
    /// denominator; deterministic by the queue's ordering contract).
    events_processed: u64,
    /// Retired OSDP waiter lists, recycled so the fault path does not
    /// allocate a fresh `Vec` per major fault (bounded; see
    /// [`System::recycle_waiters`]).
    waiter_pool: Vec<Vec<ThreadId>>,
    /// Reusable eviction buffer for the fault/reclaim/refill paths
    /// (`mem::take`n around each use; always drained before being put
    /// back).
    scratch_evictions: Vec<Eviction>,
    /// Reusable frame buffer for free-queue refill ticks.
    scratch_frames: Vec<Pfn>,
    /// Reusable migration-plan buffer for tier-daemon ticks.
    scratch_plans: Vec<MigrationPlan>,
    /// Per-command watchdog state, keyed by `(device index, token)`.
    /// Tokens are issued in increasing order per device, so arming a
    /// watchdog mostly appends.
    io_meta: SortedMap<(usize, CompletionToken), IoMeta>,
    /// Tokens whose watchdog already fired; their late (or dropped)
    /// completions are retired silently.
    stale_tokens: SortedMap<(usize, CompletionToken), ()>,
    /// Parked submissions per device (queue-full recovery).
    deferred_io: Vec<VecDeque<DeferredIo>>,
    /// Pages the SMU abandoned after exhausting retries: the next access
    /// takes the OSDP software path instead of re-arming the hardware miss.
    force_osdp: BTreeSet<u64>,
    /// Errors surfaced to workloads (see [`System::io_errors`]).
    io_errors: Vec<IoError>,
    io_retries: u64,
    io_timeouts: u64,
    smu_fallbacks_fault: u64,
    io_errors_surfaced: u64,
    /// Controller resets the host recovery ladder drove to completion.
    controller_resets: u64,
    /// In-flight commands lost to injected controller crashes.
    crash_ios_lost: u64,
    /// hwdp-audit violations accumulated over the run (empty when
    /// `cfg.sanitize` is `Off`).
    audit: AuditReport,
    /// Last-seen per-device doorbell-write totals, for the
    /// `doorbell-monotonic` check (doorbell registers are write-counters;
    /// going backwards between audit points means queue state was reset
    /// mid-run).
    audit_doorbells: Vec<u64>,
    /// Tiered-storage runtime (`None` when `cfg.tiers` is `None`).
    tier: Option<TierRuntime>,
}

impl System {
    /// Creates a system from a configuration, with one Z-SSD-class device
    /// attached per [`SystemConfig::device`] (socket 0, device 0,
    /// pattern-filled namespace).
    pub fn new(cfg: SystemConfig) -> Self {
        let mut rng = Prng::seed_from(cfg.seed);
        let mut os = Os::new(cfg.memory_frames);
        let timing = SmuTiming::at(cfg.freq);
        // The paper's 4096-entry queue is 0.05 % of a 32 GiB machine; with
        // scaled-down DRAM, cap the queue so it can never absorb the
        // memory the workloads need (frames parked in the queue are not
        // reclaimable).
        let queue_depth = cfg.free_queue_depth.min((cfg.memory_frames / 8).max(8));
        let mut smu = Smu::new(
            SocketId(0),
            Pmshr::new(cfg.pmshr_entries),
            FreePageQueue::new(queue_depth, cfg.prefetch_entries),
            timing,
        );
        if cfg.per_core_free_queues {
            // §V: split the same total capacity across per-core queues.
            let per_core = (queue_depth / cfg.hw_threads()).max(4);
            smu = smu.with_per_core_queues(cfg.hw_threads(), per_core, cfg.prefetch_entries);
        }

        // Device 0: a namespace 8× memory (room for any experiment's
        // dataset), pattern-backed so unwritten blocks read deterministic
        // data. With tiering on, device 0 is the slow tier — data starts
        // cold there and the fast device is attached below.
        let blocks = (cfg.memory_frames as u64) * 16;
        let dev0_profile = cfg.tiers.map_or(cfg.device, |t| t.slow);
        let mut dev = NvmeController::new(dev0_profile, rng.fork(1));
        if let Some(faults) = cfg.faults.filter(|f| !f.is_zero()) {
            dev.set_fault_plan(faults, cfg.seed);
        }
        let nsid = dev.add_namespace(BlockStore::with_pattern(blocks, cfg.seed ^ 0xB10C));
        let os_q = dev.create_queue_pair(1024);
        let smu_q = dev.create_queue_pair(64);
        os.fs.register_device(SocketId(0), DeviceId(0), blocks);
        smu.host.install(
            DeviceId(0),
            QueueDescriptor {
                nsid,
                qid: smu_q,
                sq_base: hwdp_mem::addr::PhysAddr(0x40_0000),
                cq_base: hwdp_mem::addr::PhysAddr(0x41_0000),
                sq_doorbell: hwdp_mem::addr::PhysAddr(0xF000_0000),
                cq_doorbell: hwdp_mem::addr::PhysAddr(0xF000_0004),
                depth: 64,
            },
        );

        let hw = (0..cfg.hw_threads())
            .map(|_| HwThread {
                running: None,
                state: HwThreadState::Idle,
                tlb: Tlb::new(64, 4),
                walker: Walker::new(),
            })
            .collect();

        let mut sys = System {
            cfg,
            queue: EventQueue::new(),
            os,
            smu,
            devices: vec![dev],
            device_index: BTreeMap::from([((0u8, 0u8), 0usize)]),
            os_queues: vec![os_q],
            threads: Vec::new(),
            hw,
            runqueue: VecDeque::new(),
            region_map: DenseMap::new(),
            next_region: 0,
            osdp_inflight: SortedMap::new(),
            pending_misses: VecDeque::new(),
            rng,
            wb_cid: 0,
            last_finish: Time::ZERO,
            active_threads: 0,
            long_io_switches: 0,
            readahead_reads: 0,
            events_processed: 0,
            waiter_pool: Vec::new(),
            scratch_evictions: Vec::new(),
            scratch_frames: Vec::new(),
            scratch_plans: Vec::new(),
            io_meta: SortedMap::new(),
            stale_tokens: SortedMap::new(),
            deferred_io: vec![VecDeque::new()],
            force_osdp: BTreeSet::new(),
            io_errors: Vec::new(),
            io_retries: 0,
            io_timeouts: 0,
            smu_fallbacks_fault: 0,
            io_errors_surfaced: 0,
            controller_resets: 0,
            crash_ios_lost: 0,
            audit: AuditReport::new(),
            audit_doorbells: vec![0],
            tier: None,
        };
        if let Some(tc) = sys.cfg.tiers {
            let fast_dev = sys.add_device(tc.fast);
            sys.tier = Some(TierRuntime {
                engine: TierEngine::new(tc),
                fast_dev,
                period: tc.period,
                pages: DenseMap::new(),
                dirty_guard: BTreeSet::new(),
            });
        }
        // Seed the SMU's free-page queue before anything runs (the OS does
        // this when enabling fast mmap).
        if sys.cfg.mode.uses_lba_ptes() {
            sys.refill_free_queue(Time::ZERO);
        }
        sys
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Attaches another block device to socket 0 (the paper's SMU supports
    /// up to 8 per socket via the 3-bit device ID, Fig. 9). Creates the
    /// OS driver queue and the SMU's isolated queue pair + descriptor
    /// registers, and registers the device with the file system. Returns
    /// the new device's ID.
    ///
    /// # Panics
    ///
    /// Panics if 8 devices are already attached.
    pub fn add_device(&mut self, profile: DeviceProfile) -> DeviceId {
        let id = self.devices.len() as u8;
        assert!(id < 8, "the 3-bit device ID space is full");
        let blocks = (self.cfg.memory_frames as u64) * 16;
        let mut dev = NvmeController::new(profile, self.rng.fork(0xD0 + id as u64));
        if let Some(faults) = self.cfg.faults.filter(|f| !f.is_zero()) {
            // Each device gets its own fault RNG stream.
            dev.set_fault_plan(faults, self.cfg.seed ^ ((id as u64) << 8));
        }
        let nsid = dev.add_namespace(BlockStore::with_pattern(blocks, self.cfg.seed ^ id as u64));
        let os_q = dev.create_queue_pair(1024);
        let smu_q = dev.create_queue_pair(64);
        self.os.fs.register_device(SocketId(0), DeviceId(id), blocks);
        self.smu.host.install(
            DeviceId(id),
            QueueDescriptor {
                nsid,
                qid: smu_q,
                sq_base: hwdp_mem::addr::PhysAddr(0x40_0000 + (id as u64) * 0x2_0000),
                cq_base: hwdp_mem::addr::PhysAddr(0x41_0000 + (id as u64) * 0x2_0000),
                sq_doorbell: hwdp_mem::addr::PhysAddr(0xF000_0000 + (id as u64) * 8),
                cq_doorbell: hwdp_mem::addr::PhysAddr(0xF000_0004 + (id as u64) * 8),
                depth: 64,
            },
        );
        self.devices.push(dev);
        self.os_queues.push(os_q);
        self.deferred_io.push(VecDeque::new());
        self.audit_doorbells.push(0);
        self.device_index.insert((0, id), self.devices.len() - 1);
        DeviceId(id)
    }

    /// An independent RNG stream for seeding workloads.
    pub fn fork_rng(&mut self) -> Prng {
        self.rng.fork(0xF00D)
    }

    /// Creates a file whose blocks hold the device's deterministic pattern
    /// (an already-initialized dataset, as FIO uses).
    pub fn create_pattern_file(&mut self, name: &str, pages: u64) -> FileId {
        self.create_pattern_file_on(name, DeviceId(0), pages)
    }

    /// Creates a pattern-backed file on a specific device.
    pub fn create_pattern_file_on(&mut self, name: &str, device: DeviceId, pages: u64) -> FileId {
        let file = self.os.fs.create(name, SocketId(0), device, 1, pages);
        self.tier_register_file(file, device, pages);
        file
    }

    /// Creates a MiniDB data file: `records` verifiable record pages, with
    /// extent capacity for `capacity` pages (allowing YCSB inserts).
    pub fn create_kv_file(&mut self, name: &str, records: u64, capacity: u64) -> FileId {
        self.create_kv_file_on(name, DeviceId(0), records, capacity)
    }

    /// Creates a MiniDB data file on a specific device.
    pub fn create_kv_file_on(
        &mut self,
        name: &str,
        device: DeviceId,
        records: u64,
        capacity: u64,
    ) -> FileId {
        assert!(records <= capacity, "records exceed capacity");
        let file = self.os.fs.create(name, SocketId(0), device, 1, capacity);
        let dev = self.device_index[&(0, device.0)];
        // A new file's blocks are one contiguous run (`MiniFs::create`), so
        // its records are one extent read in closed form.
        if records > 0 {
            let first = self.os.fs.lba_of(file, 0);
            self.devices[dev].namespace_mut(1).init_extent(first, records, initial_record);
        }
        self.tier_register_file(file, device, capacity);
        file
    }

    /// Starts hotness tracking for every block of a file homed on the
    /// slow tier (device 0). Files created on other devices — including
    /// the fast tier itself — are not migration candidates. No-op without
    /// a tier configuration.
    fn tier_register_file(&mut self, file: FileId, device: DeviceId, pages: u64) {
        let Some(tr) = self.tier.as_mut() else { return };
        if device != DeviceId(0) {
            return;
        }
        for p in 0..pages {
            let key = self.os.fs.lba_of(file, p).0;
            tr.engine.register(key);
            tr.pages.insert(key, (file, p));
        }
    }

    /// Maps `file` with mode-appropriate flags (fast mmap under
    /// HWDP/SW-only, conventional under OSDP) and returns the region
    /// handle workloads use.
    pub fn map_file(&mut self, file: FileId) -> RegionId {
        let flags = if self.cfg.mode.uses_lba_ptes() {
            MmapFlags::fast()
        } else {
            MmapFlags::normal()
        };
        self.map_file_with(file, flags)
    }

    /// Maps `file` with explicit flags (e.g. [`MmapFlags::populate`] for
    /// the "ideal" pre-loaded configuration of Fig. 4).
    ///
    /// # Panics
    ///
    /// Panics if `populate` is requested but the dataset does not fit in
    /// memory.
    pub fn map_file_with(&mut self, file: FileId, flags: MmapFlags) -> RegionId {
        let (id, vma) = self.os.mmap(file, flags);
        if flags.populate {
            let (socket, device, nsid) = self.os.fs.home(file);
            let dev = self.device_index[&(socket.0, device.0)];
            for p in 0..vma.pages {
                let lba = self.os.fs.lba_of(file, p);
                let Some((pfn, evictions)) = self.os.alloc_frame() else { break };
                assert!(evictions.is_empty(), "populate does not fit in memory");
                let data = self.devices[dev].namespace(nsid).read_block(lba);
                self.os.frames.dma_fill(pfn, data);
                self.os.map_resident(vma, p, pfn);
            }
        }
        let region = RegionId(self.next_region);
        self.next_region += 1;
        self.region_map.insert(u64::from(region.0), id);
        region
    }

    /// Maps an anonymous region of `pages` pages (paper §V): under
    /// HWDP/SW-only every PTE carries the reserved first-touch LBA so the
    /// SMU zero-fills without I/O; swapped-out pages come back as ordinary
    /// hardware misses from the swap blocks.
    pub fn map_anon(&mut self, pages: u64) -> RegionId {
        self.map_anon_on(DeviceId(0), pages)
    }

    /// Maps an anonymous region whose swap blocks live on a specific
    /// device (multi-device setups place swap next to its consumers).
    pub fn map_anon_on(&mut self, device: DeviceId, pages: u64) -> RegionId {
        let flags = if self.cfg.mode.uses_lba_ptes() {
            MmapFlags::fast()
        } else {
            MmapFlags::normal()
        };
        let (id, vma) = self.os.mmap_anon(SocketId(0), device, 1, pages, flags);
        self.tier_register_file(vma.file, device, pages);
        let region = RegionId(self.next_region);
        self.next_region += 1;
        self.region_map.insert(u64::from(region.0), id);
        region
    }

    /// `munmap()` of a region between runs (§IV-C): enforces the SMU
    /// barrier (no outstanding misses may reference the area), updates OS
    /// metadata for unsynced PTEs, tears the mapping down, and applies any
    /// dirty writebacks to storage. Returns the number of pages written
    /// back.
    ///
    /// # Panics
    ///
    /// Panics if misses are still outstanding (call between [`System::run`]
    /// windows) or the region is unknown.
    pub fn munmap_region(&mut self, region: RegionId) -> usize {
        assert_eq!(
            self.smu.pmshr.occupancy(),
            0,
            "SMU barrier: outstanding hardware misses during munmap (§IV-C)"
        );
        assert!(
            self.osdp_inflight.is_empty(),
            "outstanding OS faults during munmap"
        );
        // An unknown region is a caller bug, documented under `# Panics`.
        #[allow(clippy::expect_used)]
        let vma_id = self.region_map.remove(u64::from(region.0)).expect("unknown region");
        let evictions = self.os.munmap(vma_id);
        let n = evictions.len();
        self.apply_writebacks_immediately(&evictions);
        n
    }

    /// `msync()` of a region between runs (§IV-C): syncs OS metadata, then
    /// flushes every dirty page to storage (the mapping stays intact).
    /// Returns the number of pages written back.
    pub fn msync_region(&mut self, region: RegionId) -> usize {
        // Region ids come only from this System's `map_*`; an unknown one
        // is a caller bug.
        #[allow(clippy::expect_used)]
        let vma_id = *self.region_map.get(u64::from(region.0)).expect("unknown region");
        let evictions = self.os.msync(vma_id);
        let n = evictions.len();
        self.apply_writebacks_immediately(&evictions);
        n
    }

    /// A `fork()` over the region (§V): LBA-augmented PTEs revert to
    /// normal OS-handled PTEs because fast-mmapped pages cannot be shared
    /// across address spaces. Returns how many PTEs were reverted.
    pub fn fork_region(&mut self, region: RegionId) -> u64 {
        // Region ids come only from this System's `map_*`; an unknown one
        // is a caller bug.
        #[allow(clippy::expect_used)]
        let vma_id = *self.region_map.get(u64::from(region.0)).expect("unknown region");
        self.os.fork_revert_lba(vma_id)
    }

    /// A log-structured / copy-on-write block relocation (§IV-B): moves
    /// `page` of `file` to a freshly allocated block, copies its contents,
    /// and propagates the new LBA into any LBA-augmented PTE. Returns
    /// `(old, new)` LBAs.
    pub fn relocate_file_page(&mut self, file: FileId, page: u64) -> (hwdp_mem::addr::Lba, hwdp_mem::addr::Lba) {
        let (socket, device, nsid) = self.os.fs.home(file);
        let dev = self.device_index[&(socket.0, device.0)];
        let old_lba = self.os.fs.lba_of(file, page);
        let data = self.devices[dev].namespace(nsid).read_block(old_lba);
        let (old, new) = self.os.on_block_remap(file, page);
        debug_assert_eq!(old, old_lba);
        self.devices[dev].namespace_mut(nsid).write_block(new, data);
        (old, new)
    }

    /// Invalidates `vpn` in the TLB of every context running a thread. An
    /// idle context holds no translations (`release_hw` flushes it, and
    /// every fill goes to a running context), so it is skipped; the
    /// `idle-context-tlb-empty` check audits that.
    fn shoot_down(&mut self, vpn: Vpn) {
        for hw in self.hw.iter_mut().filter(|hw| hw.running.is_some()) {
            hw.tlb.invalidate(vpn);
        }
    }

    /// Applies writebacks synchronously to the block store and shoots down
    /// any stale TLB entries (teardown paths, outside the event loop).
    fn apply_writebacks_immediately(&mut self, evictions: &[Eviction]) {
        for ev in evictions {
            if let Some(vpn) = ev.vpn {
                self.shoot_down(vpn);
            }
            if ev.dirty {
                self.tier_note_writeback(&ev.block);
                let Some(dev) = self.device_of(ev.block) else { continue };
                self.devices[dev].namespace_mut(1).write_block(ev.block.lba, ev.data.clone());
            }
        }
    }

    /// Spawns a workload thread. `base_ipc` is its unpolluted, solo IPC;
    /// `pin` optionally fixes it to a hardware context (Fig. 16 pins FIO
    /// and SPEC on the two hw threads of one core).
    pub fn spawn(
        &mut self,
        workload: Box<dyn Workload>,
        base_ipc: f64,
        pin: Option<HwId>,
    ) -> ThreadId {
        assert!(base_ipc > 0.0, "IPC must be positive");
        if let Some(p) = pin {
            assert!(
                p.0 < self.hw.len(),
                "pin {} exceeds the {} hardware contexts (physical_cores x smt_ways)",
                p.0,
                self.hw.len()
            );
        }
        let tid = ThreadId(self.threads.len());
        self.threads.push(Thread {
            name: workload.name(),
            workload,
            base_ipc,
            pollution: Pollution::new(self.cfg.pollution),
            perf: PerfCounters::default(),
            state: ThreadState::Runnable,
            current: None,
            last_read: None,
            pin,
            last_hw: None,
            warm_user_cycles: 0,
            time: TimeBreakdown::default(),
            miss_hist: LatencyHist::new(),
            read_hist: LatencyHist::new(),
            miss_start: None,
            read_start: None,
            runnable_since: Some(Time::ZERO),
        });
        self.active_threads += 1;
        tid
    }

    // ----- hardware-context scheduling ------------------------------------

    /// Preferred placement order: spread across physical cores first
    /// (slot 0 of each core), then fill SMT slots.
    fn free_hw_for(&self, tid: ThreadId) -> Option<HwId> {
        if let Some(pin) = self.threads[tid.0].pin {
            return self.hw[pin.0].running.is_none().then_some(pin);
        }
        let smt = self.cfg.smt_ways;
        for slot in 0..smt {
            for core in 0..self.cfg.physical_cores {
                let h = core * smt + slot;
                if self.hw[h].running.is_none() {
                    return Some(HwId(h));
                }
            }
        }
        None
    }

    fn install(&mut self, tid: ThreadId, hw: HwId, now: Time) {
        debug_assert!(self.hw[hw.0].running.is_none());
        if let Some(since) = self.threads[tid.0].runnable_since.take() {
            self.threads[tid.0].time.sched_wait += now.saturating_since(since);
        }
        self.hw[hw.0].running = Some(tid);
        self.hw[hw.0].state = HwThreadState::Active;
        self.threads[tid.0].last_hw = Some(hw);
        self.threads[tid.0].state = ThreadState::Running(hw);
    }

    /// Makes a thread runnable at `at`; installs it immediately if a
    /// context is free.
    fn wake(&mut self, tid: ThreadId, at: Time) {
        match self.free_hw_for(tid) {
            Some(hw) => {
                self.install(tid, hw, at);
                self.queue.schedule(at, Event::Step(tid));
            }
            None => {
                self.threads[tid.0].state = ThreadState::Runnable;
                self.threads[tid.0].runnable_since = Some(at);
                self.runqueue.push_back(tid);
            }
        }
    }

    /// Releases a hardware context and pulls in the next compatible
    /// runnable thread.
    ///
    /// The context's TLB and walk caches are flushed here, when it goes
    /// idle, rather than when the next thread is installed: nothing looks
    /// up an idle context, so the two are indistinguishable, and an idle
    /// context's empty TLB makes every later shootdown of it free.
    fn release_hw(&mut self, hw: HwId, now: Time) {
        let ctx = &mut self.hw[hw.0];
        ctx.running = None;
        ctx.state = HwThreadState::Idle;
        ctx.tlb.flush();
        ctx.walker.flush();
        if let Some(pos) = self
            .runqueue
            .iter()
            .position(|&t| self.threads[t.0].pin.map_or(true, |p| p == hw))
        {
            let Some(tid) = self.runqueue.remove(pos) else { return };
            self.install(tid, hw, now);
            self.queue.schedule(now, Event::Step(tid));
        }
    }

    fn sibling_active(&self, hw: HwId) -> bool {
        let smt = self.cfg.smt_ways;
        let core = hw.0 / smt;
        (core * smt..(core + 1) * smt)
            .filter(|&h| h != hw.0)
            .any(|h| self.hw[h].state.issuing())
    }

    // ----- step execution ---------------------------------------------------

    fn advance(&mut self, tid: ThreadId, now: Time) {
        // A Step event for a thread that is not running is a scheduler bug,
        // not a recoverable condition.
        #[allow(clippy::panic)]
        let ThreadState::Running(hw) = self.threads[tid.0].state else {
            // A stale Step event for a thread that got blocked/stalled in
            // the meantime cannot happen (events are scheduled exactly at
            // resume boundaries); treat as a bug.
            panic!("Step event for non-running thread {tid:?}");
        };
        let step = match self.threads[tid.0].current.take() {
            Some(s) => s,
            None => {
                let t = &mut self.threads[tid.0];
                // The previous read's snapshot is verified here but *kept*
                // (not dropped), so the next read recycles its buffer.
                let step = t.workload.next(t.last_read.as_ref());
                step.validate();
                if matches!(step, Step::Read { .. }) {
                    t.read_start = Some(now);
                }
                step
            }
        };
        match step {
            Step::Compute { instructions } => {
                let share = issue_factor(self.sibling_active(hw));
                let factor = {
                    let t = &mut self.threads[tid.0];
                    t.base_ipc * t.pollution.retire_user(instructions) * share
                };
                let dt = self.cfg.freq.retire(instructions, factor);
                let cycles = self.cfg.freq.cycles_in(dt);
                // Counterfactual cycle count at full cache warmth (same SMT
                // sharing, no pollution slowdown): observation-only input to
                // the per-thread pollution-adjusted IPC.
                let warm_dt =
                    self.cfg.freq.retire(instructions, self.threads[tid.0].base_ipc * share);
                let warm_cycles = self.cfg.freq.cycles_in(warm_dt);
                let t = &mut self.threads[tid.0];
                let mpki = t.pollution.mpki();
                t.perf.record_user(instructions, cycles, mpki);
                t.warm_user_cycles += warm_cycles;
                t.time.compute += dt;
                self.hw[hw.0].state = HwThreadState::Active;
                self.queue.schedule(now + dt, Event::Step(tid));
            }
            Step::Read { .. } | Step::Write { .. } => {
                self.execute_access(tid, hw, step, now);
            }
            Step::Finish => {
                self.threads[tid.0].state = ThreadState::Finished;
                self.active_threads -= 1;
                self.last_finish = self.last_finish.max(now);
                self.release_hw(hw, now);
            }
        }
    }

    /// The VPN backing `offset` within a mapped region, or `None` when the
    /// region has been unmapped (a late completion racing `munmap`).
    fn region_vpn(&self, region: RegionId, offset: u64) -> Option<Vpn> {
        let vma_id = *self.region_map.get(u64::from(region.0))?;
        let vma = self.os.aspace.get(vma_id)?;
        let page = offset / 4096;
        assert!(page < vma.pages, "access beyond the mapped region");
        Some(vma.base.add(page))
    }

    fn execute_access(&mut self, tid: ThreadId, hw: HwId, step: Step, now: Time) {
        let (region, offset) = match &step {
            Step::Read { region, offset, .. } => (*region, *offset),
            Step::Write { region, offset, .. } => (*region, *offset),
            _ => unreachable!("execute_access only handles accesses"),
        };
        let Some(vpn) = self.region_vpn(region, offset) else {
            // The region vanished under the thread (access/unmap race in
            // the workload script): retire the access as a no-op rather
            // than aborting the campaign.
            self.queue.schedule(now, Event::Step(tid));
            return;
        };
        self.hw[hw.0].state = HwThreadState::Active;

        let mut t = now;
        let pfn = match self.hw[hw.0].tlb.lookup(vpn) {
            Some(pfn) => pfn,
            None => {
                t += self.hw[hw.0].walker.walk(vpn);
                let entry = self.os.page_table.leaf_mut(vpn);
                let pte = entry.as_deref().copied().unwrap_or(Pte::EMPTY);
                match (pte.class(), pte.pfn()) {
                    (PteClass::Resident | PteClass::ResidentNeedsSync, Some(pfn)) => {
                        if let Some(e) = entry {
                            *e = e.with_accessed();
                        }
                        self.hw[hw.0].tlb.fill(vpn, pfn);
                        pfn
                    }
                    (PteClass::LbaAugmented, _) => {
                        debug_assert!(self.cfg.mode.uses_lba_ptes());
                        self.threads[tid.0].current = Some(step);
                        self.threads[tid.0].miss_start = Some(now);
                        if self.force_osdp.remove(&vpn.0) {
                            // Fault recovery abandoned the hardware miss on
                            // this page; route it through the OS instead.
                            self.start_osdp_fault(tid, hw, vpn, t);
                        } else {
                            self.start_lba_miss(tid, hw, vpn, t);
                        }
                        return;
                    }
                    // Not present, or a resident-class PTE without a
                    // frame: the OSDP path handles any PTE state.
                    _ => {
                        self.threads[tid.0].current = Some(step);
                        self.threads[tid.0].miss_start = Some(now);
                        self.start_osdp_fault(tid, hw, vpn, t);
                        return;
                    }
                }
            }
        };

        // Resident: perform the access against real frame contents.
        match &step {
            Step::Read { len, .. } => {
                // Snapshot the read now: the frame may be rewritten or
                // evicted before the thread's next step. A pattern or zero
                // page costs O(1) here (the bytes are made only if the
                // workload asks); explicit bytes copy just the window into
                // the recycled buffer of the thread's previous snapshot.
                let mut snap = self.threads[tid.0].last_read.take().unwrap_or_default();
                self.os.frames.read(pfn, (offset % 4096) as usize, *len as usize, &mut snap);
                t += if *len > 64 { ACCESS_4K } else { ACCESS_SMALL };
                let thread = &mut self.threads[tid.0];
                thread.last_read = Some(snap);
                if let Some(start) = thread.read_start.take() {
                    thread.read_hist.record(t - start);
                }
            }
            Step::Write { data, .. } => {
                self.os.frames.write(pfn, (offset % 4096) as usize, data);
                self.os.page_table.update_pte(vpn, Pte::with_dirty);
                t += ACCESS_SMALL;
            }
            _ => unreachable!(),
        }
        self.threads[tid.0].time.access += t - now;
        self.queue.schedule(t, Event::Step(tid));
    }

    // ----- the OSDP path ----------------------------------------------------

    /// Acquires a waiter list for a new OSDP fault, reusing a retired one
    /// when available so the steady-state fault path is allocation-free.
    fn take_waiters(&mut self) -> Vec<ThreadId> {
        self.waiter_pool.pop().unwrap_or_default()
    }

    /// Returns a drained waiter list to the pool. Bounded: the pool can
    /// never hold more lists than there were concurrent OSDP faults, and
    /// a hard cap keeps a pathological run from hoarding memory.
    fn recycle_waiters(&mut self, mut waiters: Vec<ThreadId>) {
        if self.waiter_pool.len() < 64 {
            waiters.clear();
            self.waiter_pool.push(waiters);
        }
    }

    fn charge_kernel(&mut self, tid: ThreadId, instr: u64, latency: Duration) {
        let cycles = self.cfg.freq.cycles_in(latency);
        let t = &mut self.threads[tid.0];
        t.pollution.kernel_entry(instr);
        t.perf.record_kernel(instr, cycles);
        t.time.kernel += latency;
    }

    fn start_osdp_fault(&mut self, tid: ThreadId, hw: HwId, vpn: Vpn, now: Time) {
        let costs = self.os.osdp_costs;
        let Some((_, vma)) = self.os.aspace.resolve(vpn) else {
            // Fault outside any VMA: a real kernel would segfault the
            // process. Retire the access instead of aborting the run.
            self.queue.schedule(now, Event::Step(tid));
            return;
        };
        let key = (vma.file.0, vma.file_page(vpn));

        // If the OS takes over an LBA-augmented miss (free-queue-empty
        // fallback), it claims the PTE by clearing it first — otherwise
        // another core could still route the same page to the SMU and
        // create an alias while the OS read is in flight.
        if let Some(e) = self.os.page_table.leaf_mut(vpn) {
            if e.class() == PteClass::LbaAugmented {
                *e = Pte::EMPTY;
            }
        }

        // Entry + handler run in this thread's context either way.
        let entry_instr = costs.exception.instructions + costs.fault_handler.instructions;
        let entry_lat = costs.exception.latency + costs.fault_handler.latency;

        // Join an in-flight fault for the same page (the page-lock wait in
        // a real kernel) instead of aliasing it.
        if let Some(pending) = self.osdp_inflight.get_mut(&key) {
            pending.waiters.push(tid);
            self.charge_kernel(tid, entry_instr, entry_lat);
            self.block_thread(tid, hw, now);
            return;
        }

        let mut evictions = std::mem::take(&mut self.scratch_evictions);
        let Some(plan) = self.os.osdp_fault(vpn, &mut evictions) else {
            // Segfault (no VMA) or frame exhaustion: retire the access so
            // the campaign completes and surfaces the anomaly in stats.
            self.scratch_evictions = evictions;
            self.queue.schedule(now, Event::Step(tid));
            return;
        };
        match plan {
            FaultPlan::Minor { pfn } => {
                // Exception + handler + metadata, no I/O, no switch.
                let lat = entry_lat + costs.metadata_update.latency;
                let instr = entry_instr + costs.metadata_update.instructions;
                self.charge_kernel(tid, instr, lat);
                self.hw[hw.0].tlb.fill(vpn, pfn);
                let done = now + lat;
                if let Some(start) = self.threads[tid.0].miss_start.take() {
                    self.threads[tid.0].miss_hist.record(done - start);
                }
                self.queue.schedule(done, Event::Step(tid));
            }
            FaultPlan::ZeroFill { pfn } => {
                // Anonymous first touch through the OS path: allocate +
                // zero + map; no device I/O, no context switch.
                self.handle_evictions(&mut evictions, now);
                let lat = entry_lat + costs.metadata_update.latency;
                let instr = entry_instr + costs.metadata_update.instructions;
                self.charge_kernel(tid, instr, lat);
                self.os.frames.dma_fill(pfn, PageData::Zero);
                self.os.osdp_fault_complete(vpn, pfn);
                self.hw[hw.0].tlb.fill(vpn, pfn);
                let done = now + lat;
                if let Some(start) = self.threads[tid.0].miss_start.take() {
                    self.threads[tid.0].miss_hist.record(done - start);
                }
                self.queue.schedule(done, Event::Step(tid));
            }
            FaultPlan::Major { pfn, block } => {
                self.handle_evictions(&mut evictions, now);
                self.charge_kernel(
                    tid,
                    entry_instr + costs.io_submit.instructions + costs.context_switch_out.instructions,
                    entry_lat + costs.io_submit.latency,
                );
                let submit_at = now + costs.before_device();
                self.submit_read(block, pfn, submit_at, Purpose::OsdpRead { key }, 0);
                let mut waiters = self.take_waiters();
                waiters.push(tid);
                self.osdp_inflight
                    .insert(key, OsdpPending { vpn, pfn, block, attempts: 0, waiters });
                self.issue_os_readahead(vpn, submit_at, &mut evictions);
                self.block_thread(tid, hw, now);
            }
        }
        self.scratch_evictions = evictions;
    }

    /// OS readahead (window configured by `readahead_pages`): alongside a
    /// major fault at `vpn`, read the next sequential file pages into the
    /// page cache. Readahead reads share the OSDP in-flight machinery with
    /// zero waiters, so a demand fault on a page being read ahead simply
    /// joins it. `evictions` is the caller's (drained) scratch buffer.
    fn issue_os_readahead(&mut self, vpn: Vpn, at: Time, evictions: &mut Vec<Eviction>) {
        let window = self.cfg.readahead_pages;
        if window == 0 {
            return;
        }
        for i in 1..=window as u64 {
            let next = Vpn(vpn.0 + i);
            let Some((_, vma)) = self.os.aspace.resolve(next) else { break };
            let file_page = vma.file_page(next);
            let key = (vma.file.0, file_page);
            if self.osdp_inflight.contains_key(&key)
                || self.os.cache.lookup(vma.file, file_page).is_some()
                || self.os.page_table.pte(next).is_present()
            {
                continue;
            }
            // Never-written anonymous pages have nothing to read ahead.
            if self.os.fs.is_anon(vma.file) && !self.os.fs.is_swap_initialized(vma.file, file_page)
            {
                continue;
            }
            // Readahead is best-effort: stop when frames run out.
            let Some(pfn) = self.os.alloc_frame_into(evictions) else { break };
            self.handle_evictions(evictions, at);
            let block = self.os.block_for(vma.file, file_page);
            self.submit_read(block, pfn, at, Purpose::OsdpRead { key }, 0);
            let waiters = self.take_waiters();
            self.osdp_inflight
                .insert(key, OsdpPending { vpn: next, pfn, block, attempts: 0, waiters });
            self.readahead_reads += 1;
        }
    }

    /// §V SMU prefetch: alongside a demand miss at `vpn`, start detached
    /// hardware misses for the next sequential pages whose PTEs are still
    /// LBA-augmented.
    fn issue_smu_prefetches(&mut self, vpn: Vpn, hw: HwId, at: Time) {
        let window = self.cfg.smu_prefetch_pages;
        if window == 0 {
            return;
        }
        for i in 1..=window as u64 {
            let next = Vpn(vpn.0 + i);
            if self.os.aspace.resolve(next).is_none() {
                break;
            }
            let Some(walk) = self.os.page_table.walk(next) else { continue };
            if walk.pte.class() != PteClass::LbaAugmented {
                continue;
            }
            let Some(block) = walk.pte.block() else { continue };
            let req = MissRequest { walk, block, waiter: 0, core: hw.0 };
            let Some((entry, qid, cmd, _pfn, before)) = self.smu.begin_prefetch(req) else {
                continue;
            };
            let Some(dev) = self.device_of(block) else {
                // Unknown device: abandon the prefetch (best-effort).
                self.smu.abandon_io(entry, 0);
                continue;
            };
            self.submit_or_defer(
                dev,
                qid,
                cmd,
                None,
                Purpose::HwdpMiss { entry },
                0,
                at + before,
            );
        }
    }

    fn block_thread(&mut self, tid: ThreadId, hw: HwId, now: Time) {
        self.threads[tid.0].state = ThreadState::Blocked;
        self.release_hw(hw, now);
    }

    fn finish_osdp_read(&mut self, key: (u32, u64), data: PageData, now: Time) {
        let costs = self.os.osdp_costs;
        let Some(pending) = self.osdp_inflight.remove(&key) else {
            // Fault recovery already resolved (or surfaced) this fault; a
            // late completion has nothing left to deliver.
            return;
        };
        self.os.frames.dma_fill(pending.pfn, data);
        self.os.osdp_fault_complete(pending.vpn, pending.pfn);
        let after_lat = costs.after_device();
        let after_instr = costs.irq_delivery.instructions
            + costs.io_completion.instructions
            + costs.context_switch_in.instructions
            + costs.metadata_update.instructions;
        let resume = now + after_lat;
        let mut waiters = pending.waiters;
        for tid in waiters.drain(..) {
            self.charge_kernel(tid, after_instr, after_lat);
            let thread = &mut self.threads[tid.0];
            if let Some(start) = thread.miss_start.take() {
                let total = resume - start;
                thread.miss_hist.record(total);
                // Kernel latency was charged to time.kernel; the rest of
                // the wait is miss time.
                let kernel_part = costs.before_device() + after_lat;
                thread.time.miss_wait += total.saturating_sub(kernel_part);
            }
            self.wake(tid, resume);
        }
        self.recycle_waiters(waiters);
    }

    // ----- the HWDP / SW-only path -------------------------------------------

    fn start_lba_miss(&mut self, tid: ThreadId, hw: HwId, vpn: Vpn, now: Time) {
        // Fast-mmap tables are always populated and the PTE carries a
        // block; if either invariant slips, the OSDP path handles any PTE
        // state, so degrade there instead of panicking.
        let Some(walk) = self.os.page_table.walk(vpn) else {
            self.start_osdp_fault(tid, hw, vpn, now);
            return;
        };
        let Some(block) = walk.pte.block() else {
            self.start_osdp_fault(tid, hw, vpn, now);
            return;
        };
        let req = MissRequest { walk, block, waiter: tid.0 as u64, core: hw.0 };
        let sw = self.cfg.mode == Mode::SwOnly;
        match self.smu.begin_miss(req) {
            MissOutcome::Started { entry, pfn, dma: _, qid, cmd, before_device } => {
                let before = if sw {
                    let c = self.os.sw_costs;
                    self.charge_kernel(
                        tid,
                        c.exception.instructions
                            + c.pmshr_emulation.instructions
                            + c.direct_submit.instructions,
                        c.before_device(),
                    );
                    c.before_device()
                } else {
                    before_device
                };
                let Some(dev) = self.device_of(block) else {
                    // Unknown device: abandon the hardware miss and route
                    // every waiter through the OS fault path.
                    self.escalate_hwdp(entry, now);
                    return;
                };
                let submit_at = now + before;
                let _ = pfn; // frame is delivered via finish_io
                let done_at = self.submit_or_defer(
                    dev,
                    qid,
                    cmd,
                    None,
                    Purpose::HwdpMiss { entry },
                    0,
                    submit_at,
                );
                // §V "Long Latency I/O": if the device wait exceeds the
                // configured threshold, take a timeout exception and
                // context-switch instead of wasting the core on a stall.
                // A deferred submission (queue-full backpressure) has an
                // unbounded wait and always takes the switch.
                self.issue_smu_prefetches(vpn, hw, submit_at);
                let long_wait = match done_at {
                    Some(done_at) => {
                        let wait = done_at.saturating_since(now);
                        self.cfg.long_io_timeout.is_some_and(|limit| wait > limit)
                    }
                    None => self.cfg.long_io_timeout.is_some(),
                };
                if long_wait {
                    let c = self.os.osdp_costs;
                    self.charge_kernel(
                        tid,
                        c.exception.instructions + c.context_switch_out.instructions,
                        c.exception.latency,
                    );
                    self.long_io_switches += 1;
                    self.block_thread(tid, hw, now);
                } else {
                    self.stall_thread(tid, hw);
                }
            }
            MissOutcome::ZeroFill { entry, pfn, before_device, .. } => {
                // §V: anonymous first touch — the SMU delivers a zeroed
                // page with no device I/O at all.
                let before = if sw {
                    let c = self.os.sw_costs;
                    self.charge_kernel(
                        tid,
                        c.exception.instructions + c.pmshr_emulation.instructions,
                        c.exception.latency + c.pmshr_emulation.latency,
                    );
                    c.exception.latency + c.pmshr_emulation.latency
                } else {
                    before_device
                };
                self.os.frames.dma_fill(pfn, PageData::Zero);
                let Some(fin) = self.smu.finish_zero_fill(entry, &mut self.os.page_table) else {
                    // The entry vanished under us (unreachable for the
                    // synchronous zero-fill path, but never panic on a
                    // completion path): just resume the thread.
                    self.queue.schedule(now + before, Event::Step(tid));
                    return;
                };
                debug_assert!(fin.waiters.len() == 1 && fin.waiters[0] == tid.0 as u64);
                let resume = now + before + fin.after_device;
                let thread = &mut self.threads[tid.0];
                if let Some(start) = thread.miss_start.take() {
                    thread.miss_hist.record(resume - start);
                    thread.time.miss_wait += resume - start;
                }
                self.queue.schedule(resume, Event::Step(tid));
            }
            MissOutcome::Coalesced { .. } => {
                self.stall_thread(tid, hw);
            }
            MissOutcome::FreeQueueEmpty { cost } => {
                // §IV-D: fall back to the OS fault handler, which also
                // refills the queue, overlapped with the fault's own
                // device time.
                self.refill_free_queue(now);
                self.start_osdp_fault(tid, hw, vpn, now + cost);
            }
            MissOutcome::PmshrFull { .. } => {
                self.pending_misses.push_back((tid, vpn));
                self.stall_thread(tid, hw);
            }
            MissOutcome::FailToOs { cost } => {
                // Host-controller misconfiguration (no queue descriptor
                // for the device): the SMU rolled its state back; degrade
                // to the OS fault path instead of aborting the process.
                self.smu_fallbacks_fault += 1;
                self.start_osdp_fault(tid, hw, vpn, now + cost);
            }
        }
    }

    fn stall_thread(&mut self, tid: ThreadId, hw: HwId) {
        self.threads[tid.0].state = ThreadState::Stalled(hw);
        self.hw[hw.0].state = HwThreadState::Stalled;
    }

    fn finish_hwdp_miss(&mut self, entry: EntryIdx, data: PageData, now: Time) {
        let Some(fin) = self.smu.finish_io(entry, &mut self.os.page_table) else {
            // Fault recovery abandoned this entry before the (re)read
            // landed; the waiters were already re-routed.
            return;
        };
        self.os.frames.dma_fill(fin.pfn, data);
        let sw = self.cfg.mode == Mode::SwOnly;
        let after = if sw { self.os.sw_costs.after_device() } else { fin.after_device };
        let resume = now + after;
        for waiter in fin.waiters {
            let tid = ThreadId(waiter as usize);
            if sw {
                self.charge_kernel(
                    tid,
                    self.os.sw_costs.poll_completion.instructions,
                    Duration::ZERO, // latency accounted via the resume delay
                );
            }
            let thread = &mut self.threads[tid.0];
            if let Some(start) = thread.miss_start.take() {
                thread.miss_hist.record(resume - start);
                thread.time.miss_wait += resume - start;
            }
            match thread.state {
                ThreadState::Stalled(hw) => {
                    thread.state = ThreadState::Running(hw);
                    self.hw[hw.0].state = HwThreadState::Active;
                    self.queue.schedule(resume, Event::Step(tid));
                }
                ThreadState::Blocked => {
                    // §V timeout path: the thread was context-switched away;
                    // pay the switch back in before resuming.
                    let c = self.os.osdp_costs;
                    self.charge_kernel(
                        tid,
                        c.context_switch_in.instructions,
                        c.context_switch_in.latency,
                    );
                    self.wake(tid, resume + c.context_switch_in.latency);
                }
                // Fault recovery may already have re-routed this waiter;
                // never wake a context twice.
                _ => {}
            }
        }
        // A PMSHR slot just freed: retry queued misses.
        while let Some((tid, vpn)) = self.pending_misses.pop_front() {
            let ThreadState::Stalled(hw) = self.threads[tid.0].state else {
                // Recovery moved this thread on; its miss restarts through
                // its own Step event.
                continue;
            };
            // Re-check the PTE: a coalesced completion may have resolved it.
            let pte = self.os.page_table.pte(vpn);
            if pte.is_present() {
                self.threads[tid.0].state = ThreadState::Running(hw);
                self.hw[hw.0].state = HwThreadState::Active;
                if let Some(start) = self.threads[tid.0].miss_start.take() {
                    self.threads[tid.0].miss_hist.record(now - start);
                    self.threads[tid.0].time.miss_wait += now - start;
                }
                self.queue.schedule(now, Event::Step(tid));
                continue;
            }
            self.start_lba_miss(tid, hw, vpn, now);
            if !matches!(self.threads[tid.0].state, ThreadState::Stalled(_)) {
                continue;
            }
            if self.pending_contains(tid) {
                break; // PMSHR is full again; stop retrying.
            }
        }
    }

    fn pending_contains(&self, tid: ThreadId) -> bool {
        self.pending_misses.iter().any(|&(t, _)| t == tid)
    }

    // ----- I/O plumbing -------------------------------------------------------

    /// The device table index for a block reference, or `None` for a block
    /// naming a device this system was not built with.
    fn device_of(&self, block: BlockRef) -> Option<usize> {
        self.device_index.get(&(block.socket.0, block.device.0)).copied()
    }

    fn submit_read(&mut self, block: BlockRef, pfn: Pfn, at: Time, purpose: Purpose, attempt: u32) {
        // An unknown device cannot be read from; drop the request (the
        // fault recovery watchdog surfaces any waiter this strands).
        let Some(dev) = self.device_of(block) else { return };
        self.wb_cid = self.wb_cid.wrapping_add(1);
        let cmd = NvmeCommand::read4k(self.wb_cid, 1, block.lba.0, pfn.base());
        let qid = self.os_queues[dev];
        self.submit_or_defer(dev, qid, cmd, None, purpose, attempt, at);
    }

    /// `true` when a live fault plan can actually fire. Every piece of
    /// recovery bookkeeping (watchdogs, deferral queues) is gated on this,
    /// so fault-free runs stay byte-identical to the pre-fault simulator.
    fn fault_injection_active(&self) -> bool {
        self.cfg.faults.is_some_and(|f| !f.is_zero())
    }

    /// Arms the per-command timeout watchdog. Inert when fault injection
    /// is off (completions then always arrive) and for writebacks (write
    /// data applies at submission, so there is nothing to recover).
    fn track_io(
        &mut self,
        dev: usize,
        token: CompletionToken,
        purpose: Purpose,
        attempt: u32,
        submit_at: Time,
    ) {
        if !self.fault_injection_active()
            || matches!(
                purpose,
                Purpose::Writeback | Purpose::TierRead { .. } | Purpose::TierWrite { .. }
            )
        {
            return;
        }
        let deadline = submit_at + self.cfg.retry.command_timeout;
        let timeout = self.queue.schedule(deadline, Event::IoTimeout { dev, token });
        self.io_meta.insert((dev, token), IoMeta { purpose, attempt, timeout });
    }

    /// Submits a command at `at`, parking it when the ring pushes back
    /// (injected queue-full window, or a genuinely exhausted ring that
    /// previously aborted the simulation). Returns the completion time for
    /// accepted submissions, `None` for deferred ones.
    // Each argument is one field of the command's record (device, queue,
    // command, payload, purpose, attempt, time); bundling them into a
    // struct would only move the list to every call site.
    #[allow(clippy::too_many_arguments)]
    fn submit_or_defer(
        &mut self,
        dev: usize,
        qid: QueueId,
        cmd: NvmeCommand,
        data: Option<PageData>,
        purpose: Purpose,
        attempt: u32,
        at: Time,
    ) -> Option<Time> {
        // Hotness tracking observes demand reads at first submission
        // (retries and migration I/O are invisible to placement).
        if attempt == 0 {
            if let Some(tr) = self.tier.as_mut() {
                if matches!(purpose, Purpose::HwdpMiss { .. } | Purpose::OsdpRead { .. }) {
                    let fast = DeviceId(dev as u8) == tr.fast_dev;
                    tr.engine.record_access(fast, cmd.slba);
                }
            }
        }
        // `submit_ref` hands the write payload back on rejection, so the
        // defer paths below re-park the original instead of a clone.
        let mut data = data;
        match self.devices[dev].submit_ref(qid, cmd, &mut data, at) {
            Ok((token, done_at)) => {
                self.queue.schedule(done_at, Event::IoDone { dev, token, purpose });
                self.track_io(dev, token, purpose, attempt, at);
                Some(done_at)
            }
            Err(SubmitError::QueueFull) => {
                self.deferred_io[dev].push_back(DeferredIo { qid, cmd, data, purpose, attempt });
                let retry_at = at + self.cfg.retry.backoff_base;
                self.queue.schedule(retry_at, Event::SqDrain { dev });
                None
            }
            Err(SubmitError::ControllerDown) => {
                // An ignored doorbell is how the host discovers a crashed
                // controller on the submission side: park the command and
                // drive the recovery ladder. No `SqDrain` backstop — the
                // reset completion drains the parked queue, and while the
                // controller is down every drain attempt would just spin.
                self.deferred_io[dev].push_back(DeferredIo { qid, cmd, data, purpose, attempt });
                self.handle_controller_failure(dev, at);
                None
            }
            Err(SubmitError::UnknownQueue) => {
                // Unreachable for queues the system itself created; treated
                // as an instantly failed attempt so nothing leaks.
                self.fail_submission(purpose, at);
                None
            }
        }
    }

    /// Retries parked submissions. Called after every completion on the
    /// device and from the `SqDrain` backstop; each rejected attempt also
    /// consumes queue-full window budget, so progress is guaranteed.
    fn drain_deferred(&mut self, dev: usize, now: Time) {
        while let Some(mut d) = self.deferred_io[dev].pop_front() {
            match self.devices[dev].submit_ref(d.qid, d.cmd, &mut d.data, now) {
                Ok((token, done_at)) => {
                    self.queue
                        .schedule(done_at, Event::IoDone { dev, token, purpose: d.purpose });
                    self.track_io(dev, token, d.purpose, d.attempt, now);
                }
                Err(SubmitError::ControllerDown) => {
                    // Dead controller: re-park and let the reset ladder
                    // re-drain this queue when the controller is back.
                    self.deferred_io[dev].push_front(d);
                    self.handle_controller_failure(dev, now);
                    break;
                }
                Err(_) => {
                    self.deferred_io[dev].push_front(d);
                    let retry_at = now + self.cfg.retry.backoff_base;
                    self.queue.schedule(retry_at, Event::SqDrain { dev });
                    break;
                }
            }
        }
    }

    /// Routes a submission that can never be accepted straight into the
    /// purpose's failure path.
    fn fail_submission(&mut self, purpose: Purpose, now: Time) {
        match purpose {
            Purpose::HwdpMiss { entry } => self.escalate_hwdp(entry, now),
            Purpose::OsdpRead { key } => self.surface_osdp_error(key, now),
            Purpose::Writeback => {}
            Purpose::TierRead { key } | Purpose::TierWrite { key } => self.tier_abort(key),
        }
    }

    /// One I/O completion event: retires the command on the device, drains
    /// the CQ, and dispatches to the finish path (success) or the layered
    /// recovery machinery (injected media error, stale watchdog-recovered
    /// token, swallowed completion).
    fn handle_io_done(&mut self, dev: usize, token: CompletionToken, purpose: Purpose, now: Time) {
        let Some(done) = self.devices[dev].complete(token, now) else {
            // Unknown or already-retired token (watchdog recovery raced
            // the completion) — or the first signal of a controller crash:
            // the command was lost with the controller, and this event
            // firing at exactly the virtual time the completion was due is
            // the host's earliest possible detection point.
            if !self.devices[dev].is_ready() {
                self.handle_controller_failure(dev, now);
            }
            return;
        };
        if !done.dropped {
            // Drain the CQ like real host software (keeps queue protocol
            // state honest; entries checked in tests). Dropped completions
            // never post a CQ entry, so polling would desync the pairing.
            let qid = done.qid;
            let _ = self.devices[dev].queue(qid).host_poll_completion();
        }
        let key = (dev, token);
        if self.stale_tokens.remove(&key).is_some() {
            // The watchdog already recovered this command; the late (or
            // dropped) completion is silently retired.
        } else if done.dropped {
            // Swallowed completion: leave the watchdog armed — it is the
            // only way the host learns about this command's fate.
        } else {
            let attempt = match self.io_meta.remove(&key) {
                Some(meta) => {
                    self.queue.cancel(meta.timeout);
                    meta.attempt
                }
                None => 0,
            };
            self.dispatch_completion(purpose, done, attempt, now);
        }
        self.drain_deferred(dev, now);
    }

    fn dispatch_completion(&mut self, purpose: Purpose, done: Completed, attempt: u32, now: Time) {
        let ok = done.status == Status::Success;
        match purpose {
            Purpose::HwdpMiss { entry } => match done.read_data {
                Some(data) if ok => self.finish_hwdp_miss(entry, data, now),
                _ => self.recover_hwdp(entry, attempt, now),
            },
            Purpose::OsdpRead { key } => match done.read_data {
                Some(data) if ok => self.finish_osdp_read(key, data, now),
                _ => self.recover_osdp(key, now),
            },
            Purpose::Writeback => {
                // Write data was applied at submission (snapshot
                // semantics), so a failed writeback loses nothing in-sim;
                // a real kernel would re-dirty the page.
            }
            Purpose::TierRead { key } => match done.read_data {
                Some(data) if ok => self.tier_read_done(key, data, now),
                _ => self.tier_abort(key),
            },
            Purpose::TierWrite { key } => {
                if ok {
                    self.tier_commit(key);
                } else {
                    self.tier_abort(key);
                }
            }
        }
    }

    // ----- tier migration daemon ------------------------------------------------

    /// One migration-daemon wakeup: asks the engine for a plan and starts
    /// the copy reads. Migration I/O goes through the same submission path
    /// as demand misses, so it contends for the OS driver queues and
    /// device bandwidth.
    fn tier_tick(&mut self, now: Time) {
        // Quiesce while any controller is down: migration copies span both
        // tiers, so starting one under a dead (or resetting) controller
        // could only park I/O that the crash recovery would have to abort
        // again. The daemon simply skips the tick and retries next period.
        if self.devices.iter().any(|d| !d.is_ready()) {
            return;
        }
        let mut plans = std::mem::take(&mut self.scratch_plans);
        let fast_dev = {
            let Some(tr) = self.tier.as_mut() else {
                self.scratch_plans = plans;
                return;
            };
            let fast_dev = tr.fast_dev;
            let TierRuntime { engine, pages, .. } = tr;
            let cache = &self.os.cache;
            // Pages resident in the page cache are skipped: their next
            // writeback would race the copy (and a cached page's hotness
            // is invisible to the device layer anyway).
            engine.plan_tick_into(
                |key| pages.get(key).is_some_and(|(f, p)| cache.lookup(*f, *p).is_none()),
                &mut plans,
            );
            fast_dev
        };
        for plan in plans.drain(..) {
            let (dev, slba, key) = match plan {
                MigrationPlan::Promote { key, .. } => (0usize, key, key),
                MigrationPlan::Demote { key, fast_lba } => {
                    (self.device_index[&(0, fast_dev.0)], fast_lba, key)
                }
            };
            self.wb_cid = self.wb_cid.wrapping_add(1);
            let cmd = NvmeCommand::read4k(self.wb_cid, 1, slba, Pfn(0).base());
            let qid = self.os_queues[dev];
            self.submit_or_defer(dev, qid, cmd, None, Purpose::TierRead { key }, 0, now);
        }
        self.scratch_plans = plans;
    }

    /// Migration copy read completed: write the snapshot to the
    /// destination tier.
    fn tier_read_done(&mut self, key: u64, data: PageData, now: Time) {
        let Some(tr) = self.tier.as_ref() else { return };
        let (dev, slba) = match tr.engine.residence_of(key) {
            Some(TierResidence::PromoteInFlight(f)) => {
                (self.device_index[&(0, tr.fast_dev.0)], f)
            }
            Some(TierResidence::DemoteInFlight(_)) => (0usize, key),
            // The migration was aborted while the read was in flight.
            _ => return,
        };
        self.wb_cid = self.wb_cid.wrapping_add(1);
        let cmd = NvmeCommand::write4k(self.wb_cid, 1, slba, Pfn(0).base());
        let qid = self.os_queues[dev];
        self.submit_or_defer(dev, qid, cmd, Some(data), Purpose::TierWrite { key }, 0, now);
    }

    /// Migration copy write completed: transfer ownership atomically —
    /// engine residence, file-system location, and any LBA-augmented PTEs
    /// all flip at this virtual-time instant — unless the source copy was
    /// invalidated under the migration, in which case the stale copy is
    /// dropped.
    fn tier_commit(&mut self, key: u64) {
        let Some(tr) = self.tier.as_mut() else { return };
        let Some(&(file, page)) = tr.pages.get(key) else { return };
        let dirty = tr.dirty_guard.remove(&key);
        let loc_ok = match tr.engine.residence_of(key) {
            Some(TierResidence::PromoteInFlight(_)) => {
                // The page must still live on its home LBA (a remap under
                // the copy would have changed it).
                self.os.fs.location_override(file, page).is_none()
                    && self.os.fs.lba_of(file, page).0 == key
            }
            Some(TierResidence::DemoteInFlight(f)) => {
                self.os.fs.location_override(file, page)
                    == Some((SocketId(0), tr.fast_dev, 1, Lba(f)))
            }
            _ => return,
        };
        if dirty || !loc_ok {
            tr.engine.abort(key);
            return;
        }
        match tr.engine.commit(key) {
            Some(TierResidence::Fast(f)) => {
                let block = BlockRef { socket: SocketId(0), device: tr.fast_dev, lba: Lba(f) };
                self.os.fs.set_location(file, page, SocketId(0), tr.fast_dev, 1, Lba(f));
                self.os.propagate_block_update(file, page, block);
            }
            Some(TierResidence::Slow) => {
                let block = BlockRef { socket: SocketId(0), device: DeviceId(0), lba: Lba(key) };
                self.os.fs.clear_location(file, page);
                self.os.propagate_block_update(file, page, block);
            }
            _ => {}
        }
    }

    /// Aborts an in-flight migration (I/O failure, timeout, or submission
    /// that could never be accepted).
    fn tier_abort(&mut self, key: u64) {
        if let Some(tr) = self.tier.as_mut() {
            tr.dirty_guard.remove(&key);
            tr.engine.abort(key);
        }
    }

    /// Marks a page whose source copy is being rewritten while its
    /// migration copy is in flight; [`System::tier_commit`] observes the
    /// mark and aborts instead of committing a stale copy.
    fn tier_note_writeback(&mut self, block: &BlockRef) {
        let Some(tr) = self.tier.as_mut() else { return };
        let key = if block.device == tr.fast_dev {
            match tr.engine.key_of_fast(block.lba.0) {
                Some(k) => k,
                None => return,
            }
        } else {
            block.lba.0
        };
        if tr.engine.in_flight(key) {
            tr.dirty_guard.insert(key);
        }
    }

    // ----- controller crash recovery ---------------------------------------------

    /// The host recovery ladder for a dead controller. Idempotent: only a
    /// `Failed` controller is acted on, so the many detection sites (lost
    /// completions, ignored doorbells, drain backstops) can all call this
    /// without coordinating. The ladder: quiesce (begin the reset, which
    /// keeps refusing doorbells), schedule the reset completion at the
    /// fault plan's deterministic latency, retire every stale watchdog
    /// token for the device while requeuing or degrading its lost I/O
    /// (HWDP retries then falls back to OSDP; OSDP retries then surfaces a
    /// typed [`IoError`]), and abort every in-flight tier migration via
    /// the existing commit/abort machinery (their copy I/O died with the
    /// controller).
    fn handle_controller_failure(&mut self, dev: usize, now: Time) {
        if self.devices[dev].state() != ControllerState::Failed {
            return;
        }
        self.devices[dev].begin_reset();
        self.controller_resets += 1;
        let latency =
            Duration::from_micros(self.cfg.faults.map_or(100, |f| f.reset_latency_us));
        self.queue.schedule(now + latency, Event::ControllerReset { dev });
        // Tokens lost with the controller will never complete; any stale
        // marks for them would leak (their late completions are gone too).
        self.stale_tokens.retain(|&(d, _), _| d != dev);
        // Sweep the watchdogs: cancel each timeout (the recovery below is
        // the timeout's job, done early) and recover per purpose. The map
        // is taken whole so recovery actions can re-arm watchdogs for
        // other devices while we iterate.
        let meta = std::mem::take(&mut self.io_meta);
        for ((d, token), m) in meta {
            if d != dev {
                self.io_meta.insert((d, token), m);
                continue;
            }
            self.queue.cancel(m.timeout);
            match m.purpose {
                Purpose::HwdpMiss { entry } => self.recover_hwdp(entry, m.attempt, now),
                Purpose::OsdpRead { key } => self.recover_osdp(key, now),
                // Write data applied at submission; nothing to recover.
                Purpose::Writeback => {}
                Purpose::TierRead { key } | Purpose::TierWrite { key } => self.tier_abort(key),
            }
        }
        // Migration copy I/O is not watchdog-tracked; abort every in-flight
        // migration outright (tier_tick stays quiesced until the reset
        // completes, so no new ones start under the dead controller).
        if let Some(tr) = self.tier.as_mut() {
            let TierRuntime { engine, pages, dirty_guard, .. } = tr;
            for key in pages.keys() {
                if engine.in_flight(key) {
                    dirty_guard.remove(&key);
                    engine.abort(key);
                }
            }
        }
    }

    /// The controller reset completes: rings reinitialize, phases reset,
    /// channels idle. Runs the post-reset audit invariants, then re-drives
    /// the submissions parked while the controller was down.
    fn finish_controller_reset(&mut self, dev: usize, now: Time) {
        self.devices[dev].finish_reset(now);
        self.post_reset_audit(dev);
        self.drain_deferred(dev, now);
    }

    /// Post-reset audit point: the recovery ladder's exit invariants.
    /// Observation-only, gated on `cfg.sanitize` like every audit pass.
    fn post_reset_audit(&mut self, dev: usize) {
        let level = self.cfg.sanitize;
        if !level.cheap_checks() {
            return;
        }
        let mut report = AuditReport::new();
        report.check_args(
            "core",
            "reset-rings-empty",
            self.devices[dev].queue_pairs().all(|q| q.rings_empty()),
            format_args!("device {dev}: ring not empty after controller reset"),
        );
        report.check_args(
            "core",
            "reset-phase-consistent",
            self.devices[dev].queue_pairs().all(|q| q.phases_consistent()),
            format_args!("device {dev}: CQ phase tags inconsistent after controller reset"),
        );
        report.check_args(
            "core",
            "reset-watchdogs-cancelled",
            self.io_meta.keys().all(|&(d, _)| d != dev),
            format_args!("device {dev}: watchdog tokens survived the controller reset"),
        );
        // Every SMU token lost in the crash was retired: submissions still
        // parked for the device may only reference live PMSHR entries
        // (anything stale could never be woken by its completion).
        report.check_args(
            "core",
            "reset-pmshr-drained",
            self.deferred_io[dev].iter().all(|d| match d.purpose {
                Purpose::HwdpMiss { entry } => self.smu.pmshr.try_entry(entry).is_some(),
                _ => true,
            }),
            format_args!("device {dev}: parked submission references a retired PMSHR entry"),
        );
        if let Some(tr) = &self.tier {
            report.check_args(
                "core",
                "reset-tier-quiesced",
                tr.pages.keys().all(|key| !tr.engine.in_flight(key)),
                format_args!(
                    "device {dev}: tier migration still in flight after controller reset"
                ),
            );
        }
        self.audit.merge(report);
    }

    /// A hardware-path read failed or timed out: retry with deterministic
    /// exponential backoff up to the policy bound, then abandon the PMSHR
    /// entry and degrade the access to the OSDP software path (paper §IV
    /// fallback).
    fn recover_hwdp(&mut self, entry: EntryIdx, attempt: u32, now: Time) {
        let Some(block) = self.smu.pmshr.try_entry(entry).map(|e| e.block) else {
            return; // already abandoned by an earlier recovery action
        };
        if attempt < self.cfg.retry.max_retries {
            if let Some((qid, cmd)) = self.smu.reissue_read(entry) {
                self.io_retries += 1;
                let Some(dev) = self.device_of(block) else {
                    // Device vanished from the table: no retry possible.
                    self.escalate_hwdp(entry, now);
                    return;
                };
                let backoff = self.cfg.retry.backoff_base * (1u64 << attempt.min(16));
                self.submit_or_defer(
                    dev,
                    qid,
                    cmd,
                    None,
                    Purpose::HwdpMiss { entry },
                    attempt + 1,
                    now + backoff,
                );
                return;
            }
        }
        self.escalate_hwdp(entry, now);
    }

    /// Retries exhausted: the SMU abandons the miss (entry invalidated,
    /// frame returned to the free queue) and every waiter re-executes its
    /// access through the OSDP software path. Waiter-less entries (SMU
    /// prefetches) are dropped silently — prefetching is best-effort.
    fn escalate_hwdp(&mut self, entry: EntryIdx, now: Time) {
        let Some(e) = self.smu.abandon_io(entry, 0) else { return };
        self.smu_fallbacks_fault += 1;
        for waiter in e.waiters {
            let tid = ThreadId(waiter as usize);
            if let Some(Step::Read { region, offset, .. } | Step::Write { region, offset, .. }) =
                &self.threads[tid.0].current
            {
                if let Some(vpn) = self.region_vpn(*region, *offset) {
                    self.force_osdp.insert(vpn.0);
                }
            }
            match self.threads[tid.0].state {
                ThreadState::Stalled(hw) => {
                    self.threads[tid.0].state = ThreadState::Running(hw);
                    self.hw[hw.0].state = HwThreadState::Active;
                    self.queue.schedule(now, Event::Step(tid));
                }
                ThreadState::Blocked => self.wake(tid, now),
                _ => {}
            }
        }
    }

    /// An OS-path read failed or timed out: one more deterministic retry,
    /// then the error surfaces to the waiting threads.
    fn recover_osdp(&mut self, key: (u32, u64), now: Time) {
        let Some(pending) = self.osdp_inflight.get_mut(&key) else { return };
        if pending.attempts < 1 {
            pending.attempts += 1;
            let (block, pfn) = (pending.block, pending.pfn);
            self.io_retries += 1;
            let at = now + self.cfg.retry.backoff_base;
            self.submit_read(block, pfn, at, Purpose::OsdpRead { key }, 1);
        } else {
            self.surface_osdp_error(key, now);
        }
    }

    /// Every recovery layer gave up on an OS-path read: roll the fault
    /// back (frame freed, PTE stays not-present), record the typed error,
    /// and wake the waiters empty-handed — their current step is dropped
    /// and the workload continues with `next(None)` instead of the
    /// process dying. Failed readahead is dropped without an error:
    /// speculation is best-effort.
    fn surface_osdp_error(&mut self, key: (u32, u64), now: Time) {
        let Some(pending) = self.osdp_inflight.remove(&key) else { return };
        self.os.osdp_fault_abort(pending.vpn, pending.pfn);
        let mut waiters = pending.waiters;
        if waiters.is_empty() {
            self.recycle_waiters(waiters);
            return;
        }
        self.io_errors_surfaced += 1;
        self.io_errors.push(IoError { block: pending.block, vpn: pending.vpn });
        for tid in waiters.drain(..) {
            let thread = &mut self.threads[tid.0];
            thread.current = None;
            thread.last_read = None;
            thread.miss_start = None;
            thread.read_start = None;
            self.wake(tid, now);
        }
        self.recycle_waiters(waiters);
    }

    fn handle_evictions(&mut self, evictions: &mut Vec<Eviction>, now: Time) {
        let mut submitted = 0u64;
        for ev in evictions.drain(..) {
            if let Some(vpn) = ev.vpn {
                self.shoot_down(vpn);
            }
            if ev.dirty {
                // The device applies write data at submission (snapshot
                // semantics), so a re-fault read of the same block can
                // never overtake its own writeback and observe stale data
                // (a real kernel holds the page lock across this window).
                //
                // Batch evictions (kpoold refills) pace their writebacks at
                // the device's write drain rate instead of dumping the
                // whole burst at once — the kernel's writeback throttling.
                self.tier_note_writeback(&ev.block);
                let Some(dev) = self.device_of(ev.block) else { continue };
                let pace = self.devices[dev].profile().write_4k
                    / self.devices[dev].profile().channels as u64;
                let at = now + pace * submitted;
                submitted += 1;
                self.wb_cid = self.wb_cid.wrapping_add(1);
                let cmd = NvmeCommand::write4k(self.wb_cid, 1, ev.block.lba.0, Pfn(0).base());
                let qid = self.os_queues[dev];
                self.submit_or_defer(dev, qid, cmd, Some(ev.data), Purpose::Writeback, 0, at);
            }
        }
    }

    fn refill_free_queue(&mut self, now: Time) {
        for q in 0..self.smu.queue_count() {
            let slack = self.smu.free_queue_for(q).slack();
            if slack == 0 {
                continue;
            }
            let batch = slack.min(SYNC_REFILL_BATCH.max(self.cfg.free_queue_depth / 8));
            let mut frames = std::mem::take(&mut self.scratch_frames);
            let mut evictions = std::mem::take(&mut self.scratch_evictions);
            self.os.take_frames_for_refill_into(batch, &mut frames, &mut evictions);
            for pfn in frames.drain(..) {
                let accepted = self.smu.free_queue_for(q).push(FreePage::of(pfn));
                debug_assert!(accepted, "slack was checked");
            }
            self.handle_evictions(&mut evictions, now);
            self.scratch_frames = frames;
            self.scratch_evictions = evictions;
        }
    }

    // ----- main loop ------------------------------------------------------------

    /// Runs the system for up to `limit` of virtual time (or until every
    /// workload finishes) and returns the collected metrics.
    pub fn run(&mut self, limit: Duration) -> RunResult {
        let deadline = Time::ZERO + limit;
        // Launch all threads at t=0.
        for tid in 0..self.threads.len() {
            if matches!(self.threads[tid].state, ThreadState::Runnable) {
                // Take out of the implicit runnable set.
                self.threads[tid].runnable_since = Some(Time::ZERO);
                match self.free_hw_for(ThreadId(tid)) {
                    Some(hw) => {
                        self.install(ThreadId(tid), hw, Time::ZERO);
                        self.queue.schedule(Time::ZERO, Event::Step(ThreadId(tid)));
                    }
                    None => self.runqueue.push_back(ThreadId(tid)),
                }
            }
        }
        if self.cfg.mode.uses_lba_ptes() {
            if self.cfg.kpoold_enabled {
                self.queue.schedule(Time::ZERO + self.cfg.kpoold_period, Event::KpoolTick);
            }
            self.queue.schedule(Time::ZERO + self.cfg.kpted_period, Event::KptedTick);
        }
        if let Some(tr) = &self.tier {
            self.queue.schedule(Time::ZERO + tr.period, Event::TierTick);
        }
        // Controller crashes are scheduled from pure config (no RNG draw):
        // every attached controller dies at the configured virtual times,
        // the severest multi-device failure mode. Times beyond the run's
        // end simply never fire.
        if let Some(f) = self.cfg.faults.filter(|f| f.crash_at_us > 0) {
            for dev in 0..self.devices.len() {
                for t_us in f.crash_times() {
                    self.queue.schedule(
                        Time::ZERO + Duration::from_micros(t_us),
                        Event::ControllerCrash { dev },
                    );
                }
            }
        }

        let mut end = Time::ZERO;
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                end = deadline;
                break;
            }
            let Some((now, event)) = self.queue.pop() else { break };
            end = now;
            self.events_processed += 1;
            match event {
                Event::Step(tid) => {
                    if !matches!(self.threads[tid.0].state, ThreadState::Finished) {
                        self.advance(tid, now);
                    }
                }
                Event::IoDone { dev, token, purpose } => {
                    self.handle_io_done(dev, token, purpose, now);
                }
                Event::IoTimeout { dev, token } => {
                    // A cancelled watchdog never fires (lazy deletion), so
                    // reaching here means the command is genuinely late,
                    // dropped, or stuck. Mark the token stale and recover.
                    if let Some(meta) = self.io_meta.remove(&(dev, token)) {
                        self.stale_tokens.insert((dev, token), ());
                        self.io_timeouts += 1;
                        match meta.purpose {
                            Purpose::HwdpMiss { entry } => {
                                self.recover_hwdp(entry, meta.attempt, now)
                            }
                            Purpose::OsdpRead { key } => self.recover_osdp(key, now),
                            Purpose::Writeback => {}
                            Purpose::TierRead { key } | Purpose::TierWrite { key } => {
                                self.tier_abort(key)
                            }
                        }
                    }
                }
                Event::SqDrain { dev } => {
                    self.drain_deferred(dev, now);
                }
                Event::ControllerCrash { dev } => {
                    // The device dies silently: the host only notices via
                    // lost completions or ignored doorbells.
                    self.crash_ios_lost += self.devices[dev].crash() as u64;
                }
                Event::ControllerReset { dev } => {
                    self.finish_controller_reset(dev, now);
                }
                Event::KpoolTick => {
                    if self.active_threads > 0 {
                        self.refill_free_queue(now);
                        // Periodic in-run audit point (no-op at Off; never
                        // schedules events, so timing is unaffected).
                        self.run_audit();
                        self.queue.schedule(now + self.cfg.kpoold_period, Event::KpoolTick);
                    }
                }
                Event::KptedTick => {
                    if self.active_threads > 0 {
                        self.os.kpted_scan();
                        self.queue.schedule(now + self.cfg.kpted_period, Event::KptedTick);
                    }
                }
                Event::TierTick => {
                    if self.active_threads > 0 {
                        self.tier_tick(now);
                        if let Some(tr) = &self.tier {
                            self.queue.schedule(now + tr.period, Event::TierTick);
                        }
                    }
                }
            }
            if self.active_threads == 0 {
                end = self.last_finish;
                break;
            }
        }
        self.collect_results(end.max(self.last_finish))
    }

    fn collect_results(&mut self, end: Time) -> RunResult {
        // End-of-run audit point (settled state: teardown bugs surface
        // here even in modes with no kpoold ticks).
        self.run_audit();
        let mut miss = LatencyHist::new();
        let mut read = LatencyHist::new();
        let mut perf = PerfCounters::default();
        let mut reports = Vec::new();
        let mut ops = 0;
        for t in &self.threads {
            miss.merge(&t.miss_hist);
            read.merge(&t.read_hist);
            perf.merge(&t.perf);
            ops += t.workload.ops_done();
            reports.push(ThreadReport {
                name: t.name.clone(),
                ops: t.workload.ops_done(),
                verify_failures: t.workload.verify_failures(),
                hw_context: t.pin.or(t.last_hw).map(|h| h.0),
                pollution_warmth: t.pollution.warmth(),
                warm_user_cycles: t.warm_user_cycles,
                perf: t.perf,
                time: t.time,
                miss_latency: t.miss_hist.clone(),
            });
        }
        // Fault-recovery activity is system-wide, not per-thread: merge it
        // into the aggregate counter set only.
        perf.io_retries += self.io_retries;
        perf.io_timeouts += self.io_timeouts;
        perf.smu_fallbacks_fault += self.smu_fallbacks_fault;
        perf.io_errors_surfaced += self.io_errors_surfaced;
        let device_reads = self.devices.iter().map(|d| d.stats().reads).sum();
        let device_writes = self.devices.iter().map(|d| d.stats().writes).sum();
        let tier = self.tier.as_ref().map(|tr| {
            let mut t = tr.engine.report();
            let fast = self.device_index[&(0, tr.fast_dev.0)];
            t.fast_reads = self.devices[fast].stats().reads;
            t.fast_writes = self.devices[fast].stats().writes;
            t.slow_reads = self.devices[0].stats().reads;
            t.slow_writes = self.devices[0].stats().writes;
            t
        });
        RunResult {
            elapsed: end.since_start(),
            ops,
            threads: reports,
            miss_latency: miss,
            read_latency: read,
            perf,
            kernel: self.os.acct,
            os: self.os.stats(),
            smu: self.smu.stats(),
            device_reads,
            device_writes,
            sync_refill_faults: self.smu.free_queue_stats().empty_events,
            pmshr_stalls: self.smu.stats().pmshr_full,
            long_io_switches: self.long_io_switches,
            readahead_reads: self.readahead_reads,
            smu_prefetches: self.smu.stats().prefetches,
            controller_resets: self.controller_resets,
            crash_ios_lost: self.crash_ios_lost,
            events_processed: self.events_processed,
            audit: self.audit.clone(),
            tier,
        }
    }

    /// Direct access to the SMU (ablation benches).
    pub fn smu(&self) -> &Smu {
        &self.smu
    }

    /// Direct access to device 0 (tests).
    pub fn device(&self) -> &NvmeController {
        &self.devices[0]
    }

    /// Typed I/O errors surfaced to workloads so far. Empty unless fault
    /// injection exhausted every recovery layer on some read.
    pub fn io_errors(&self) -> &[IoError] {
        &self.io_errors
    }

    /// Device-side injected-fault ground truth for device `dev` (`None`
    /// when no fault plan is installed).
    pub fn fault_stats(&self, dev: usize) -> Option<&hwdp_nvme::FaultStats> {
        self.devices.get(dev).and_then(|d| d.fault_stats())
    }

    /// Controller resets driven to completion by the recovery ladder.
    pub fn controller_resets(&self) -> u64 {
        self.controller_resets
    }

    /// FNV-1a digest of the user-visible storage state: for every file
    /// page, the page-cache copy when resident (it is authoritative for
    /// dirty pages), else the backing block at the page's current
    /// location. The chaos harness's differential recovery oracle compares
    /// this between a faulted run and its fault-free twin — for read-only
    /// workloads the two must agree exactly, whatever was crashed,
    /// dropped, or reset along the way.
    pub fn content_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        let mix = |h: &mut u64, x: u64| {
            for b in x.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(PRIME);
            }
        };
        for file in self.os.fs.file_ids() {
            for page in 0..self.os.fs.pages(file) {
                let checksum = match self.os.cache.lookup(file, page) {
                    Some(pfn) => self.os.frames.checksum(pfn),
                    None => {
                        let (socket, devid, nsid, lba) = self.os.fs.location(file, page);
                        match self.device_index.get(&(socket.0, devid.0)) {
                            Some(&d) => self.devices[d].namespace(nsid).block_checksum(lba),
                            None => 0,
                        }
                    }
                };
                mix(&mut h, u64::from(file.0));
                mix(&mut h, page);
                mix(&mut h, checksum);
            }
        }
        h
    }

    /// Runs one hwdp-audit pass at the configured [`SanitizeLevel`] and
    /// accumulates any violations. Observation-only: schedules no events,
    /// draws no randomness, touches no LRU or statistics state — a run at
    /// `Full` is byte-identical to a run at `Off`. Called automatically at
    /// `kpoold` ticks and end of run; callable between runs for tests.
    pub fn run_audit(&mut self) {
        let level = self.cfg.sanitize;
        if !level.cheap_checks() {
            return;
        }
        let mut report = AuditReport::new();
        self.sanitize(level, &mut report);
        // The doorbell history check needs mutable last-seen state, so it
        // lives outside the (stateless) Sanitizer pass.
        for (i, dev) in self.devices.iter().enumerate() {
            let total = dev.doorbell_writes_total();
            let last = self.audit_doorbells[i];
            report.check_args(
                "core",
                "doorbell-monotonic",
                total >= last,
                format_args!("device {i}: doorbell-write total went backwards ({last} -> {total})"),
            );
            self.audit_doorbells[i] = total;
        }
        self.audit.merge(report);
    }

    /// The violations accumulated so far (empty unless sanitizing found
    /// a broken invariant).
    pub fn audit_report(&self) -> &AuditReport {
        &self.audit
    }

    /// Test-only corruption hook: registers a fake in-flight OSDP fault
    /// whose frame was never allocated, so the `osdp-inflight-frame`
    /// negative test can inject the submit/complete mismatch the real
    /// fault path (correctly) makes unreachable.
    #[cfg(test)]
    pub(crate) fn corrupt_osdp_inflight_for_test(&mut self) {
        let bogus = Pfn(self.cfg.memory_frames as u64 + 7);
        let block = BlockRef {
            socket: SocketId(0),
            device: DeviceId(0),
            lba: hwdp_mem::addr::Lba(0),
        };
        self.osdp_inflight.insert(
            (u32::MAX, u64::MAX),
            OsdpPending { vpn: Vpn(0), pfn: bogus, block, attempts: 0, waiters: Vec::new() },
        );
    }

    /// Test-only corruption hook: makes the file system claim a page
    /// lives on the fast tier while the tiering engine still holds it
    /// slow-resident — the cross-namespace LBA corruption the
    /// `tier-residence-consistent` negative test injects.
    #[cfg(test)]
    pub(crate) fn corrupt_tier_residence_for_test(&mut self) {
        // No-op without tiering or tracked pages: the negative test then
        // fails loudly on its missing-violation assertion.
        let Some(tr) = self.tier.as_ref() else { return };
        let Some((key, &(file, page))) = tr.pages.iter().next() else { return };
        let fast_dev = tr.fast_dev;
        self.os.fs.set_location(file, page, SocketId(0), fast_dev, 1, Lba(key));
    }

    /// Test-only corruption hook for `idle-context-tlb-empty`: fills a
    /// translation into an idle context's TLB, the state a fill on the
    /// wrong context would leave.
    #[cfg(test)]
    pub(crate) fn corrupt_idle_tlb_for_test(&mut self) {
        if let Some(hw) = self.hw.iter_mut().find(|hw| hw.running.is_none()) {
            hw.tlb.fill(Vpn(0), Pfn(0));
        }
    }

    /// Test-only entry point: runs the post-reset audit for device `dev`
    /// so the negative tests can assert each reset invariant actually
    /// detects its corruption.
    #[cfg(test)]
    pub(crate) fn post_reset_audit_for_test(&mut self, dev: usize) {
        self.post_reset_audit(dev);
    }

    /// Test-only corruption hook for `reset-rings-empty`: leaves a
    /// submitted-but-unfetched command in device 0's OS ring, the state a
    /// botched reset would fail to clear.
    #[cfg(test)]
    pub(crate) fn corrupt_ring_for_test(&mut self) {
        let qid = self.os_queues[0];
        let cmd = NvmeCommand::read4k(1, 1, 0, Pfn(0).base());
        let _ = self.devices[0].queue(qid).host_submit(cmd);
    }

    /// Test-only corruption hook for `reset-phase-consistent`: walks the
    /// device-side CQ through a full lap so its posting phase flips while
    /// the host's expectation does not — the desync a reset must erase.
    #[cfg(test)]
    pub(crate) fn corrupt_phase_for_test(&mut self) {
        let qid = self.os_queues[0];
        let q = self.devices[0].queue(qid);
        for _ in 0..q.depth() {
            q.device_post_completion(0, Status::Success);
        }
    }

    /// Test-only corruption hook for `reset-watchdogs-cancelled`: arms a
    /// watchdog for a live device-0 command as if the failure sweep had
    /// missed it.
    #[cfg(test)]
    pub(crate) fn corrupt_watchdog_for_test(&mut self) {
        let qid = self.os_queues[0];
        let cmd = NvmeCommand::read4k(2, 1, 0, Pfn(0).base());
        if let Ok((token, _)) = self.devices[0].submit(qid, cmd, None, Time::ZERO) {
            let timeout = self
                .queue
                .schedule(Time::ZERO + self.cfg.retry.command_timeout, Event::IoTimeout {
                    dev: 0,
                    token,
                });
            self.io_meta.insert((0, token), IoMeta { purpose: Purpose::Writeback, attempt: 0, timeout });
        }
    }

    /// Test-only corruption hook for `reset-pmshr-drained`: parks a
    /// deferred HWDP submission referencing a PMSHR entry that was never
    /// allocated (the dangling token a crash sweep must never leave).
    #[cfg(test)]
    pub(crate) fn corrupt_deferred_pmshr_for_test(&mut self) {
        let qid = self.os_queues[0];
        let cmd = NvmeCommand::read4k(3, 1, 0, Pfn(0).base());
        self.deferred_io[0].push_back(DeferredIo {
            qid,
            cmd,
            data: None,
            purpose: Purpose::HwdpMiss { entry: EntryIdx(u16::MAX) },
            attempt: 0,
        });
    }

    /// Test-only corruption hook for `reset-tier-quiesced`: heats a
    /// tracked page and runs a planning tick directly on the engine, so a
    /// migration is in flight with no driver I/O backing it.
    #[cfg(test)]
    pub(crate) fn corrupt_tier_inflight_for_test(&mut self) {
        let Some(tr) = self.tier.as_mut() else { return };
        let Some(key) = tr.pages.keys().next() else { return };
        for _ in 0..64 {
            tr.engine.record_access(false, key);
        }
        let _ = tr.engine.plan_tick(|_| true);
    }
}

impl Sanitizer for System {
    fn layer(&self) -> &'static str {
        "core"
    }

    /// The cross-layer pass: delegates to each layer's checkers (memory,
    /// OS, SMU, every NVMe controller) and adds the core-level
    /// `osdp_inflight` pairing invariants — every in-flight OS fault must
    /// target an allocated frame and hold only descheduled waiters.
    fn sanitize(&self, level: SanitizeLevel, report: &mut AuditReport) {
        if !level.cheap_checks() {
            return;
        }
        hwdp_mem::MemAudit {
            frames: &self.os.frames,
            page_table: &self.os.page_table,
            tlbs: self.hw.iter().enumerate().map(|(i, h)| (i, &h.tlb)).collect(),
        }
        .sanitize(level, report);
        // Shootdowns skip idle contexts, which is exact only while an
        // idle context's TLB is empty.
        for (i, hw) in self.hw.iter().enumerate() {
            report.check_args(
                "core",
                "idle-context-tlb-empty",
                hw.running.is_some() || hw.tlb.is_empty(),
                format_args!("idle context {i} holds TLB translations no shootdown reaches"),
            );
        }
        self.os.sanitize(level, report);
        self.smu.sanitize(level, report);
        for dev in &self.devices {
            dev.sanitize(level, report);
        }
        for (&(file, page), pending) in self.osdp_inflight.iter() {
            report.check_args(
                "core",
                "osdp-inflight-frame",
                (pending.pfn.0 as usize) < self.os.frames.total()
                    && self.os.frames.state(pending.pfn) == hwdp_mem::phys::FrameState::Allocated,
                format_args!(
                    "in-flight OS fault on file {file} page {page} targets {:?}, which is not an allocated frame",
                    pending.pfn
                ),
            );
            for &tid in &pending.waiters {
                report.check_args(
                    "core",
                    "osdp-inflight-waiter",
                    matches!(self.threads[tid.0].state, ThreadState::Blocked),
                    format_args!(
                        "in-flight OS fault on file {file} page {page} holds waiter {tid:?} in state {:?}, expected Blocked",
                        self.threads[tid.0].state
                    ),
                );
            }
        }
        // Fault-recovery pairing: every armed watchdog must reference live
        // state — a dangling reference means a retry chain lost its
        // target and can never resolve.
        for (&(dev, token), meta) in self.io_meta.iter() {
            match meta.purpose {
                Purpose::HwdpMiss { entry } => {
                    report.check_args(
                        "core",
                        "fault-watchdog-entry",
                        self.smu.pmshr.try_entry(entry).is_some(),
                        format_args!(
                            "watchdog for device {dev} token {token:?} references retired PMSHR entry {entry:?}"
                        ),
                    );
                }
                Purpose::OsdpRead { key } => {
                    report.check_args(
                        "core",
                        "fault-watchdog-osdp",
                        self.osdp_inflight.contains_key(&key),
                        format_args!(
                            "watchdog for device {dev} token {token:?} references resolved OS fault {key:?}"
                        ),
                    );
                }
                Purpose::Writeback | Purpose::TierRead { .. } | Purpose::TierWrite { .. } => {}
            }
        }
        // Tier layer: the engine's own invariants (capacity, ownership
        // bijection), plus the cross-layer residence check — what the
        // engine believes about a page's placement must agree with the
        // file system's per-page location override, or reads would be
        // routed to a block the tier layer does not own.
        if let Some(tr) = &self.tier {
            tr.engine.sanitize(level, report);
            if level.full_checks() {
                for (key, &(file, page)) in tr.pages.iter() {
                    let over = self.os.fs.location_override(file, page);
                    let res = tr.engine.residence_of(key);
                    let ok = match res {
                        Some(TierResidence::Slow | TierResidence::PromoteInFlight(_)) | None => {
                            over.is_none()
                        }
                        Some(TierResidence::Fast(f) | TierResidence::DemoteInFlight(f)) => {
                            over == Some((SocketId(0), tr.fast_dev, 1, Lba(f)))
                        }
                    };
                    report.check_args(
                        "core",
                        "tier-residence-consistent",
                        ok,
                        format_args!(
                            "page key {key} (file {} page {page}): engine residence {res:?} \
                             disagrees with fs location override {over:?}",
                            file.0
                        ),
                    );
                }
            }
        }
        // Clean-exit drain: once every thread finished, no in-flight fault
        // may still hold a waiter (a leaked waiter would have kept its
        // thread blocked forever).
        if self.active_threads == 0 {
            for (&(file, page), pending) in self.osdp_inflight.iter() {
                report.check_args(
                    "core",
                    "fault-waiters-drained",
                    pending.waiters.is_empty(),
                    format_args!(
                        "run ended with OS fault on file {file} page {page} still holding waiters {:?}",
                        pending.waiters
                    ),
                );
            }
        }
    }
}

/// Builder for [`System`].
///
/// ```
/// use hwdp_core::{Mode, SystemBuilder};
/// let sys = SystemBuilder::new(Mode::Hwdp).memory_frames(1024).seed(7).build();
/// assert_eq!(sys.config().memory_frames, 1024);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SystemBuilder {
    cfg: SystemConfig,
}

impl SystemBuilder {
    /// Starts from the paper-default configuration for `mode`.
    pub fn new(mode: Mode) -> Self {
        SystemBuilder { cfg: SystemConfig::paper_default(mode) }
    }

    /// Sets the simulated DRAM size in frames.
    pub fn memory_frames(mut self, frames: usize) -> Self {
        self.cfg.memory_frames = frames;
        self
    }

    /// Sets the storage device personality.
    pub fn device(mut self, profile: DeviceProfile) -> Self {
        self.cfg.device = profile;
        self
    }

    /// Sets the number of physical cores.
    pub fn physical_cores(mut self, cores: usize) -> Self {
        self.cfg.physical_cores = cores;
        self
    }

    /// Sets the PMSHR size (ablations).
    pub fn pmshr_entries(mut self, entries: usize) -> Self {
        self.cfg.pmshr_entries = entries;
        self
    }

    /// Sets the free-page-queue depth (ablations).
    pub fn free_queue_depth(mut self, depth: usize) -> Self {
        self.cfg.free_queue_depth = depth;
        self
    }

    /// Enables or disables `kpoold` (§IV-D ablation).
    pub fn kpoold(mut self, enabled: bool) -> Self {
        self.cfg.kpoold_enabled = enabled;
        self
    }

    /// Sets the `kpted` period.
    pub fn kpted_period(mut self, period: Duration) -> Self {
        self.cfg.kpted_period = period;
        self
    }

    /// Enables the §V long-latency-I/O timeout: misses whose device wait
    /// exceeds `limit` context-switch instead of stalling.
    pub fn long_io_timeout(mut self, limit: Duration) -> Self {
        self.cfg.long_io_timeout = Some(limit);
        self
    }

    /// Enables per-core free-page queues (§V future work).
    pub fn per_core_free_queues(mut self, enabled: bool) -> Self {
        self.cfg.per_core_free_queues = enabled;
        self
    }

    /// Sets the OS readahead window in pages (0 disables, as in §VI-A).
    pub fn readahead_pages(mut self, pages: usize) -> Self {
        self.cfg.readahead_pages = pages;
        self
    }

    /// Sets the §V SMU prefetch window in pages (0 disables).
    pub fn smu_prefetch_pages(mut self, pages: usize) -> Self {
        self.cfg.smu_prefetch_pages = pages;
        self
    }

    /// Installs a deterministic device fault plan (media errors, delays,
    /// dropped completions, queue-full windows). A zero-rate config is
    /// inert: no plan is attached and the run is byte-identical to one
    /// built without this call.
    pub fn faults(mut self, cfg: hwdp_nvme::FaultConfig) -> Self {
        self.cfg.faults = Some(cfg);
        self
    }

    /// Enables tiered storage: device 0 becomes the slow tier (profile
    /// `cfg.slow`), a fast device is attached at construction, and the
    /// hot/cold migration daemon wakes every `cfg.period`.
    pub fn tiers(mut self, cfg: hwdp_tier::TierConfig) -> Self {
        self.cfg.tiers = Some(cfg);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the hwdp-audit sanitizer level (observation-only invariant
    /// checks; `Off` by default).
    pub fn sanitize(mut self, level: SanitizeLevel) -> Self {
        self.cfg.sanitize = level;
        self
    }

    /// Applies an arbitrary configuration transform.
    pub fn tweak(mut self, f: impl FnOnce(&mut SystemConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Builds the system.
    pub fn build(self) -> System {
        System::new(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdp_workloads::FioRandRead;

    fn small_system(level: SanitizeLevel) -> System {
        small_system_in(Mode::Hwdp, level)
    }

    fn small_system_in(mode: Mode, level: SanitizeLevel) -> System {
        let mut sys = SystemBuilder::new(mode)
            .memory_frames(256)
            .seed(11)
            .sanitize(level)
            .build();
        let file = sys.create_pattern_file("audit.dat", 512);
        let region = sys.map_file(file);
        let rng = sys.fork_rng();
        sys.spawn(Box::new(FioRandRead::new(region, 512, 200, rng)), 1.5, None);
        sys
    }

    #[test]
    fn full_sanitize_audits_clean_across_a_real_run() {
        for mode in [Mode::Osdp, Mode::Hwdp] {
            let mut sys = small_system_in(mode, SanitizeLevel::Full);
            let result = sys.run(Duration::from_millis(400));
            assert_eq!(result.ops, 200, "{mode:?}: the workload finished");
            assert!(result.audit.is_clean(), "{mode:?}: {:?}", result.audit.violations);
            assert!(result.audit.checks > 0, "kpoold-tick and end-of-run audits ran");
            assert!(
                result.export_metrics().iter().all(|(n, _)| *n != "sanitize_violations"),
                "clean runs export no violation metric (seed parity)"
            );
            assert!(
                sys.hw.iter().all(|h| h.running.is_none() && h.tlb.entries().count() == 0),
                "{mode:?}: every context is idle and empty once the run ends"
            );
        }
    }

    #[test]
    fn a_context_blocked_on_a_major_fault_holds_no_translations() {
        let mut sys = small_system_in(Mode::Osdp, SanitizeLevel::Off);
        sys.run(Duration::from_micros(300));
        let t = &sys.threads[0];
        assert!(matches!(t.state, ThreadState::Blocked), "stopped inside a major fault");
        let hw = &sys.hw[t.last_hw.expect("the thread ran").0];
        assert!(hw.running.is_none(), "blocking released the context");
        let tlb = hw.tlb.stats();
        assert!(tlb.invalidations > 0, "the context held translations before it went idle: {tlb:?}");
        assert_eq!(hw.tlb.entries().count(), 0, "an idle context keeps no translations");
    }

    #[test]
    fn off_level_runs_no_checks_during_run() {
        let mut sys = small_system(SanitizeLevel::Off);
        let result = sys.run(Duration::from_millis(400));
        assert_eq!(result.audit.checks, 0);
        assert!(result.audit.is_clean());
    }

    #[test]
    fn negative_orphaned_osdp_inflight_detected() {
        // Injected corruption: an in-flight OS fault records a frame that
        // was never allocated — the completion would DMA into untracked
        // memory.
        let mut sys = small_system(SanitizeLevel::Full);
        sys.corrupt_osdp_inflight_for_test();
        sys.run_audit();
        let report = sys.audit_report();
        assert!(!report.is_clean());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "osdp-inflight-frame")
            .expect("orphaned in-flight fault detected");
        assert_eq!(v.layer, "core");
        assert!(v.message.contains("not an allocated frame"));
    }

    #[test]
    fn negative_idle_context_tlb_entry_detected() {
        // Injected corruption: an idle context holds a translation, which
        // the running-contexts-only shootdown would leave stale.
        let mut sys = small_system(SanitizeLevel::Cheap);
        sys.run_audit();
        assert!(sys.audit_report().is_clean());
        sys.corrupt_idle_tlb_for_test();
        sys.run_audit();
        let v = sys
            .audit_report()
            .violations
            .iter()
            .find(|v| v.invariant == "idle-context-tlb-empty")
            .expect("stale idle-context translation detected");
        assert_eq!(v.layer, "core");
        assert!(v.message.contains("no shootdown reaches"));
    }

    #[test]
    fn doorbell_history_advances_monotonically() {
        let mut sys = small_system(SanitizeLevel::Full);
        sys.run(Duration::from_millis(100));
        let before = sys.audit_doorbells.clone();
        sys.run_audit();
        assert!(sys.audit_report().is_clean());
        assert_eq!(sys.audit_doorbells, before, "idle audit sees unchanged doorbells");
    }

    #[test]
    fn add_device_registers_controller_queues_and_doorbells() {
        let mut sys = SystemBuilder::new(Mode::Hwdp).memory_frames(128).seed(3).build();
        let id = sys.add_device(DeviceProfile::OPTANE_PMM);
        assert_eq!(id, DeviceId(1));
        assert_eq!(sys.devices.len(), 2);
        assert_eq!(sys.os_queues.len(), 2);
        assert_eq!(sys.deferred_io.len(), 2);
        assert_eq!(sys.audit_doorbells.len(), 2);
        assert_eq!(sys.device_index[&(0, 1)], 1);
        // The SMU got its own descriptor register set for the new device,
        // with doorbell addresses disjoint from device 0's.
        let d0 = *sys.smu().host.descriptor(DeviceId(0)).expect("device 0 installed");
        let d1 = *sys.smu().host.descriptor(DeviceId(1)).expect("device 1 installed");
        assert_ne!(d0.sq_doorbell, d1.sq_doorbell);
        assert_ne!(d0.cq_doorbell, d1.cq_doorbell);
    }

    #[test]
    fn cross_device_reads_serve_from_the_added_device() {
        let mut sys = SystemBuilder::new(Mode::Hwdp).memory_frames(256).seed(9).build();
        let second = sys.add_device(DeviceProfile::OPTANE_PMM);
        let file = sys.create_pattern_file_on("second.dat", second, 512);
        let region = sys.map_file(file);
        let rng = sys.fork_rng();
        sys.spawn(Box::new(FioRandRead::new(region, 512, 200, rng)), 1.5, None);
        let r = sys.run(Duration::from_millis(400));
        assert!(r.ops > 0, "workload made progress");
        assert_eq!(r.verify_failures(), 0, "pattern data verified across devices");
        assert!(sys.devices[1].stats().reads > 0, "misses served by the added device");
        assert_eq!(sys.devices[0].stats().reads, 0, "device 0 holds no data for this run");
    }

    fn tier_config(policy: hwdp_tier::PolicyKind) -> hwdp_tier::TierConfig {
        hwdp_tier::TierConfig {
            fast: DeviceProfile::OPTANE_PMM,
            slow: DeviceProfile::Z_SSD,
            cap_pct: 25,
            policy,
            period: Duration::from_micros(100),
            batch: 8,
        }
    }

    fn tiered_system(level: SanitizeLevel) -> System {
        let mut sys = SystemBuilder::new(Mode::Hwdp)
            .memory_frames(128)
            .seed(21)
            .sanitize(level)
            .tiers(tier_config(hwdp_tier::PolicyKind::LruEpoch))
            .build();
        let file = sys.create_pattern_file("tier.dat", 512);
        let region = sys.map_file(file);
        let rng = sys.fork_rng();
        sys.spawn(Box::new(FioRandRead::new(region, 512, 1500, rng)), 1.5, None);
        sys
    }

    #[test]
    fn tiering_migrates_pages_and_audits_clean_end_to_end() {
        let mut sys = tiered_system(SanitizeLevel::Full);
        let r = sys.run(Duration::from_millis(2000));
        assert!(r.ops > 0);
        assert_eq!(r.verify_failures(), 0, "data survives migration");
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        let t = r.tier.expect("tier report present when tiering is on");
        assert!(t.promotions > 0, "hot pages promoted: {t:?}");
        assert!(t.fast_hits > 0, "promoted pages served demand misses: {t:?}");
        assert!(t.fast_reads > 0 && t.slow_reads > 0, "both tiers serviced I/O: {t:?}");
        let kv = r.export_metrics();
        assert!(kv.iter().any(|(n, v)| *n == "tier/promotions" && *v > 0.0));
    }

    #[test]
    fn tierless_runs_export_no_tier_metrics() {
        let mut sys = small_system(SanitizeLevel::Off);
        let r = sys.run(Duration::from_millis(100));
        assert!(r.tier.is_none());
        assert!(r.export_metrics().iter().all(|(n, _)| !n.starts_with("tier/")));
    }

    #[test]
    fn queue_full_fault_window_aborts_migrations_and_stays_clean() {
        // Queue-full windows park tier copy I/O in the deferral queue;
        // while a copy waits, demand writebacks dirty its source page and
        // `tier_commit` must abort instead of committing a stale copy.
        // End to end: the run completes, data integrity holds, the audit
        // is clean, and at least one migration was aborted.
        use hwdp_nvme::fault::FaultConfig;
        use hwdp_workloads::{MiniDb, Ycsb, YcsbKind};
        let faults = FaultConfig {
            // Long windows: each stalls submission for ~256 backoff ticks,
            // keeping planned copies parked for milliseconds of virtual
            // time while kpoold keeps evicting and re-dirtying pages.
            queue_full_rate: 0.1,
            queue_full_len: 256,
            reads_only: false,
            ..FaultConfig::default()
        };
        let mut sys = SystemBuilder::new(Mode::Hwdp)
            .memory_frames(64)
            .seed(33)
            .sanitize(SanitizeLevel::Full)
            .tiers(hwdp_tier::TierConfig {
                period: Duration::from_micros(50),
                batch: 16,
                ..tier_config(hwdp_tier::PolicyKind::LruEpoch)
            })
            .faults(faults)
            .build();
        let records = 256u64;
        let capacity = records + records / 4;
        let file = sys.create_kv_file("tierdb", records, capacity);
        let region = sys.map_file(file);
        let db = MiniDb::new(region, records, capacity);
        let rng = sys.fork_rng();
        sys.spawn(Box::new(Ycsb::new(YcsbKind::A, db, 5000, rng)), 1.6, None);
        let r = sys.run(Duration::from_millis(4000));
        assert!(r.ops > 0, "workload made progress under backpressure");
        assert_eq!(r.verify_failures(), 0, "data survives aborted migrations");
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        let t = r.tier.expect("tier report present");
        assert!(t.promotions > 0, "hot pages still promoted: {t:?}");
        assert!(
            t.aborts > 0,
            "queue-full windows stall copies long enough for dirtying writes to abort them: {t:?}"
        );
    }

    #[test]
    fn negative_cross_namespace_location_corruption_detected() {
        // Injected corruption: the fs claims a page lives on the fast
        // tier while the engine still owns it on the slow tier — reads
        // would be routed to an LBA the tier layer never wrote.
        let mut sys = tiered_system(SanitizeLevel::Full);
        sys.corrupt_tier_residence_for_test();
        sys.run_audit();
        let report = sys.audit_report();
        assert!(!report.is_clean());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "tier-residence-consistent")
            .expect("cross-namespace corruption detected");
        assert_eq!(v.layer, "core");
        assert!(v.message.contains("disagrees with fs location override"));
    }

    /// Same shape as [`small_system`] plus a controller-crash fault plan:
    /// crashes at 500 µs and 1 ms of virtual time, 150 µs reset latency.
    fn crash_system(level: SanitizeLevel) -> System {
        use hwdp_nvme::fault::FaultConfig;
        let mut sys = SystemBuilder::new(Mode::Hwdp)
            .memory_frames(256)
            .seed(11)
            .sanitize(level)
            .faults(FaultConfig {
                crash_at_us: 500,
                crash_count: 2,
                reset_latency_us: 150,
                ..FaultConfig::default()
            })
            .build();
        let file = sys.create_pattern_file("audit.dat", 512);
        let region = sys.map_file(file);
        let rng = sys.fork_rng();
        sys.spawn(Box::new(FioRandRead::new(region, 512, 200, rng)), 1.5, None);
        sys
    }

    #[test]
    fn controller_crash_recovers_and_audits_clean_end_to_end() {
        let mut sys = crash_system(SanitizeLevel::Full);
        let r = sys.run(Duration::from_millis(400));
        assert!(r.ops > 0, "workload made progress across the crashes");
        assert_eq!(r.verify_failures(), 0, "data integrity held through recovery");
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        assert!(
            (1..=2).contains(&r.controller_resets),
            "every detected crash was driven through a reset: {r:?}",
        );
        let kv = r.export_metrics();
        assert!(kv.iter().any(|(n, v)| *n == "fault/controller_resets" && *v >= 1.0));
        assert!(kv.iter().any(|(n, _)| *n == "fault/crash_ios_lost"));

        // Differential oracle at the unit level: a fault-free twin with
        // the same seed, file, and workload ends with identical
        // memory/page-cache/file contents — recovery lost no data.
        let mut twin = small_system(SanitizeLevel::Full);
        let t = twin.run(Duration::from_millis(400));
        assert_eq!(
            sys.content_digest(),
            twin.content_digest(),
            "post-recovery contents match the fault-free twin"
        );
        assert!(r.ops <= t.ops, "crashed run never outruns its fault-free twin");
    }

    #[test]
    fn crash_free_plans_schedule_no_resets() {
        // A fault plan without crash knobs must never touch the recovery
        // ladder: no resets, no lost I/O, no fault/* reset metrics.
        let mut sys = small_system(SanitizeLevel::Full);
        let r = sys.run(Duration::from_millis(400));
        assert_eq!(r.controller_resets, 0);
        assert_eq!(r.crash_ios_lost, 0);
        assert!(r.export_metrics().iter().all(|(n, _)| !n.starts_with("fault/")));
    }

    #[test]
    fn content_digest_is_deterministic() {
        let mut a = small_system(SanitizeLevel::Off);
        let mut b = small_system(SanitizeLevel::Off);
        a.run(Duration::from_millis(100));
        b.run(Duration::from_millis(100));
        assert_ne!(a.content_digest(), 0, "digest covers real content");
        assert_eq!(a.content_digest(), b.content_digest(), "same seed, same digest");
    }

    #[test]
    fn clean_post_reset_audit_reports_no_violations() {
        let mut sys = small_system(SanitizeLevel::Full);
        sys.post_reset_audit_for_test(0);
        assert!(sys.audit_report().is_clean(), "{:?}", sys.audit_report().violations);
    }

    #[test]
    fn negative_post_reset_ring_residue_detected() {
        // Injected corruption: a command still sits in the SQ after the
        // reset supposedly reinitialized the rings.
        let mut sys = small_system(SanitizeLevel::Full);
        sys.corrupt_ring_for_test();
        sys.post_reset_audit_for_test(0);
        let report = sys.audit_report();
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "reset-rings-empty")
            .expect("ring residue detected");
        assert_eq!(v.layer, "core");
        assert!(v.message.contains("ring not empty"));
    }

    #[test]
    fn negative_post_reset_phase_desync_detected() {
        // Injected corruption: the device-side CQ phase flipped a lap
        // while the host expectation did not.
        let mut sys = small_system(SanitizeLevel::Full);
        sys.corrupt_phase_for_test();
        sys.post_reset_audit_for_test(0);
        let v = sys
            .audit_report()
            .violations
            .iter()
            .find(|v| v.invariant == "reset-phase-consistent")
            .expect("phase desync detected");
        assert!(v.message.contains("phase tags inconsistent"));
    }

    #[test]
    fn negative_post_reset_stale_watchdog_detected() {
        // Injected corruption: an armed watchdog survives the failure
        // sweep — its timeout would fire against a token the reset wiped.
        let mut sys = small_system(SanitizeLevel::Full);
        sys.corrupt_watchdog_for_test();
        sys.post_reset_audit_for_test(0);
        let v = sys
            .audit_report()
            .violations
            .iter()
            .find(|v| v.invariant == "reset-watchdogs-cancelled")
            .expect("stale watchdog detected");
        assert!(v.message.contains("watchdog tokens survived"));
    }

    #[test]
    fn negative_post_reset_stale_pmshr_reference_detected() {
        // Injected corruption: a parked submission references a PMSHR
        // entry that was already retired — it could never be woken.
        let mut sys = small_system(SanitizeLevel::Full);
        sys.corrupt_deferred_pmshr_for_test();
        sys.post_reset_audit_for_test(0);
        let v = sys
            .audit_report()
            .violations
            .iter()
            .find(|v| v.invariant == "reset-pmshr-drained")
            .expect("stale PMSHR reference detected");
        assert!(v.message.contains("retired PMSHR entry"));
    }

    #[test]
    fn negative_post_reset_tier_inflight_detected() {
        // Injected corruption: a tier migration is still marked in flight
        // after the reset aborted every copy I/O.
        let mut sys = tiered_system(SanitizeLevel::Full);
        sys.corrupt_tier_inflight_for_test();
        sys.post_reset_audit_for_test(0);
        let v = sys
            .audit_report()
            .violations
            .iter()
            .find(|v| v.invariant == "reset-tier-quiesced")
            .expect("in-flight tier migration detected");
        assert!(v.message.contains("migration still in flight"));
    }

    #[test]
    fn kv_records_stay_inline_through_puts_evictions_and_writebacks() {
        // A MiniDB record is a zero page with a 24-byte header. Neither the
        // dataset build nor YCSB puts, and the evictions, writebacks and
        // re-reads that follow them, may turn one into a 4 KiB heap buffer.
        use hwdp_mem::phys::FrameState;
        use hwdp_workloads::{MiniDb, Ycsb, YcsbKind};
        for mode in [Mode::Osdp, Mode::Hwdp] {
            let mut sys = SystemBuilder::new(mode).memory_frames(64).seed(21).build();
            let records = 256u64;
            let file = sys.create_kv_file("inline.db", records, records);
            let stored = |sys: &System, key| {
                sys.devices[0].namespace(1).read_block(sys.os.fs.lba_of(file, key))
            };
            for key in 0..records {
                assert!(!stored(&sys, key).is_materialized(), "{mode:?}: built record {key}");
            }
            let region = sys.map_file(file);
            let db = MiniDb::new(region, records, records);
            let rng = sys.fork_rng();
            sys.spawn(Box::new(Ycsb::new(YcsbKind::A, db, 2000, rng)), 1.6, None);
            let r = sys.run(Duration::from_millis(4000));
            assert_eq!(r.verify_failures(), 0, "{mode:?}");
            assert!(sys.os.stats().writebacks > 0, "{mode:?}: puts were written back");
            for key in 0..records {
                assert!(!stored(&sys, key).is_materialized(), "{mode:?}: stored record {key}");
            }
            for pfn in (0..sys.os.frames.total() as u64).map(Pfn) {
                if sys.os.frames.state(pfn) == FrameState::Allocated {
                    assert!(!sys.os.frames.snapshot(pfn).is_materialized(), "{mode:?}: {pfn:?}");
                }
            }
        }
    }

    #[test]
    fn read_snapshots_are_taken_at_access_time() {
        // One record, pre-populated so every read is resident; the thread
        // is stepped by hand so a store can land between a read and the
        // thread's next step.
        let mut sys = SystemBuilder::new(Mode::Osdp).memory_frames(64).seed(5).build();
        let file = sys.create_kv_file("snap.db", 1, 1);
        let region = sys.map_file_with(file, MmapFlags::populate());
        let rng = sys.fork_rng();
        let db = hwdp_workloads::MiniDb::new(region, 1, 1);
        let tid =
            sys.spawn(Box::new(hwdp_workloads::DbBenchReadRandom::new(db, 2, rng)), 1.0, None);
        sys.install(tid, HwId(0), Time::ZERO);
        let vpn = sys.region_vpn(region, 0).expect("mapped");
        let pfn = sys.os.page_table.pte(vpn).pfn().expect("populated");
        let garbage = [0xEE; hwdp_workloads::RECORD_HEADER_LEN];
        let failures = |sys: &System| sys.threads[tid.0].workload.verify_failures();

        // Op 1: compute, then a read of the intact header; the frame is
        // overwritten before the thread's next step, which verifies what
        // the read saw.
        sys.advance(tid, Time::ZERO);
        sys.advance(tid, Time::ZERO);
        sys.os.frames.write(pfn, 0, &garbage);
        sys.advance(tid, Time::ZERO);
        assert_eq!(failures(&sys), 0, "verified the bytes as they were at the access");

        // Op 2 reads the frame corrupted before the access: flagged.
        sys.advance(tid, Time::ZERO);
        sys.advance(tid, Time::ZERO);
        assert_eq!(failures(&sys), 1, "a frame corrupted before the read fails verification");
        assert_eq!(sys.threads[tid.0].workload.ops_done(), 2);
        assert_eq!(sys.threads[tid.0].state, ThreadState::Finished);
    }
}
