//! System configuration (paper Table II, plus the knobs the evaluation
//! sweeps).

use hwdp_cpu::pollution::PollutionParams;
use hwdp_nvme::fault::FaultConfig;
use hwdp_nvme::profile::DeviceProfile;
use hwdp_sim::time::{Duration, Freq};
use hwdp_sim::SanitizeLevel;

/// Which demand-paging design the system runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mode {
    /// Conventional OS-based demand paging (the vanilla-kernel baseline).
    Osdp,
    /// The paper's hardware-based demand paging (LBA-augmented page table
    /// + SMU).
    Hwdp,
    /// The software-only prototype of §VI-A: LBA-augmented PTEs consumed
    /// by a kernel fault handler that skips the block layer and polls.
    SwOnly,
}

impl Mode {
    /// The paper's label for the mode.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Osdp => "OSDP",
            Mode::Hwdp => "HWDP",
            Mode::SwOnly => "SW-only",
        }
    }

    /// Whether this mode populates LBA-augmented PTEs at `mmap` time.
    pub fn uses_lba_ptes(self) -> bool {
        matches!(self, Mode::Hwdp | Mode::SwOnly)
    }
}

/// Host-side I/O fault-recovery policy: how many times a failed read is
/// retried, with what backoff, and how long the per-command watchdog
/// waits before declaring a command lost.
///
/// Recovery is layered (paper §IV fallback): the SMU retries a failed
/// hardware miss up to `max_retries` times, then abandons the PMSHR entry
/// and degrades the access to the OSDP software path; the OS path retries
/// once more before surfacing a typed `IoError` to the workload.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryPolicy {
    /// Device-command retries before degrading to the next recovery layer.
    pub max_retries: u32,
    /// First retry delay; retry `n` waits `backoff_base << n`
    /// (deterministic exponential backoff in simulated time).
    pub backoff_base: Duration,
    /// Watchdog deadline per submitted command. Must exceed the device's
    /// nominal 4 KiB service time by a comfortable margin (Z-SSD reads
    /// take ~11 µs; delayed or dropped completions trip this).
    pub command_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: Duration::from_micros(25),
            command_timeout: Duration::from_micros(200),
        }
    }
}

/// Full system configuration.
///
/// Defaults mirror the paper's testbed (Table II: Xeon E5-2640v3 at
/// 2.8 GHz, 8 physical cores with HT, Samsung Z-SSD, Linux-like kernel
/// parameters: 4096-entry free-page queue, 4 ms `kpoold`, 1 s `kpted`),
/// with memory scaled down — all experiments preserve the paper's
/// dataset:memory *ratios* rather than absolute sizes.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Demand-paging mode.
    pub mode: Mode,
    /// Core clock.
    pub freq: Freq,
    /// Physical cores.
    pub physical_cores: usize,
    /// Hardware threads per core (2 = HT on, as in Table II).
    pub smt_ways: usize,
    /// Simulated DRAM size in 4 KiB frames.
    pub memory_frames: usize,
    /// Storage device personality.
    pub device: DeviceProfile,
    /// PMSHR entries (paper prototype: 32).
    pub pmshr_entries: usize,
    /// Free-page queue depth (paper: 4096 = 16 MiB).
    pub free_queue_depth: usize,
    /// SMU prefetch-buffer entries (paper: 16).
    pub prefetch_entries: usize,
    /// `kpoold` wake period (paper: 4 ms).
    pub kpoold_period: Duration,
    /// Whether `kpoold` runs at all (§IV-D ablation).
    pub kpoold_enabled: bool,
    /// `kpted` scan period (paper: 1 s; scaled with the dataset so several
    /// scans happen within a scaled-down run).
    pub kpted_period: Duration,
    /// Microarchitectural pollution model parameters.
    pub pollution: PollutionParams,
    /// OS readahead window in pages (0 = disabled, the paper's evaluation
    /// setting — §VI-A notes readahead *degrades* their random workloads;
    /// the `ext-prefetch` table reproduces that finding and its flip side
    /// for sequential access).
    pub readahead_pages: usize,
    /// §V "Prefetching Support" (future work in the paper): the SMU
    /// prefetches up to this many sequentially-next pages alongside each
    /// demand miss (0 = disabled).
    pub smu_prefetch_pages: usize,
    /// §V future work: one free-page queue per hardware thread instead of
    /// the global queue, letting OS memory policy (NUMA, cgroups, page
    /// coloring) be enforced per thread context.
    pub per_core_free_queues: bool,
    /// §V "Long Latency I/O": when set, a hardware miss whose device wait
    /// would exceed this threshold takes a timeout exception and context
    /// switch instead of stalling the pipeline, freeing the core for other
    /// threads at the cost of the switch overhead. `None` (the paper's
    /// prototype) always stalls.
    pub long_io_timeout: Option<Duration>,
    /// Host-side I/O retry/timeout policy (only consulted when `faults`
    /// is active or a real submission failure occurs).
    pub retry: RetryPolicy,
    /// Deterministic device fault plan. `None` — and any zero-rate config
    /// — leaves the simulation byte-identical to a fault-free build: no
    /// watchdog events are scheduled and no recovery bookkeeping is kept.
    pub faults: Option<FaultConfig>,
    /// Tiered-storage configuration. `None` (the default) runs the
    /// single-device system of the paper; `Some` replaces device 0's
    /// profile with the slow tier, attaches a fast device, and runs the
    /// hot/cold migration daemon. Pay-as-you-go: `None` is byte-identical
    /// to a build without the tier layer.
    pub tiers: Option<hwdp_tier::TierConfig>,
    /// Master RNG seed; everything derives from it.
    pub seed: u64,
    /// hwdp-audit sanitizer level. Observation-only: any level produces
    /// byte-identical simulation results; nonzero levels additionally run
    /// cross-layer invariant checks at `kpoold` ticks and end of run.
    pub sanitize: SanitizeLevel,
}

impl SystemConfig {
    /// The Table II configuration for a given mode (with scaled memory:
    /// 4096 frames = 16 MiB simulated DRAM; pick dataset sizes relative to
    /// this).
    pub fn paper_default(mode: Mode) -> Self {
        SystemConfig {
            mode,
            freq: Freq::XEON_2640V3,
            physical_cores: 8,
            smt_ways: 2,
            memory_frames: 4096,
            device: DeviceProfile::Z_SSD,
            pmshr_entries: 32,
            free_queue_depth: 4096,
            prefetch_entries: 16,
            kpoold_period: Duration::from_millis(4),
            kpoold_enabled: true,
            kpted_period: Duration::from_millis(20),
            pollution: PollutionParams::default(),
            readahead_pages: 0,
            smu_prefetch_pages: 0,
            per_core_free_queues: false,
            long_io_timeout: None,
            retry: RetryPolicy::default(),
            faults: None,
            tiers: None,
            seed: 0x5EED_CAFE,
            sanitize: SanitizeLevel::Off,
        }
    }

    /// Total hardware thread contexts.
    pub fn hw_threads(&self) -> usize {
        self.physical_cores * self.smt_ways
    }

    /// Simulated DRAM size in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_frames as u64 * 4096
    }

    /// Renders the Table II-style configuration block.
    pub fn describe(&self) -> String {
        format!(
            "mode: {}\nCPU: {} x{} cores (SMT{})\nmemory: {} MiB ({} frames)\n\
             device: {} (4K read {})\nPMSHR: {} entries\nfree-page queue: {} entries\n\
             prefetch buffer: {} entries\nkpoold: every {} ({})\nkpted: every {}",
            self.mode.label(),
            self.freq,
            self.physical_cores,
            self.smt_ways,
            self.memory_bytes() >> 20,
            self.memory_frames,
            self.device.name,
            self.device.read_4k,
            self.pmshr_entries,
            self.free_queue_depth,
            self.prefetch_entries,
            self.kpoold_period,
            if self.kpoold_enabled { "on" } else { "off" },
            self.kpted_period,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let c = SystemConfig::paper_default(Mode::Hwdp);
        assert_eq!(c.freq, Freq::XEON_2640V3);
        assert_eq!(c.physical_cores, 8);
        assert_eq!(c.hw_threads(), 16);
        assert_eq!(c.pmshr_entries, 32);
        assert_eq!(c.free_queue_depth, 4096);
        assert_eq!(c.device.name, "Z-SSD SZ985");
        assert_eq!(c.kpoold_period, Duration::from_millis(4));
    }

    #[test]
    fn mode_labels() {
        assert_eq!(Mode::Osdp.label(), "OSDP");
        assert_eq!(Mode::Hwdp.label(), "HWDP");
        assert!(Mode::Hwdp.uses_lba_ptes());
        assert!(Mode::SwOnly.uses_lba_ptes());
        assert!(!Mode::Osdp.uses_lba_ptes());
    }

    #[test]
    fn describe_mentions_key_facts() {
        let s = SystemConfig::paper_default(Mode::Hwdp).describe();
        assert!(s.contains("HWDP"));
        assert!(s.contains("Z-SSD"));
        assert!(s.contains("PMSHR: 32"));
    }
}
