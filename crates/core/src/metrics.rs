//! Run results and per-thread reports.

use hwdp_cpu::perf::PerfCounters;
use hwdp_os::kernel::{KernelAccounting, OsStats};
use hwdp_smu::smu::SmuStats;
use hwdp_sim::sanitize::AuditReport;
use hwdp_sim::stats::LatencyHist;
use hwdp_sim::time::Duration;

/// Where a thread's wall-clock time went (the Fig. 1 breakdown).
#[derive(Clone, Copy, Debug, Default)]
pub struct TimeBreakdown {
    /// User compute (workload instructions).
    pub compute: Duration,
    /// Stalled or blocked waiting for page misses (device + hardware
    /// path).
    pub miss_wait: Duration,
    /// Kernel code executed in this thread's context (fault handling).
    pub kernel: Duration,
    /// Plain memory accesses (TLB/walk/copy on resident pages).
    pub access: Duration,
    /// Waiting for a hardware context (oversubscription).
    pub sched_wait: Duration,
}

impl TimeBreakdown {
    /// Total accounted time.
    pub fn total(&self) -> Duration {
        self.compute + self.miss_wait + self.kernel + self.access + self.sched_wait
    }
}

/// One thread's results.
#[derive(Clone, Debug)]
pub struct ThreadReport {
    /// Workload name.
    pub name: String,
    /// Completed application operations.
    pub ops: u64,
    /// Data-verification failures (must be zero in a correct system).
    pub verify_failures: u64,
    /// SMT hardware context the thread last ran on (its pin if pinned;
    /// `None` if it never got a context).
    pub hw_context: Option<usize>,
    /// End-of-run cache warmth from the pollution model, in `[0, 1]`
    /// (1 = fully warm, never disturbed by kernel execution).
    pub pollution_warmth: f64,
    /// User cycles the thread would have spent at full cache warmth
    /// (pollution excluded, SMT issue sharing included).
    pub warm_user_cycles: u64,
    /// Hardware counters.
    pub perf: PerfCounters,
    /// Time breakdown.
    pub time: TimeBreakdown,
    /// Page-miss handling latency seen by this thread.
    pub miss_latency: LatencyHist,
}

impl ThreadReport {
    /// User-level IPC of this thread alone.
    pub fn user_ipc(&self) -> f64 {
        self.perf.user_ipc()
    }

    /// Pollution-adjusted user IPC: what the thread would have retired
    /// per cycle with a permanently warm cache (the Fig. 14 "IPC lost to
    /// kernel pollution" counterfactual). Equals [`ThreadReport::user_ipc`]
    /// when no kernel code disturbed the caches.
    pub fn adjusted_user_ipc(&self) -> f64 {
        if self.warm_user_cycles == 0 {
            return 0.0;
        }
        self.perf.user_instructions as f64 / self.warm_user_cycles as f64
    }

    /// Flattens the per-thread report into `(name, value)` pairs, mirroring
    /// [`RunResult::export_metrics`]. `hw_context` is `-1` when the thread
    /// never ran on a hardware context.
    pub fn export_metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("hw_context", self.hw_context.map_or(-1.0, |h| h as f64)),
            ("ops", self.ops as f64),
            ("verify_failures", self.verify_failures as f64),
            ("user_instructions", self.perf.user_instructions as f64),
            ("kernel_instructions", self.perf.kernel_instructions as f64),
            ("user_cycles", self.perf.user_cycles as f64),
            ("kernel_cycles", self.perf.kernel_cycles as f64),
            ("user_ipc", self.user_ipc()),
            ("adjusted_user_ipc", self.adjusted_user_ipc()),
            ("pollution_warmth", self.pollution_warmth),
        ]
    }
}

/// Results of one system run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Virtual time elapsed.
    pub elapsed: Duration,
    /// Total completed operations across threads.
    pub ops: u64,
    /// Per-thread reports.
    pub threads: Vec<ThreadReport>,
    /// Aggregate miss-handling latency (all threads).
    pub miss_latency: LatencyHist,
    /// Aggregate per-read application-observed latency.
    pub read_latency: LatencyHist,
    /// Aggregated hardware counters.
    pub perf: PerfCounters,
    /// Kernel-work accounting (Fig. 15).
    pub kernel: KernelAccounting,
    /// OS statistics.
    pub os: OsStats,
    /// SMU statistics (zeroed under OSDP).
    pub smu: SmuStats,
    /// Device read/write counts.
    pub device_reads: u64,
    /// Device write commands completed.
    pub device_writes: u64,
    /// Page misses that fell back to the OS because the free-page queue
    /// was empty (§IV-D).
    pub sync_refill_faults: u64,
    /// Misses that had to wait because the PMSHR was full.
    pub pmshr_stalls: u64,
    /// Misses that took the §V long-latency timeout path (context switch
    /// instead of pipeline stall).
    pub long_io_switches: u64,
    /// Pages read ahead by the OS (readahead window > 0).
    pub readahead_reads: u64,
    /// Detached prefetch misses issued by the SMU (§V future work).
    pub smu_prefetches: u64,
    /// Controller resets completed by the host recovery ladder (0 unless
    /// crash injection is configured).
    pub controller_resets: u64,
    /// In-flight commands lost to controller crashes (every one is retired
    /// and requeued or degraded by the recovery ladder).
    pub crash_ios_lost: u64,
    /// Simulation events dispatched by the main loop. Deliberately *not*
    /// exported by [`RunResult::export_metrics`] — it is a simulator
    /// implementation detail, and the harness surfaces it (with wall-clock
    /// `events_per_sec`) only under its opt-in throughput mode so baseline
    /// artifacts stay byte-identical.
    pub events_processed: u64,
    /// hwdp-audit sanitizer report (empty when sanitizing was `Off` or
    /// every invariant held).
    pub audit: AuditReport,
    /// Tiering report (`None` unless the run had a tier configuration;
    /// single-device artifacts stay byte-identical to the baselines).
    pub tier: Option<hwdp_tier::TierReport>,
}

impl RunResult {
    /// Throughput in operations per second of virtual time.
    pub fn throughput_ops_s(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    /// Aggregate user-level IPC.
    pub fn user_ipc(&self) -> f64 {
        self.perf.user_ipc()
    }

    /// Total verification failures (0 ⇔ data integrity held).
    pub fn verify_failures(&self) -> u64 {
        self.threads.iter().map(|t| t.verify_failures).sum()
    }

    /// Mean page-miss latency.
    pub fn mean_miss_latency(&self) -> Duration {
        self.miss_latency.mean()
    }

    /// Flattens the run into `(name, value)` pairs for machine-readable
    /// sinks (the `hwdp-harness` JSON artifact, CSV exporters, …).
    ///
    /// Names are stable identifiers; order is fixed. Counter values are
    /// exact up to 2^53 (they cross an `f64`); latencies are nanoseconds.
    pub fn export_metrics(&self) -> Vec<(&'static str, f64)> {
        let lat = |h: &LatencyHist, q: f64| h.percentile(q).as_nanos_f64();
        let mut kv = vec![
            ("elapsed_ns", self.elapsed.as_nanos_f64()),
            ("ops", self.ops as f64),
            ("throughput_ops_s", self.throughput_ops_s()),
            ("user_ipc", self.user_ipc()),
            ("verify_failures", self.verify_failures() as f64),
            ("read_lat_mean_ns", self.read_latency.mean().as_nanos_f64()),
            ("read_lat_p50_ns", lat(&self.read_latency, 0.50)),
            ("read_lat_p99_ns", lat(&self.read_latency, 0.99)),
            ("read_lat_count", self.read_latency.count() as f64),
            ("miss_lat_mean_ns", self.miss_latency.mean().as_nanos_f64()),
            ("miss_lat_p50_ns", lat(&self.miss_latency, 0.50)),
            ("miss_lat_p99_ns", lat(&self.miss_latency, 0.99)),
            ("miss_lat_count", self.miss_latency.count() as f64),
            ("user_instructions", self.perf.user_instructions as f64),
            ("kernel_instructions", self.perf.kernel_instructions as f64),
            ("user_cycles", self.perf.user_cycles as f64),
            ("kernel_cycles", self.perf.kernel_cycles as f64),
            ("l1d_misses", self.perf.l1d_misses as f64),
            ("l2_misses", self.perf.l2_misses as f64),
            ("llc_misses", self.perf.llc_misses as f64),
            ("branch_misses", self.perf.branch_misses as f64),
            ("app_kernel_instr", self.kernel.app_kernel_instr as f64),
            ("kpted_instr", self.kernel.kpted_instr as f64),
            ("kpoold_instr", self.kernel.kpoold_instr as f64),
            ("minor_faults", self.os.minor_faults as f64),
            ("major_faults", self.os.major_faults as f64),
            ("evictions", self.os.evictions as f64),
            ("writebacks", self.os.writebacks as f64),
            ("kpted_synced", self.os.kpted_synced as f64),
            ("kpted_scans", self.os.kpted_scans as f64),
            ("refilled_frames", self.os.refilled_frames as f64),
            ("smu_started", self.smu.started as f64),
            ("smu_coalesced", self.smu.coalesced as f64),
            ("smu_free_queue_empty", self.smu.free_queue_empty as f64),
            ("smu_pmshr_full", self.smu.pmshr_full as f64),
            ("smu_completed", self.smu.completed as f64),
            ("smu_zero_fills", self.smu.zero_fills as f64),
            ("device_reads", self.device_reads as f64),
            ("device_writes", self.device_writes as f64),
            ("sync_refill_faults", self.sync_refill_faults as f64),
            ("pmshr_stalls", self.pmshr_stalls as f64),
            ("long_io_switches", self.long_io_switches as f64),
            ("readahead_reads", self.readahead_reads as f64),
            ("smu_prefetches", self.smu_prefetches as f64),
        ];
        // Only surfaced when a sanitizer actually found something, so
        // sanitized runs stay byte-identical to unsanitized ones (the
        // seed-parity gate covers `SanitizeLevel::Full`).
        if !self.audit.is_clean() {
            kv.push(("sanitize_violations", self.audit.violations.len() as f64));
        }
        // Fault-recovery counters: exported only when injection actually
        // exercised a recovery path, so fault-free artifacts stay
        // byte-identical to baselines captured before the fault layer
        // existed. All four appear together for grep-ability.
        let p = &self.perf;
        if p.io_retries + p.io_timeouts + p.smu_fallbacks_fault + p.io_errors_surfaced > 0 {
            kv.push(("io_retries", p.io_retries as f64));
            kv.push(("io_timeouts", p.io_timeouts as f64));
            kv.push(("smu_fallbacks_fault", p.smu_fallbacks_fault as f64));
            kv.push(("io_errors_surfaced", p.io_errors_surfaced as f64));
        }
        // Controller-reset counters: exported only when a crash actually
        // happened, so crash-free artifacts (including every fault plan
        // with `crash=0`) stay byte-identical to prior baselines.
        if self.controller_resets > 0 {
            kv.push(("fault/controller_resets", self.controller_resets as f64));
            kv.push(("fault/crash_ios_lost", self.crash_ios_lost as f64));
        }
        // Tiering metrics: present only when the run had a tier
        // configuration, so single-device artifacts stay byte-identical
        // to the seed baselines.
        if let Some(t) = &self.tier {
            kv.push(("tier/promotions", t.promotions as f64));
            kv.push(("tier/demotions", t.demotions as f64));
            kv.push(("tier/aborts", t.aborts as f64));
            kv.push(("tier/fast_hits", t.fast_hits as f64));
            kv.push(("tier/slow_hits", t.slow_hits as f64));
            kv.push(("tier/fast_hit_ratio", t.fast_hit_ratio));
            kv.push(("tier/fast_hit_ratio_early", t.fast_hit_ratio_early));
            kv.push(("tier/fast_hit_ratio_late", t.fast_hit_ratio_late));
            kv.push(("tier/fast_reads", t.fast_reads as f64));
            kv.push(("tier/fast_writes", t.fast_writes as f64));
            kv.push(("tier/slow_reads", t.slow_reads as f64));
            kv.push(("tier/slow_writes", t.slow_writes as f64));
        }
        kv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_metrics_names_unique_and_stable() {
        let r = RunResult {
            elapsed: Duration::from_micros(10),
            ops: 5,
            threads: Vec::new(),
            miss_latency: LatencyHist::new(),
            read_latency: LatencyHist::new(),
            perf: PerfCounters::default(),
            kernel: KernelAccounting::default(),
            os: OsStats::default(),
            smu: SmuStats::default(),
            device_reads: 3,
            device_writes: 1,
            sync_refill_faults: 0,
            pmshr_stalls: 0,
            long_io_switches: 0,
            readahead_reads: 0,
            smu_prefetches: 0,
            controller_resets: 0,
            crash_ios_lost: 0,
            events_processed: 0,
            audit: AuditReport::new(),
            tier: None,
        };
        let kv = r.export_metrics();
        let mut names: Vec<&str> = kv.iter().map(|(n, _)| *n).collect();
        assert_eq!(kv[0].0, "elapsed_ns");
        assert_eq!(kv[1], ("ops", 5.0));
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate metric names");
        assert!(kv.iter().all(|(_, v)| v.is_finite()));

        // Tierless runs export no tier/* metrics (baseline parity)…
        assert!(kv.iter().all(|(n, _)| !n.starts_with("tier/")));
        // …while tiered runs export the full block.
        let mut tiered = r.clone();
        tiered.tier = Some(hwdp_tier::TierReport { promotions: 4, ..Default::default() });
        let kv = tiered.export_metrics();
        let get = |n: &str| kv.iter().find(|(k, _)| *k == n).map(|(_, v)| *v);
        assert_eq!(get("tier/promotions"), Some(4.0));
        assert_eq!(get("tier/fast_hit_ratio"), Some(0.0));
        assert_eq!(get("tier/slow_writes"), Some(0.0));

        // Crash-free runs export no fault/* reset counters (baseline
        // parity)…
        assert!(r.export_metrics().iter().all(|(n, _)| !n.starts_with("fault/")));
        // …while a run that took a controller reset exports both.
        let mut crashed = r.clone();
        crashed.controller_resets = 2;
        crashed.crash_ios_lost = 5;
        let kv = crashed.export_metrics();
        let get = |n: &str| kv.iter().find(|(k, _)| *k == n).map(|(_, v)| *v);
        assert_eq!(get("fault/controller_resets"), Some(2.0));
        assert_eq!(get("fault/crash_ios_lost"), Some(5.0));
    }

    #[test]
    fn thread_report_export_metrics() {
        let perf = PerfCounters { user_instructions: 1_000, user_cycles: 800, ..PerfCounters::default() };
        let t = ThreadReport {
            name: "fio".into(),
            ops: 7,
            verify_failures: 0,
            hw_context: Some(3),
            pollution_warmth: 0.5,
            warm_user_cycles: 500,
            perf,
            time: TimeBreakdown::default(),
            miss_latency: LatencyHist::new(),
        };
        let kv = t.export_metrics();
        let get = |n: &str| kv.iter().find(|(k, _)| *k == n).map(|(_, v)| *v).unwrap();
        assert_eq!(get("hw_context"), 3.0);
        assert_eq!(get("ops"), 7.0);
        assert!((get("user_ipc") - 1.25).abs() < 1e-12);
        assert!((get("adjusted_user_ipc") - 2.0).abs() < 1e-12);
        let mut names: Vec<&str> = kv.iter().map(|(n, _)| *n).collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate per-thread metric names");

        let mut never_ran = t.clone();
        never_ran.hw_context = None;
        never_ran.warm_user_cycles = 0;
        let kv = never_ran.export_metrics();
        assert_eq!(kv[0], ("hw_context", -1.0));
        assert_eq!(never_ran.adjusted_user_ipc(), 0.0);
    }
}
