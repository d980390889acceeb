//! Property test of the fault-recovery pipeline: a randomly drawn fault
//! plan — any mix of media errors, delays, drops, and backpressure at any
//! rates — must never panic the system and never violate a hwdp-audit
//! invariant at `SanitizeLevel::Full`.
//!
//! The property is a seeded loop: a [`Prng`] with a fixed seed draws
//! every case's plan, and each assertion names the case index and the
//! plan, so a failure reproduces exactly.

use hwdp_core::{Mode, SystemBuilder};
use hwdp_nvme::fault::FaultConfig;
use hwdp_sim::rng::Prng;
use hwdp_sim::time::Duration;
use hwdp_sim::SanitizeLevel;
use hwdp_workloads::FioRandRead;

/// Cases per property: each one is a whole sanitized run.
const CASES: usize = 24;

/// Whatever the plan throws at the host, the run terminates (bounded
/// virtual time), data that does arrive verifies, and every audit
/// invariant holds. Nothing here may panic.
#[test]
fn random_fault_plans_never_panic_or_violate_invariants() {
    let mut g = Prng::seed_from(0xC0_0001);
    for case in 0..CASES {
        let (range_on, lba_a, lba_b) = (g.chance(0.5), g.below(512), g.below(512));
        let cfg = FaultConfig {
            media_error_rate: g.f64(),
            persistent_media_rate: g.f64(),
            delay_rate: g.f64(),
            delay_factor: 1.0 + g.f64() * 199.0,
            drop_rate: g.f64(),
            // < 1: backpressure windows must close.
            queue_full_rate: g.f64() * 0.9,
            queue_full_len: g.range(1, 7) as u32,
            lba_range: range_on.then(|| (lba_a.min(lba_b), lba_a.max(lba_b))),
            reads_only: g.chance(0.5),
            // 0 disables the crash schedule.
            crash_at_us: g.below(3_000),
            crash_count: g.range(1, 3) as u32,
            reset_latency_us: g.range(10, 499),
        };
        let (seed, mode_hwdp) = (g.below(1024), g.chance(0.5));
        let ctx = format!("case {case}: seed {seed}, hwdp {mode_hwdp}, {cfg:?}");
        let mode = if mode_hwdp { Mode::Hwdp } else { Mode::Osdp };
        let mut sys = SystemBuilder::new(mode)
            .memory_frames(128)
            .sanitize(SanitizeLevel::Full)
            .seed(seed)
            .faults(cfg)
            .build();
        let pages = 512;
        let file = sys.create_pattern_file("fio-data", pages);
        let region = sys.map_file(file);
        let rng = Prng::seed_from(seed ^ 0xF10);
        sys.spawn(Box::new(FioRandRead::new(region, pages, 40, rng)), 1.8, None);
        let r = sys.run(Duration::from_secs(5));
        assert!(r.audit.is_clean(), "violations: {:?}; {ctx}", r.audit.violations);
        // Recovery bookkeeping must drain: whatever was surfaced was
        // surfaced through the typed-error path, one record per failure.
        assert_eq!(sys.io_errors().len() as u64, r.perf.io_errors_surfaced, "{ctx}");
    }
}
