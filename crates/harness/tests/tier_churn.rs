//! Tier migration copies only pages that live on a device, and only when
//! the destination lacks their bytes.
//!
//! Under HWDP a page the SMU filled sits in DRAM before `kpted` enters it
//! into the page cache. If the tier daemon judged residence by the page
//! cache alone, it would keep copying such pages between the tiers, and
//! HWDP would promote an order of magnitude more pages than OSDP on the
//! same job while gaining no fast-tier hits from them.
//!
//! A page no write reached while it was on the fast tier still has its
//! bytes on its home block, so demoting it needs no copy.

use hwdp_core::{Mode, RunResult};
use hwdp_harness::runner::simulate;
use hwdp_harness::{JobSpec, Scenario, TierSpec};
use hwdp_workloads::YcsbKind;

fn metric(result: &RunResult, name: &str) -> f64 {
    result.export_metrics().into_iter().find(|(k, _)| *k == name).map_or(0.0, |(_, v)| v)
}

/// YCSB-C, two threads, a 4× dataset over 128 frames, on a pmm/zssd tier
/// pair under epoch-LRU.
fn lru_tiered(mode: Mode) -> JobSpec {
    let mut spec = JobSpec::new(Scenario::Ycsb(YcsbKind::C), mode, 7);
    spec.memory_frames = 128;
    spec.ratio = 4.0;
    spec.threads = 2;
    spec.ops = 2000;
    let tiers = TierSpec::parse("fast:pmm,slow:zssd,policy:lru").expect("valid tiers");
    spec.tiers = Some(tiers);
    spec
}

#[test]
fn hwdp_promotes_no_more_than_twice_what_osdp_does() {
    let osdp = simulate(&lru_tiered(Mode::Osdp));
    let hwdp = simulate(&lru_tiered(Mode::Hwdp));
    let (o, h) = (metric(&osdp, "tier/promotions"), metric(&hwdp, "tier/promotions"));
    assert!(o > 0.0, "the OSDP job must promote");
    assert!(h <= 2.0 * o, "HWDP promoted {h} pages against OSDP's {o}");
}

/// A read-only job never writes to a page on the fast tier, so every page
/// the daemon demotes still has its bytes on its home block: demotions
/// commit with no copy, and the slow tier is never written.
#[test]
fn read_only_jobs_demote_without_copying() {
    for mode in [Mode::Osdp, Mode::Hwdp] {
        let result = simulate(&lru_tiered(mode));
        assert!(metric(&result, "tier/demotions") > 0.0, "{mode:?}: the job must demote");
        assert_eq!(metric(&result, "tier/slow_writes"), 0.0, "{mode:?}: a demotion copied");
        assert_eq!(metric(&result, "verify_failures"), 0.0, "{mode:?}");
    }
}
