//! The end-of-run content digest is observation-only and pinned.
//!
//! Campaigns run `runner::simulate`, which skips the whole-dataset hash;
//! only the chaos oracle calls `runner::simulate_with_digest`. These tests
//! hold both halves of that split: skipping the digest never changes a
//! simulated result, and the digest itself (page-pattern expansion,
//! checksums, the FNV fold over file pages) stays bit-identical. Every
//! YCSB kind's exported results are pinned bit for bit as well.

use hwdp_core::{Mode, RunResult};
use hwdp_harness::runner::{simulate, simulate_with_digest};
use hwdp_harness::{JobSpec, Scenario, TierSpec};
use hwdp_nvme::fault::FaultConfig;
use hwdp_sim::dist::fnv1a_u64;
use hwdp_workloads::YcsbKind;

/// Read-only fio, two threads, twice as much data as memory.
fn fio() -> JobSpec {
    let mut spec = JobSpec::new(Scenario::FioRand, Mode::Hwdp, 0xD16E57);
    spec.memory_frames = 128;
    spec.threads = 2;
    spec.ops = 300;
    spec
}

/// YCSB-A (50 % updates) under OSDP with a 4× dataset: dirty pages get
/// evicted, so the digest covers written-back device blocks as well as
/// dirty page-cache copies.
fn ycsb_a() -> JobSpec {
    let mut spec = JobSpec::new(Scenario::Ycsb(YcsbKind::A), Mode::Osdp, 0xA11CE);
    spec.memory_frames = 128;
    spec.ratio = 4.0;
    spec.ops = 600;
    spec
}

/// YCSB-C over a Z-SSD capacity tier with an Optane-PMM fast tier.
fn tiered() -> JobSpec {
    tiered_with("lru")
}

/// [`tiered`] under the named placement policy.
fn tiered_with(policy: &str) -> JobSpec {
    let mut spec = JobSpec::new(Scenario::Ycsb(YcsbKind::C), Mode::Hwdp, 0x71E2);
    spec.memory_frames = 128;
    spec.ratio = 4.0;
    spec.ops = 400;
    let tiers = format!("fast:pmm,slow:zssd,policy:{policy}");
    spec.tiers = Some(TierSpec::parse(&tiers).expect("valid tiers"));
    spec
}

/// fio under an all-class device fault plan with a controller crash.
fn faulted() -> JobSpec {
    let mut spec = fio();
    let plan = "media=0.1,persistent=0.2,delay=0.05x50,drop=0.05,qfull=0.05x4,crash=500x1,reset=100";
    spec.faults = Some(FaultConfig::parse(plan).expect("valid fault plan"));
    spec
}

fn metric(result: &RunResult, name: &str) -> f64 {
    result.export_metrics().into_iter().find(|(k, _)| *k == name).map_or(0.0, |(_, v)| v)
}

/// Every exported value, aggregate and per thread, compared bit for bit.
fn exported(result: &RunResult) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> =
        result.export_metrics().into_iter().map(|(k, v)| (k.to_string(), v.to_bits())).collect();
    for (i, t) in result.threads.iter().enumerate() {
        let per_thread = t.export_metrics().into_iter();
        out.extend(per_thread.map(|(k, v)| (format!("thread/{i}/{k}"), v.to_bits())));
    }
    out
}

/// FNV fold of [`exported`]: every name and every value bit.
fn fingerprint(result: &RunResult) -> u64 {
    exported(result).iter().fold(0, |h, (name, bits)| {
        let h = name.bytes().fold(h, |h, b| fnv1a_u64(h ^ u64::from(b)));
        fnv1a_u64(h ^ bits)
    })
}

#[test]
fn content_digest_matches_pinned_values() {
    let (a, a_digest) = simulate_with_digest(&ycsb_a());
    assert!(metric(&a, "evictions") > 0.0, "the YCSB-A case must evict");
    assert!(metric(&a, "writebacks") > 0.0, "the YCSB-A case must write back");
    let (t, t_digest) = simulate_with_digest(&tiered());
    assert!(metric(&t, "tier/promotions") > 0.0, "the tiered case must migrate");
    let digests = [simulate_with_digest(&fio()).1, a_digest, t_digest];
    assert_eq!(
        digests.map(|d| format!("{d:#018x}")),
        ["0x81d8475753c9041a", "0xd8dcb6a0e467d4d9", "0x4985c17f5b35531e"],
        "the content digest changed: page contents, checksums or the digest fold drifted"
    );
}

#[test]
fn skipping_the_digest_never_changes_a_result() {
    let crashed = simulate(&faulted());
    assert!(metric(&crashed, "io_retries") > 0.0, "the faulted case must retry");
    assert!(metric(&crashed, "fault/controller_resets") > 0.0, "the faulted case must reset");
    let specs = [("fio", fio()), ("ycsb-a", ycsb_a()), ("tiered", tiered()), ("faulted", faulted())];
    for (name, spec) in specs {
        let plain = simulate(&spec);
        let (digested, _) = simulate_with_digest(&spec);
        assert_eq!(exported(&plain), exported(&digested), "{name}: the digest changed a result");
    }
}

/// Every YCSB kind under both modes, two threads each, pinned bit for bit,
/// so a drift in the key sampler shows here. YCSB-D runs enough
/// operations that its ~5 % inserts grow the store past its initial
/// records, so the latest distribution's `grow_to` path is covered.
#[test]
fn every_ycsb_kind_matches_pinned_results() {
    let mut prints = Vec::new();
    for kind in YcsbKind::ALL {
        for mode in [Mode::Osdp, Mode::Hwdp] {
            let mut spec = JobSpec::new(Scenario::Ycsb(kind), mode, 0x5C5B);
            spec.memory_frames = 128;
            spec.ratio = 2.0;
            spec.threads = 2;
            spec.ops = 400;
            let result = simulate(&spec);
            assert_eq!(metric(&result, "verify_failures"), 0.0, "{}", spec.label());
            if kind == YcsbKind::D {
                // D writes only by inserting, so a write-back is an insert.
                assert!(metric(&result, "writebacks") > 0.0, "{}: D must insert", spec.label());
            }
            prints.push(format!("{} {:#018x}", spec.label(), fingerprint(&result)));
        }
    }
    let expected = [
        "ycsb-a/OSDP/zssd t=2 r=2 0xae1664bec2873d4f",
        "ycsb-a/HWDP/zssd t=2 r=2 0x5eda3bd6aca2f473",
        "ycsb-b/OSDP/zssd t=2 r=2 0x8764d9863aa7ab94",
        "ycsb-b/HWDP/zssd t=2 r=2 0x9d346b0c9d8cf4fb",
        "ycsb-c/OSDP/zssd t=2 r=2 0x5bef1a22d0d4cee0",
        "ycsb-c/HWDP/zssd t=2 r=2 0x5eecc96fd33fb73d",
        "ycsb-d/OSDP/zssd t=2 r=2 0x68ad127358cd807e",
        "ycsb-d/HWDP/zssd t=2 r=2 0xbe2988cfeeb4844d",
        "ycsb-e/OSDP/zssd t=2 r=2 0x9f4550c7c5c1b8a3",
        "ycsb-e/HWDP/zssd t=2 r=2 0x51f8759737392ba2",
        "ycsb-f/OSDP/zssd t=2 r=2 0x0bd2191ac91a543e",
        "ycsb-f/HWDP/zssd t=2 r=2 0x0ddbe0ff6a10f0f1",
    ];
    assert_eq!(prints, expected, "a YCSB result drifted");
}

/// [`tiered_with`] squeezed to 16 frames under four threads. With 128
/// frames a page is rarely read twice from the device inside an epoch, so
/// the default (threshold) policy promotes nothing in [`tiered`]'s job
/// and matches the static policy bit for bit; here it promotes and
/// demotes on most ticks.
fn tiered_under_pressure(policy: &str) -> JobSpec {
    let mut spec = tiered_with(policy);
    spec.memory_frames = 16;
    spec.threads = 4;
    spec
}

/// The tier planner under its default and its control policy, and the
/// recovery ladder under every fault class plus a controller crash (the
/// one pinned job whose watchdog sweep runs), pinned bit for bit.
#[test]
fn tiered_and_faulted_results_match_pinned_values() {
    let threshold = simulate(&tiered_with("threshold"));
    assert!(metric(&threshold, "tier/slow_hits") > 0.0, "the threshold case must track reads");
    let fixed = simulate(&tiered_with("static"));
    assert_eq!(metric(&fixed, "tier/promotions"), 0.0, "the static case never migrates");
    let pressed = simulate(&tiered_under_pressure("threshold"));
    assert!(metric(&pressed, "tier/promotions") > 0.0, "the pressed case must promote");
    assert!(metric(&pressed, "tier/demotions") > 0.0, "the pressed case must demote");
    let crashed = simulate(&faulted());
    assert!(metric(&crashed, "fault/controller_resets") > 0.0, "the faulted case must reset");
    let prints = [threshold, fixed, pressed, crashed].map(|r| format!("{:#018x}", fingerprint(&r)));
    assert_eq!(
        prints,
        ["0x0205cd984832a01e", "0x0205cd984832a01e", "0xa3c8989cebc6f498", "0x542663cca8d65be7"],
        "a tiered or faulted result drifted"
    );
}
