//! End-to-end tests of the experiment-orchestration subsystem through the
//! facade: campaign determinism across worker counts, artifact round-trips,
//! regression gating, and panic isolation.

use hwdp::core::Mode;
use hwdp::harness::{
    compare::{compare, Thresholds},
    execute_campaign,
    executor::execute_with,
    progress::{Counting, Silent},
    Artifact, Campaign, Grid, JobOutcome, Scenario,
};

/// A 16-job campaign small enough for CI: 2 scenarios × 2 modes ×
/// 2 thread counts × 2 ratios.
fn smoke_campaign(name: &str) -> Campaign {
    Grid::new(name, 42)
        .scenarios([Scenario::FioRand, Scenario::Ycsb(hwdp::workloads::YcsbKind::C)])
        .modes([Mode::Osdp, Mode::Hwdp])
        .threads([1, 2])
        .ratios([2.0, 4.0])
        .memory_frames(256)
        .ops(150)
        .expand()
}

#[test]
fn campaign_artifact_is_identical_for_1_and_4_workers() {
    let campaign = smoke_campaign("determinism");
    assert_eq!(campaign.jobs.len(), 16);
    let serial = execute_campaign(&campaign, 1, &mut Silent);
    let pooled = execute_campaign(&campaign, 4, &mut Silent);
    assert!(serial.jobs.iter().all(|j| j.is_ok()));
    // Byte-identical modulo the wall-time fields, which canonical form
    // zeroes.
    assert_eq!(serial.canonical_string(), pooled.canonical_string());
}

#[test]
fn artifact_survives_json_round_trip() {
    let campaign = Grid::new("roundtrip", 7)
        .scenarios([Scenario::Anatomy])
        .modes([Mode::Osdp, Mode::Hwdp, Mode::SwOnly])
        .expand();
    let artifact = execute_campaign(&campaign, 2, &mut Silent);
    let parsed = Artifact::parse(&artifact.to_json_string()).expect("valid artifact JSON");
    assert_eq!(parsed, artifact);
    assert_eq!(parsed.file_name(), "BENCH_roundtrip.json");
}

#[test]
fn self_comparison_passes_and_injected_regression_gates() {
    let campaign = Grid::new("gate", 11)
        .scenarios([Scenario::FioRand])
        .modes([Mode::Osdp, Mode::Hwdp])
        .memory_frames(192)
        .ops(100)
        .expand();
    let baseline = execute_campaign(&campaign, 2, &mut Silent);
    let report = compare(&baseline, &baseline.clone(), &Thresholds::default());
    assert!(report.passed(), "self-comparison must pass:\n{}", report.render());
    assert_eq!(report.matched_jobs, 2);

    // Inject a 20 % throughput regression into one job.
    let mut regressed = baseline.clone();
    for (name, value) in &mut regressed.jobs[0].metrics {
        if name == "throughput_ops_s" {
            *value *= 0.8;
        }
    }
    let report = compare(&baseline, &regressed, &Thresholds::default());
    assert!(!report.passed(), "20%% drop must gate");
    assert!(report.regressions.iter().any(|r| r.metric == "throughput_ops_s"));
    assert!(report.render().contains("FAIL"));
}

#[test]
fn hwdp_beats_osdp_throughput_in_smoke_campaign() {
    // The paper's headline result must survive the harness path: for each
    // FIO configuration, HWDP throughput exceeds OSDP's.
    let artifact = execute_campaign(&smoke_campaign("headline"), 4, &mut Silent);
    let tput = |mode: Mode, threads: usize, ratio: f64| {
        artifact
            .jobs
            .iter()
            .find(|j| {
                j.spec.scenario == Scenario::FioRand
                    && j.spec.mode == mode
                    && j.spec.threads == threads
                    && j.spec.ratio == ratio
            })
            .and_then(|j| j.metric("throughput_ops_s"))
            .expect("job present")
    };
    for threads in [1, 2] {
        for ratio in [2.0, 4.0] {
            assert!(
                tput(Mode::Hwdp, threads, ratio) > tput(Mode::Osdp, threads, ratio),
                "HWDP should win at t={threads} r={ratio}"
            );
        }
    }
}

#[test]
fn panicking_jobs_fail_without_crashing_the_campaign() {
    let campaign = smoke_campaign("panic-isolation");
    let mut progress = Counting::default();
    let results = execute_with(&campaign, 4, &mut progress, |spec| {
        assert!(spec.mode != Mode::Osdp, "injected failure for OSDP jobs");
        vec![("ok".to_string(), 1.0)]
    });
    let failed = results.iter().filter(|(o, _)| matches!(o, JobOutcome::Panicked(_))).count();
    assert_eq!(failed, 8, "all 8 OSDP jobs fail, 8 HWDP jobs survive");
    assert_eq!(progress.finished, 16);
    assert_eq!(progress.failed, 8);
    // And the artifact records the failures without losing the others.
    let artifact = Artifact::from_owned_outcomes(&campaign, results);
    assert_eq!(artifact.jobs.iter().filter(|j| j.is_ok()).count(), 8);
    let parsed = Artifact::parse(&artifact.to_json_string()).unwrap();
    assert_eq!(parsed, artifact);
}
