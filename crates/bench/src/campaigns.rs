//! Harness campaigns behind the repro figures, and the [`Scale`] every
//! figure runs at.
//!
//! The simulated tables build their runs as harness jobs from
//! `scale_grid`, so the harness runner alone turns a figure's
//! configuration into a system; the four runs a job cannot express say
//! why where they build one. Figures with many runs execute as
//! [`Campaign`]s on a worker pool with `fixed_seed` (every job gets the
//! scale's master seed), so worker count only changes wall time.

use hwdp_core::Mode;
use hwdp_harness::{
    execute_campaign, progress::Silent, Artifact, Campaign, DeviceKind, Grid, PolicyKind,
    Scenario, SmtPartner, TierSpec,
};
use hwdp_sim::time::Duration;
use hwdp_workloads::YcsbKind;

use crate::figures::THREADS;

/// Experiment scale knobs.
///
/// All figures preserve the paper's dataset:memory *ratios* (§VI runs
/// 64 GiB datasets against 32 GiB DRAM, i.e. 2:1) at simulation-friendly
/// absolute sizes. `Scale::default()` is used by `repro`; the Criterion
/// wrappers use `Scale::quick()`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Simulated DRAM in 4 KiB frames.
    pub memory_frames: usize,
    /// Operations per workload thread.
    pub ops_per_thread: u64,
    /// Virtual-time cap per run.
    pub time_cap: Duration,
    /// Master seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            memory_frames: 1024,
            ops_per_thread: 1_500,
            time_cap: Duration::from_secs(30),
            seed: 0xD15C,
        }
    }
}

impl Scale {
    /// A fast configuration for Criterion wrappers and smoke tests.
    pub fn quick() -> Self {
        Scale { memory_frames: 512, ops_per_thread: 300, ..Scale::default() }
    }

    /// Dataset size in pages for a given dataset:memory ratio.
    pub fn dataset_pages(&self, ratio: f64) -> u64 {
        ((self.memory_frames as f64) * ratio) as u64
    }
}

/// Fig. 13's x-axis as harness scenarios (FIO, DBBench, YCSB A–F).
pub const FIG13_SCENARIOS: [Scenario; 8] = [
    Scenario::FioRand,
    Scenario::DbBench,
    Scenario::Ycsb(YcsbKind::A),
    Scenario::Ycsb(YcsbKind::B),
    Scenario::Ycsb(YcsbKind::C),
    Scenario::Ycsb(YcsbKind::D),
    Scenario::Ycsb(YcsbKind::E),
    Scenario::Ycsb(YcsbKind::F),
];

/// Worker-pool size for figure campaigns: the machine's parallelism,
/// capped — figure jobs are short, and results don't depend on this.
// Pool sizing only; artifacts are byte-identical for any worker count.
#[allow(clippy::disallowed_methods)]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// A grid preconfigured from `scale`: its sizing, its time cap, and
/// fixed-seed mode (every job runs on `scale.seed`).
pub(crate) fn scale_grid(name: &str, scale: &Scale) -> Grid {
    Grid::new(name, scale.seed)
        .memory_frames(scale.memory_frames)
        .ops(scale.ops_per_thread)
        .time_cap_ms(scale.time_cap.as_millis_f64() as u64)
        .fixed_seed()
}

/// Fig. 12: FIO latency, OSDP vs HWDP, across thread counts (dataset
/// 8:1).
pub fn fig12_campaign(scale: &Scale) -> Campaign {
    scale_grid("fig12", scale)
        .scenarios([Scenario::FioRand])
        .modes([Mode::Osdp, Mode::Hwdp])
        .threads(THREADS)
        .ratios([8.0])
        .expand()
}

/// Fig. 13: throughput across all eight workloads, both modes, all
/// thread counts (dataset 2:1).
pub fn fig13_campaign(scale: &Scale) -> Campaign {
    scale_grid("fig13", scale)
        .scenarios(FIG13_SCENARIOS)
        .modes([Mode::Osdp, Mode::Hwdp])
        .threads(THREADS)
        .ratios([2.0])
        .expand()
}

/// Shared Fig. 14/15 grid: YCSB-C at 4 threads, dataset 2:1, both modes.
/// The two figures are the user-level and kernel-level views of the same
/// pair of runs.
fn ycsb_4t_grid(name: &str, scale: &Scale) -> Grid {
    scale_grid(name, scale)
        .scenarios([Scenario::Ycsb(YcsbKind::C)])
        .modes([Mode::Osdp, Mode::Hwdp])
        .threads([4])
        .ratios([2.0])
}

/// Fig. 14: YCSB-C throughput, user IPC and user-level miss events,
/// OSDP vs HWDP.
pub fn fig14_campaign(scale: &Scale) -> Campaign {
    ycsb_4t_grid("fig14", scale).expand()
}

/// Fig. 15: kernel-level retired instructions and cycles for the same
/// YCSB-C pair.
pub fn fig15_campaign(scale: &Scale) -> Campaign {
    ycsb_4t_grid("fig15", scale).expand()
}

/// Fig. 16: the SMT co-run — FIO pinned to hardware context 0, each SPEC
/// kernel on context 1 of the same physical core, a 20 ms window, both
/// modes.
///
/// FIO ops are effectively unbounded: `1 << 62`, because a value such as
/// `u64::MAX / 2` is not exactly representable as f64 and would drift
/// through the JSON round-trip; the window ends the run long before that
/// bound. `kpted` keeps the builder-default 20 ms period.
pub fn fig16_campaign(scale: &Scale) -> Campaign {
    scale_grid("fig16", scale)
        .scenarios(SmtPartner::ALL.map(Scenario::SmtCorun))
        .modes([Mode::Osdp, Mode::Hwdp])
        .threads([1])
        .ratios([8.0])
        .pin(0)
        .ops(1 << 62)
        .time_cap_ms(20)
        .tweak(|j| j.kpted_period_us = 20_000)
        .expand()
}

/// Tiered storage: YCSB-C's zipfian accesses over a dataset 4x memory,
/// homed on a slow Z-SSD capacity tier with a small Optane-PMM fast
/// tier, OSDP vs HWDP for every placement policy.
///
/// The skew concentrates recurrent demand misses on a hot subset of the
/// dataset (the working set exceeds both DRAM and the fast tier), so
/// the migration daemon's promotions should raise the fast-hit ratio as
/// the run progresses — the late-half ratio exceeding the early-half
/// ratio is the campaign's headline signal.
pub fn tier_campaign(scale: &Scale) -> Campaign {
    let mut jobs = Vec::new();
    for policy in PolicyKind::ALL {
        // The daemon period doubles as the hotness epoch (heat halves per
        // tick). At the 150 us default an epoch sees well under one device
        // read per page and threshold heat never accumulates; 5 ms epochs
        // let the zipfian hot set cross the bar while still giving the
        // campaign's runs dozens of migration rounds.
        let spec = TierSpec {
            policy,
            period_us: 5_000,
            ..TierSpec::new(DeviceKind::OptanePmm, DeviceKind::ZSsd)
        };
        let grid = scale_grid("tier", scale)
            .scenarios([Scenario::Ycsb(YcsbKind::C)])
            .modes([Mode::Osdp, Mode::Hwdp])
            .threads([2])
            .ratios([4.0])
            .tiers(spec);
        jobs.extend(grid.expand().jobs);
    }
    Campaign { name: "tier".into(), seed: scale.seed, jobs }
}

/// Fig. 17: closed-form single-fault anatomy, SW-only vs HWDP, across
/// the three device profiles.
pub fn fig17_campaign() -> Campaign {
    Grid::new("fig17", 0)
        .scenarios([Scenario::Anatomy])
        .modes([Mode::SwOnly, Mode::Hwdp])
        .devices([DeviceKind::ZSsd, DeviceKind::OptaneSsd, DeviceKind::OptanePmm])
        .expand()
}

/// Figure-campaign results with metric lookup by configuration.
pub struct CampaignResults {
    artifact: Artifact,
}

impl CampaignResults {
    /// Executes `campaign` on `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if any job fails — figure inputs must be complete.
    #[allow(clippy::panic)] // documented under `# Panics`
    pub fn collect(campaign: &Campaign, workers: usize) -> CampaignResults {
        let artifact = execute_campaign(campaign, workers, &mut Silent);
        if let Some(job) = artifact.jobs.iter().find(|j| !j.is_ok()) {
            panic!("figure job {} failed: {:?}", job.spec.label(), job.status);
        }
        CampaignResults { artifact }
    }

    /// The named metric of the unique job matching `predicate`.
    ///
    /// # Panics
    ///
    /// Panics when no job matches or the metric is absent — a figure
    /// querying a job outside its own campaign is a bug.
    #[allow(clippy::panic)] // documented under `# Panics`
    pub fn metric(
        &self,
        name: &str,
        predicate: impl Fn(&hwdp_harness::JobSpec) -> bool,
    ) -> f64 {
        let job = self
            .artifact
            .jobs
            .iter()
            .find(|j| predicate(&j.spec))
            .unwrap_or_else(|| panic!("no job in '{}' matches", self.artifact.campaign));
        job.metric(name)
            .unwrap_or_else(|| panic!("job {} has no metric '{name}'", job.spec.label()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwdp_harness::runner::run_job;

    #[test]
    fn campaign_sizes() {
        let scale = Scale::quick();
        assert_eq!(fig12_campaign(&scale).jobs.len(), 2 * THREADS.len());
        assert_eq!(fig13_campaign(&scale).jobs.len(), 8 * 2 * THREADS.len());
        assert_eq!(fig14_campaign(&scale).jobs.len(), 2);
        assert_eq!(fig15_campaign(&scale).jobs.len(), 2);
        assert_eq!(fig16_campaign(&scale).jobs.len(), 6 * 2);
        assert_eq!(fig17_campaign().jobs.len(), 2 * 3);
        assert_eq!(tier_campaign(&scale).jobs.len(), PolicyKind::ALL.len() * 2);
    }

    #[test]
    fn tier_campaign_promotes_hot_pages_and_fast_hit_ratio_rises() {
        let scale = Scale { memory_frames: 128, ops_per_thread: 1500, ..Scale::quick() };
        let campaign = tier_campaign(&scale);
        let job = campaign
            .jobs
            .iter()
            .find(|j| {
                j.mode == Mode::Hwdp
                    && j.tiers.map(|t| t.policy) == Some(PolicyKind::Threshold)
            })
            .unwrap();
        let metrics = run_job(job);
        let get = |n: &str| metrics.iter().find(|(k, _)| k == n).unwrap().1;
        assert!(get("tier/promotions") > 0.0, "daemon never promoted a hot page");
        assert!(
            get("tier/fast_hit_ratio_late") > get("tier/fast_hit_ratio_early"),
            "fast-hit ratio did not rise: early {} late {}",
            get("tier/fast_hit_ratio_early"),
            get("tier/fast_hit_ratio_late")
        );
        assert!(get("tier/fast_reads") > 0.0, "fast tier never serviced a miss");
    }

    #[test]
    fn results_lookup_panics_on_missing_job() {
        let results = CampaignResults::collect(&fig17_campaign(), 2);
        let total = results.metric("anatomy_total_ns", |s| {
            s.mode == Mode::Hwdp && s.device == DeviceKind::ZSsd
        });
        assert!(total > 0.0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            results.metric("anatomy_total_ns", |s| s.mode == Mode::Osdp)
        }));
        assert!(r.is_err(), "OSDP is not part of fig17");
    }
}
