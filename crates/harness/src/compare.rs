//! Baseline comparison and regression gating.
//!
//! Jobs are matched between a baseline artifact and a current artifact by
//! configuration (not index), then gate metrics are compared with
//! direction-aware relative thresholds: a drop in a higher-is-better
//! metric (throughput, IPC) or a rise in a lower-is-better metric
//! (latency, instruction counts) beyond the threshold is a regression.

use crate::artifact::Artifact;
use crate::spec::JobSpec;

/// Comparison thresholds.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Maximum tolerated relative change in the bad direction
    /// (0.05 = 5 %).
    pub relative: f64,
    /// Ignore absolute changes smaller than this (filters noise on
    /// near-zero metrics like stall counts).
    pub absolute: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds { relative: 0.05, absolute: 1e-9 }
    }
}

/// Which way a metric is "good".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Bigger is better (throughput, IPC).
    HigherBetter,
    /// Smaller is better (latency, faults, instructions).
    LowerBetter,
    /// Bigger is better, but the metric is wall-clock dependent (machine
    /// noise, not simulated behaviour), so it reports as advisory and
    /// never gates.
    AdvisoryHigherBetter,
    /// Config echo or neutral count; never gates.
    Informational,
}

/// Classifies a metric name into a comparison direction.
///
/// Unknown metrics are informational — the gate only acts on metrics it
/// understands, so adding new exports can't spuriously fail CI.
pub fn direction(name: &str) -> Direction {
    // Namespaced keys never gate directly: `sanitize/...` violation
    // counts gate the sweep itself, `thread/...` detail is covered by the
    // aggregates, and `<metric>/stddev` + `<metric>/ci95` spread keys feed
    // the CI-overlap test on their base metric instead.
    if name.contains('/') {
        return Direction::Informational;
    }
    match name {
        // Scheduler throughput (the opt-in `--throughput` export)
        // divides a deterministic event count by measured wall time:
        // direction-aware for reporting, but never a CI gate.
        "events_per_sec" => Direction::AdvisoryHigherBetter,
        "throughput_ops_s" | "user_ipc" => Direction::HigherBetter,
        "verify_failures"
        | "sync_refill_faults"
        | "pmshr_stalls"
        | "minor_faults"
        | "major_faults"
        | "user_instructions"
        | "kernel_instructions"
        | "user_cycles"
        | "kernel_cycles"
        | "app_kernel_instr"
        | "kpted_instr"
        | "kpoold_instr" => Direction::LowerBetter,
        n if n.starts_with("anatomy_") && n.ends_with("_ns") => Direction::LowerBetter,
        n if n.contains("_lat_") && !n.ends_with("_count") => Direction::LowerBetter,
        _ => Direction::Informational,
    }
}

/// One metric that moved beyond threshold in the bad direction.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Label of the affected job.
    pub job: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed relative change (`(current - baseline) / |baseline|`).
    pub change: f64,
}

/// The outcome of comparing two artifacts.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Jobs present in both artifacts and compared.
    pub matched_jobs: usize,
    /// Baseline jobs with no counterpart in the current artifact.
    pub missing_jobs: Vec<String>,
    /// Current jobs that failed (panicked) — always gate.
    pub failed_jobs: Vec<String>,
    /// Metrics that regressed beyond threshold.
    pub regressions: Vec<Regression>,
    /// Metrics that improved beyond threshold (informational).
    pub improvements: Vec<Regression>,
    /// Advisory metrics (wall-clock dependent, e.g. `events_per_sec`)
    /// that moved beyond threshold in either direction; never gate.
    pub advisories: Vec<Regression>,
}

impl CompareReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing_jobs.is_empty() && self.failed_jobs.is_empty()
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("compared {} job(s)\n", self.matched_jobs));
        for j in &self.missing_jobs {
            out.push_str(&format!("MISSING  {j}: baseline job absent from current artifact\n"));
        }
        for j in &self.failed_jobs {
            out.push_str(&format!("FAILED   {j}: job did not complete\n"));
        }
        for r in &self.regressions {
            out.push_str(&format!(
                "REGRESS  {}: {} {} -> {} ({:+.1}%)\n",
                r.job,
                r.metric,
                fmt(r.baseline),
                fmt(r.current),
                r.change * 100.0
            ));
        }
        for r in &self.improvements {
            out.push_str(&format!(
                "improve  {}: {} {} -> {} ({:+.1}%)\n",
                r.job,
                r.metric,
                fmt(r.baseline),
                fmt(r.current),
                r.change * 100.0
            ));
        }
        for r in &self.advisories {
            out.push_str(&format!(
                "advisory {}: {} {} -> {} ({:+.1}%)\n",
                r.job,
                r.metric,
                fmt(r.baseline),
                fmt(r.current),
                r.change * 100.0
            ));
        }
        out.push_str(if self.passed() { "PASS\n" } else { "FAIL\n" });
        out
    }
}

fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Key used to match jobs across artifacts: the full config minus the
/// derived seed (which legitimately differs if grid axes were reordered).
fn match_key(spec: &JobSpec) -> String {
    format!(
        "{}|{}|{}|t{}|p{:?}|x{}|r{}|m{}|o{}|{:?}|{:?}|{}|{:?}|k{}|ra{}|sp{}|{}|{:?}|c{}",
        spec.scenario.name(),
        spec.mode.label(),
        spec.device.name(),
        spec.threads,
        spec.pin,
        spec.effective_repeats(),
        spec.ratio,
        spec.memory_frames,
        spec.ops,
        spec.pmshr_entries,
        spec.free_queue_depth,
        spec.kpoold_enabled,
        spec.kpoold_period_us,
        spec.kpted_period_us,
        spec.readahead_pages,
        spec.smu_prefetch_pages,
        spec.per_core_free_queues,
        spec.long_io_timeout_us,
        spec.time_cap_ms,
    )
}

/// Compares `current` against `baseline`.
pub fn compare(baseline: &Artifact, current: &Artifact, thresholds: &Thresholds) -> CompareReport {
    let mut report = CompareReport::default();
    for base_job in &baseline.jobs {
        let key = match_key(&base_job.spec);
        let Some(cur_job) = current.jobs.iter().find(|j| match_key(&j.spec) == key) else {
            report.missing_jobs.push(base_job.spec.label());
            continue;
        };
        if !cur_job.is_ok() {
            report.failed_jobs.push(cur_job.spec.label());
            continue;
        }
        if !base_job.is_ok() {
            // A job that failed at baseline-capture time has nothing to
            // gate against; its current success is the improvement.
            continue;
        }
        report.matched_jobs += 1;
        for (name, base_val) in &base_job.metrics {
            let dir = direction(name);
            if dir == Direction::Informational {
                continue;
            }
            let Some(cur_val) = cur_job.metric(name) else { continue };
            let delta = cur_val - base_val;
            if delta.abs() <= thresholds.absolute {
                continue;
            }
            let rel = if *base_val != 0.0 {
                delta / base_val.abs()
            } else {
                // From exactly zero, any growth is infinite relative
                // change; treat as 100 %.
                1.0_f64.copysign(delta)
            };
            // Jobs run with repeats > 1 carry a `<metric>/ci95` key per
            // metric; when either side has one, statistical overlap
            // replaces the raw relative threshold: non-overlapping 95 %
            // intervals are a significant change (whatever its size),
            // overlapping intervals are within noise (whatever the delta).
            let ci_key = format!("{name}/ci95");
            let base_ci = base_job.metric(&ci_key);
            let cur_ci = cur_job.metric(&ci_key);
            if base_ci.is_some() || cur_ci.is_some() {
                let bci = base_ci.unwrap_or(0.0);
                let cci = cur_ci.unwrap_or(0.0);
                let overlap = base_val - bci <= cur_val + cci && cur_val - cci <= base_val + bci;
                if overlap {
                    continue;
                }
            } else if rel.abs() <= thresholds.relative {
                continue;
            }
            let bad = match dir {
                Direction::HigherBetter => rel < 0.0,
                Direction::LowerBetter => rel > 0.0,
                Direction::AdvisoryHigherBetter | Direction::Informational => false,
            };
            let entry = Regression {
                job: cur_job.spec.label(),
                metric: name.clone(),
                baseline: *base_val,
                current: cur_val,
                change: rel,
            };
            if dir == Direction::AdvisoryHigherBetter {
                report.advisories.push(entry);
            } else if bad {
                report.regressions.push(entry);
            } else {
                report.improvements.push(entry);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{JobRecord, JobStatus};
    use crate::spec::Scenario;
    use hwdp_core::Mode;

    fn artifact(metrics: Vec<(&str, f64)>) -> Artifact {
        Artifact {
            campaign: "t".into(),
            seed: 1,
            jobs: vec![JobRecord {
                index: 0,
                spec: JobSpec::new(Scenario::FioRand, Mode::Hwdp, 5),
                status: JobStatus::Ok,
                metrics: metrics.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
                wall_ms: 1.0,
            }],
        }
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact(vec![("throughput_ops_s", 1000.0), ("miss_lat_mean_ns", 500.0)]);
        let report = compare(&a, &a.clone(), &Thresholds::default());
        assert!(report.passed());
        assert_eq!(report.matched_jobs, 1);
    }

    #[test]
    fn throughput_drop_is_a_regression() {
        let base = artifact(vec![("throughput_ops_s", 1000.0)]);
        let cur = artifact(vec![("throughput_ops_s", 900.0)]);
        let report = compare(&base, &cur, &Thresholds::default());
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert!((report.regressions[0].change + 0.1).abs() < 1e-9);
    }

    #[test]
    fn latency_rise_is_a_regression_but_drop_is_improvement() {
        let base = artifact(vec![("miss_lat_mean_ns", 500.0)]);
        let worse = artifact(vec![("miss_lat_mean_ns", 600.0)]);
        let better = artifact(vec![("miss_lat_mean_ns", 400.0)]);
        assert!(!compare(&base, &worse, &Thresholds::default()).passed());
        let r = compare(&base, &better, &Thresholds::default());
        assert!(r.passed());
        assert_eq!(r.improvements.len(), 1);
    }

    #[test]
    fn small_changes_within_threshold_pass() {
        let base = artifact(vec![("throughput_ops_s", 1000.0)]);
        let cur = artifact(vec![("throughput_ops_s", 970.0)]); // -3% < 5%
        assert!(compare(&base, &cur, &Thresholds::default()).passed());
        // But a tighter threshold catches it.
        let tight = Thresholds { relative: 0.01, absolute: 1e-9 };
        assert!(!compare(&base, &cur, &tight).passed());
    }

    #[test]
    fn informational_metrics_never_gate() {
        let base = artifact(vec![("ops", 100.0), ("smu_coalesced", 5.0)]);
        let cur = artifact(vec![("ops", 9.0), ("smu_coalesced", 500.0)]);
        assert!(compare(&base, &cur, &Thresholds::default()).passed());
    }

    #[test]
    fn events_per_sec_is_advisory_and_never_gates() {
        // A 10x collapse in scheduler throughput is machine noise as far
        // as CI is concerned: reported as advisory, never a failure.
        let base = artifact(vec![("events_per_sec", 1_000_000.0), ("events_processed", 5000.0)]);
        let cur = artifact(vec![("events_per_sec", 100_000.0), ("events_processed", 5000.0)]);
        let report = compare(&base, &cur, &Thresholds::default());
        assert!(report.passed(), "wall-clock throughput must never gate");
        assert!(report.regressions.is_empty());
        assert_eq!(report.advisories.len(), 1);
        assert_eq!(report.advisories[0].metric, "events_per_sec");
        assert!(report.advisories[0].change < 0.0, "direction-aware: this one dropped");
        let text = report.render();
        assert!(text.contains("advisory"));
        assert!(text.contains("PASS"));
        // The raw event count is a deterministic config echo: informational.
        assert_eq!(direction("events_processed"), Direction::Informational);
    }

    #[test]
    fn growth_from_zero_regresses() {
        let base = artifact(vec![("verify_failures", 0.0)]);
        let cur = artifact(vec![("verify_failures", 2.0)]);
        assert!(!compare(&base, &cur, &Thresholds::default()).passed());
    }

    #[test]
    fn failed_current_job_gates() {
        let base = artifact(vec![("throughput_ops_s", 1000.0)]);
        let mut cur = base.clone();
        cur.jobs[0].status = JobStatus::Failed("panic".into());
        let report = compare(&base, &cur, &Thresholds::default());
        assert!(!report.passed());
        assert_eq!(report.failed_jobs.len(), 1);
    }

    #[test]
    fn missing_job_gates() {
        let base = artifact(vec![("throughput_ops_s", 1000.0)]);
        let mut cur = base.clone();
        cur.jobs.clear();
        assert!(!compare(&base, &cur, &Thresholds::default()).passed());
    }

    #[test]
    fn matching_ignores_derived_seed() {
        let base = artifact(vec![("throughput_ops_s", 1000.0)]);
        let mut cur = base.clone();
        cur.jobs[0].spec.seed = 0xFFFF;
        cur.jobs[0].metrics[0].1 = 1001.0;
        assert!(compare(&base, &cur, &Thresholds::default()).passed());
    }

    #[test]
    fn render_mentions_verdict() {
        let base = artifact(vec![("user_ipc", 2.0)]);
        let cur = artifact(vec![("user_ipc", 1.0)]);
        let text = compare(&base, &cur, &Thresholds::default()).render();
        assert!(text.contains("REGRESS"));
        assert!(text.contains("FAIL"));
        let ok = compare(&base, &base.clone(), &Thresholds::default()).render();
        assert!(ok.contains("PASS"));
    }

    #[test]
    fn direction_classification() {
        assert_eq!(direction("throughput_ops_s"), Direction::HigherBetter);
        assert_eq!(direction("miss_lat_p99_ns"), Direction::LowerBetter);
        assert_eq!(direction("miss_lat_count"), Direction::Informational);
        assert_eq!(direction("anatomy_total_ns"), Direction::LowerBetter);
        assert_eq!(direction("brand_new_metric"), Direction::Informational);
        // Namespaced keys never gate directly: spreads feed the CI test,
        // per-thread detail is covered by aggregates.
        assert_eq!(direction("user_ipc/stddev"), Direction::Informational);
        assert_eq!(direction("miss_lat_mean_ns/ci95"), Direction::Informational);
        assert_eq!(direction("thread/0/user_ipc"), Direction::Informational);
        assert_eq!(direction("sanitize/mem/pte-roundtrip"), Direction::Informational);
    }

    #[test]
    fn overlapping_cis_suppress_large_deltas() {
        // -10 % throughput would trip the 5 % raw gate, but the repeats
        // say the metric is noisy: intervals [850, 1150] and [750, 1050]
        // overlap, so the change is within noise and the gate passes.
        let base = artifact(vec![("throughput_ops_s", 1000.0), ("throughput_ops_s/ci95", 150.0)]);
        let cur = artifact(vec![("throughput_ops_s", 900.0), ("throughput_ops_s/ci95", 150.0)]);
        assert!(compare(&base, &cur, &Thresholds::default()).passed());
    }

    #[test]
    fn disjoint_cis_gate_even_small_deltas() {
        // -3 % would pass the raw 5 % gate, but tight intervals
        // [995, 1005] and [965, 975] are disjoint: a real regression.
        let base = artifact(vec![("throughput_ops_s", 1000.0), ("throughput_ops_s/ci95", 5.0)]);
        let cur = artifact(vec![("throughput_ops_s", 970.0), ("throughput_ops_s/ci95", 5.0)]);
        let report = compare(&base, &cur, &Thresholds::default());
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
    }

    #[test]
    fn disjoint_cis_in_good_direction_are_improvements() {
        let base = artifact(vec![("miss_lat_mean_ns", 500.0), ("miss_lat_mean_ns/ci95", 5.0)]);
        let cur = artifact(vec![("miss_lat_mean_ns", 400.0), ("miss_lat_mean_ns/ci95", 5.0)]);
        let report = compare(&base, &cur, &Thresholds::default());
        assert!(report.passed());
        assert_eq!(report.improvements.len(), 1);
    }

    #[test]
    fn one_sided_ci_still_engages_overlap_gating() {
        // Baseline captured without repeats (no CI), current run with
        // repeats: the baseline point value is treated as a zero-width
        // interval.
        let base = artifact(vec![("throughput_ops_s", 1000.0)]);
        let inside = artifact(vec![("throughput_ops_s", 900.0), ("throughput_ops_s/ci95", 150.0)]);
        assert!(compare(&base, &inside, &Thresholds::default()).passed());
        let outside = artifact(vec![("throughput_ops_s", 900.0), ("throughput_ops_s/ci95", 10.0)]);
        assert!(!compare(&base, &outside, &Thresholds::default()).passed());
    }

    #[test]
    fn matching_distinguishes_pin_and_repeats() {
        let base = artifact(vec![("throughput_ops_s", 1000.0)]);
        let mut cur = base.clone();
        cur.jobs[0].spec.pin = Some(0);
        assert!(!compare(&base, &cur, &Thresholds::default()).passed(), "pin changes identity");
        let mut cur = base.clone();
        cur.jobs[0].spec.repeats = 3;
        assert!(
            !compare(&base, &cur, &Thresholds::default()).passed(),
            "repeat count changes identity"
        );
        let mut cur = base.clone();
        cur.jobs[0].spec.repeats = 0; // normalizes to 1
        assert!(compare(&base, &cur, &Thresholds::default()).passed());
    }
}
