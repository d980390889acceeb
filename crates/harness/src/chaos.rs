//! Seeded chaos campaigns with a differential recovery oracle.
//!
//! A chaos campaign draws random-but-reproducible fault plans — controller
//! crashes plus every transient fault class — over small read-only jobs,
//! runs each faulted job next to a fault-free twin with the same seed, and
//! asserts the recovery contract:
//!
//! * the faulted run completes with a clean hwdp-audit report, and every
//!   data-verification failure is accounted for by a surfaced typed
//!   `IoError` (bounded retry exhausting is designed degradation; wrong
//!   bytes with no surfaced error is corruption);
//! * its end-of-run content digest (page cache ∪ device blocks, see
//!   `System::content_digest`) is identical to the twin's — recovery lost
//!   nothing the application could observe;
//! * its completed-operation count never exceeds the twin's (fault
//!   recovery degrades counters monotonically, it cannot invent work).
//!
//! Jobs are restricted to read-only workloads (`fio`, `ycsb-c`) and
//! transient-only fault plans, so a correct system must converge on
//! byte-identical contents whatever was crashed, dropped, or delayed
//! along the way. A failing plan is automatically shrunk to a minimal
//! reproducer before it lands in the `CHAOS_<name>.json` report.

use crate::json::Json;
use crate::progress::Progress;
use crate::runner::simulate_with_digest;
use crate::seed::job_seed;
use crate::spec::{JobSpec, Scenario};
use hwdp_core::Mode;
use hwdp_nvme::fault::FaultConfig;
use hwdp_sim::rng::Prng;
use hwdp_sim::SanitizeLevel;
use hwdp_workloads::YcsbKind;

/// Salt mixed into the per-job seed before drawing the fault plan, so the
/// plan stream is decorrelated from the simulator seed the job runs with.
const CHAOS_PLAN_SALT: u64 = 0xC4A0_5C4A_0511_FA17;

/// A chaos campaign definition.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Campaign name (becomes `CHAOS_<name>.json`).
    pub name: String,
    /// Master seed; every job's spec and fault plan derive from it.
    pub seed: u64,
    /// Number of fault-plan draws to run through the oracle.
    pub jobs: usize,
    /// Whether plans include controller crashes (on by default; turning
    /// this off leaves only the transient fault classes).
    pub crashes: bool,
    /// Sanitize level for the faulted run (the twin always runs `Full` so
    /// oracle verdicts never depend on it).
    pub sanitize: SanitizeLevel,
}

impl ChaosConfig {
    /// A campaign with the default shape: 8 jobs, crashes on, full
    /// sanitizing.
    pub fn new(name: impl Into<String>, seed: u64) -> ChaosConfig {
        ChaosConfig {
            name: name.into(),
            seed,
            jobs: 8,
            crashes: true,
            sanitize: SanitizeLevel::Full,
        }
    }
}

/// One oracle failure, with its shrunk reproducer.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosFailure {
    /// Job index within the campaign.
    pub index: usize,
    /// Human-readable job label.
    pub label: String,
    /// The job's simulator seed.
    pub seed: u64,
    /// What the oracle observed.
    pub reason: String,
    /// Minimal failing fault plan in `--faults` syntax.
    pub minimal_faults: String,
}

/// The campaign-level result written to `CHAOS_<name>.json`.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Campaign name.
    pub campaign: String,
    /// Master seed.
    pub seed: u64,
    /// Jobs run through the oracle.
    pub jobs: usize,
    /// Controller resets completed across all faulted runs.
    pub controller_resets: u64,
    /// In-flight commands lost to crashes across all faulted runs.
    pub crash_ios_lost: u64,
    /// Jobs whose faulted run disagreed with its fault-free twin.
    pub oracle_mismatches: usize,
    /// Shrunk reproducers, one per mismatching job.
    pub failures: Vec<ChaosFailure>,
}

impl ChaosReport {
    /// Whether every job satisfied the recovery contract.
    pub fn is_clean(&self) -> bool {
        self.oracle_mismatches == 0
    }

    /// The artifact file name (`CHAOS_<campaign>.json`).
    pub fn file_name(&self) -> String {
        format!("CHAOS_{}.json", self.campaign)
    }

    /// Serializes the report. Fully deterministic: no wall-clock fields.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("campaign", Json::str(self.campaign.clone())),
            ("seed", Json::Str(format!("{:#018x}", self.seed))),
            ("jobs", Json::Num(self.jobs as f64)),
            ("controller_resets", Json::Num(self.controller_resets as f64)),
            ("crash_ios_lost", Json::Num(self.crash_ios_lost as f64)),
            ("oracle_mismatches", Json::Num(self.oracle_mismatches as f64)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::obj([
                                ("index", Json::Num(f.index as f64)),
                                ("label", Json::str(f.label.clone())),
                                ("seed", Json::Str(format!("{:#018x}", f.seed))),
                                ("reason", Json::str(f.reason.clone())),
                                ("minimal_faults", Json::str(f.minimal_faults.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Generates job `index` of a chaos campaign: a small read-only workload
/// with a randomly drawn fault plan. Pure function of `(seed, index,
/// crashes)`, so any job can be re-derived in isolation.
pub fn chaos_job(seed: u64, index: usize, crashes: bool) -> JobSpec {
    let job = job_seed(seed, index as u64);
    let mut rng = Prng::seed_from(job ^ CHAOS_PLAN_SALT);
    // Read-only scenarios only: the differential oracle compares final
    // contents, so the workload must not change what a correct run writes.
    let scenario =
        if rng.chance(0.5) { Scenario::FioRand } else { Scenario::Ycsb(YcsbKind::C) };
    let mode = if rng.chance(0.5) { Mode::Hwdp } else { Mode::Osdp };
    let mut spec = JobSpec::new(scenario, mode, job);
    spec.memory_frames = if rng.chance(0.5) { 128 } else { 256 };
    spec.ratio = if rng.chance(0.5) { 2.0 } else { 4.0 };
    spec.threads = 1 + rng.below(2) as usize;
    spec.ops = rng.range(100, 250);
    spec.faults = Some(chaos_faults(&mut rng, crashes));
    spec
}

/// Draws one fault plan: each transient class fires with its own
/// probability, and (when enabled) a controller crash schedule rides on
/// top. Plans stay transient and read-targeted so the oracle's content
/// comparison is sound.
fn chaos_faults(rng: &mut Prng, crashes: bool) -> FaultConfig {
    let mut f = FaultConfig::default();
    if rng.chance(0.6) {
        f.media_error_rate = rng.range(1, 15) as f64 / 100.0;
    }
    if rng.chance(0.6) {
        f.delay_rate = rng.range(1, 10) as f64 / 100.0;
        f.delay_factor = rng.range(5, 50) as f64;
    }
    if rng.chance(0.5) {
        f.drop_rate = rng.range(1, 8) as f64 / 100.0;
    }
    if rng.chance(0.5) {
        f.queue_full_rate = rng.range(1, 8) as f64 / 100.0;
        f.queue_full_len = rng.range(2, 16) as u32;
    }
    if crashes {
        f.crash_at_us = rng.range(200, 2_000);
        f.crash_count = rng.range(1, 2) as u32;
        f.reset_latency_us = rng.range(50, 400);
    }
    f
}

/// What the oracle saw for one faulted job.
struct Verdict {
    /// `None` when the recovery contract held; otherwise the mismatch.
    mismatch: Option<String>,
    resets: u64,
    ios_lost: u64,
}

/// Runs `spec` and its fault-free twin, comparing outcomes. The twin
/// shares the simulator seed, so for read-only workloads every divergence
/// is attributable to fault handling.
fn oracle(spec: &JobSpec) -> Verdict {
    let mut faulted_spec = *spec;
    faulted_spec.sanitize = SanitizeLevel::Full;
    let (faulted, faulted_digest) = simulate_with_digest(&faulted_spec);
    let mut twin_spec = *spec;
    twin_spec.faults = None;
    twin_spec.sanitize = SanitizeLevel::Full;
    let (twin, twin_digest) = simulate_with_digest(&twin_spec);

    // A surfaced typed IoError hands `None` to every waiting thread, and
    // each waiter logs one verification failure — designed degradation,
    // not corruption. Any failure beyond that bound means the device
    // returned wrong bytes without an error, which is never acceptable.
    let error_budget = faulted.perf.io_errors_surfaced * spec.threads as u64;
    let mismatch = if faulted.verify_failures() > error_budget {
        Some(format!(
            "{} data-verification failure(s) but only {} surfaced IoError(s) across {} thread(s): unannounced corruption",
            faulted.verify_failures(),
            faulted.perf.io_errors_surfaced,
            spec.threads
        ))
    } else if !faulted.audit.is_clean() {
        Some(format!(
            "{} audit violation(s) in the faulted run (first: {})",
            faulted.audit.violations.len(),
            faulted.audit.violations[0]
        ))
    } else if faulted_digest != twin_digest {
        Some(format!(
            "content digest diverged from the fault-free twin ({faulted_digest:#018x} vs {twin_digest:#018x})"
        ))
    } else if faulted.ops > twin.ops {
        Some(format!(
            "faulted run completed more ops than its twin ({} vs {})",
            faulted.ops, twin.ops
        ))
    } else {
        None
    };
    Verdict { mismatch, resets: faulted.controller_resets, ios_lost: faulted.crash_ios_lost }
}

/// Shrinks a failing fault plan to a minimal reproducer: repeatedly tries
/// to zero out whole fault classes (then to simplify the crash schedule),
/// keeping every simplification that still fails the oracle. Bounded by
/// an oracle-call budget so shrinking never dominates the campaign.
fn shrink(spec: &JobSpec, plan: FaultConfig) -> FaultConfig {
    let mut best = plan;
    let mut budget = 24u32;
    loop {
        let mut improved = false;
        for candidate in shrink_candidates(&best) {
            if budget == 0 {
                return best;
            }
            budget -= 1;
            let mut s = *spec;
            s.faults = Some(candidate);
            if oracle(&s).mismatch.is_some() {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// The simplification moves, coarsest first: drop a whole fault class,
/// then shrink the crash schedule. Only moves that change the plan are
/// yielded.
fn shrink_candidates(f: &FaultConfig) -> Vec<FaultConfig> {
    let mut out = Vec::new();
    let mut push = |candidate: FaultConfig| {
        if candidate != *f && !candidate.is_zero() {
            out.push(candidate);
        }
    };
    push(FaultConfig { media_error_rate: 0.0, ..*f });
    push(FaultConfig { delay_rate: 0.0, ..*f });
    push(FaultConfig { drop_rate: 0.0, ..*f });
    push(FaultConfig { queue_full_rate: 0.0, ..*f });
    push(FaultConfig { crash_at_us: 0, ..*f });
    push(FaultConfig { crash_count: 1, ..*f });
    out
}

/// Runs a chaos campaign: generates `cfg.jobs` fault plans, drives each
/// through the differential oracle, shrinks every failure, and returns
/// the deterministic report. Jobs run sequentially — each one is two full
/// simulations plus possible shrinking, and chaos campaigns are small.
pub fn run_chaos(cfg: &ChaosConfig, progress: &mut dyn Progress) -> ChaosReport {
    let mut report = ChaosReport {
        campaign: cfg.name.clone(),
        seed: cfg.seed,
        jobs: cfg.jobs,
        controller_resets: 0,
        crash_ios_lost: 0,
        oracle_mismatches: 0,
        failures: Vec::new(),
    };
    for index in 0..cfg.jobs {
        let mut spec = chaos_job(cfg.seed, index, cfg.crashes);
        spec.sanitize = cfg.sanitize;
        progress.job_started(index, &spec);
        let start = std::time::Instant::now();
        let verdict = oracle(&spec);
        report.controller_resets += verdict.resets;
        report.crash_ios_lost += verdict.ios_lost;
        let ok = verdict.mismatch.is_none();
        if let Some(reason) = verdict.mismatch {
            report.oracle_mismatches += 1;
            // `chaos_job` always installs a plan.
            #[allow(clippy::expect_used)]
            let plan = spec.faults.expect("chaos jobs carry a fault plan");
            let minimal = shrink(&spec, plan);
            report.failures.push(ChaosFailure {
                index,
                label: spec.label(),
                seed: spec.seed,
                reason,
                minimal_faults: minimal.canonical(),
            });
        }
        progress.job_finished(index, &spec, ok, start.elapsed().as_secs_f64() * 1e3);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::Counting;

    #[test]
    fn chaos_jobs_are_reproducible_and_read_only() {
        for index in 0..16 {
            let a = chaos_job(0xC4A05, index, true);
            let b = chaos_job(0xC4A05, index, true);
            assert_eq!(a, b, "job derivation is pure");
            assert!(
                matches!(a.scenario, Scenario::FioRand | Scenario::Ycsb(YcsbKind::C)),
                "read-only scenarios only: {:?}",
                a.scenario
            );
            let f = a.faults.expect("every chaos job carries a plan");
            assert!(f.crash_at_us >= 200, "crashes enabled: {f:?}");
            assert!(!f.reads_only || f.drop_rate >= 0.0); // plan stays read-targeted by default
            let crashless = chaos_job(0xC4A05, index, false);
            assert_eq!(crashless.faults.expect("plan").crash_at_us, 0);
        }
    }

    #[test]
    fn oracle_passes_on_fault_free_plan() {
        // With no faults, the "faulted" run IS the twin; the oracle must
        // agree with itself.
        let mut spec = chaos_job(7, 0, false);
        spec.faults = None;
        spec.memory_frames = 128;
        spec.ops = 40;
        let v = oracle(&spec);
        assert_eq!(v.mismatch, None);
        assert_eq!(v.resets, 0);
    }

    #[test]
    fn small_campaign_is_clean_and_counts_resets() {
        let mut cfg = ChaosConfig::new("unit", 0xD15C);
        cfg.jobs = 2;
        let mut progress = Counting::default();
        let report = run_chaos(&cfg, &mut progress);
        assert!(report.is_clean(), "failures: {:?}", report.failures);
        assert_eq!(progress.finished, 2);
        assert_eq!(report.jobs, 2);
        let json = report.to_json().pretty();
        assert!(json.contains("\"oracle_mismatches\": 0"), "{json}");
    }

    #[test]
    fn shrink_candidates_simplify_without_zeroing_everything() {
        let plan = FaultConfig {
            media_error_rate: 0.1,
            drop_rate: 0.05,
            crash_at_us: 500,
            crash_count: 2,
            reset_latency_us: 100,
            ..FaultConfig::default()
        };
        let cands = shrink_candidates(&plan);
        assert!(cands.iter().all(|c| !c.is_zero()), "candidates stay live");
        assert!(cands.iter().any(|c| c.media_error_rate == 0.0));
        assert!(cands.iter().any(|c| c.crash_at_us == 0));
        assert!(cands.iter().any(|c| c.crash_count == 1 && c.crash_at_us == plan.crash_at_us));
        // A plan with one live class has nowhere left to shrink but the
        // crash schedule.
        let lone = FaultConfig { drop_rate: 0.05, ..FaultConfig::default() };
        assert!(shrink_candidates(&lone).is_empty());
    }
}
