//! The untraced run: set-up, timed rounds of a closed-loop campaign, the
//! correctness checks and the end-to-end metrics.

use std::time::Instant;

use hwdp_harness::progress::Silent;
use hwdp_harness::{execute_campaign, Artifact, Campaign, JobRecord};

use crate::report::{Metric, Report};
use crate::speed;
use crate::stats::{median, percentile};
use crate::workloads::{Workload, ROUND_SECONDS};

/// Executor threads. Each takes its next job only when its previous one
/// completes (a closed loop with two clients).
pub const WORKERS: usize = 2;

/// The tail percentile reported for job wall time.
const P95: f64 = 0.95;

/// How one workload is run.
pub struct Options {
    /// Derives every campaign seed, so the same seed gives the same jobs.
    pub seed: u64,
    /// Host seconds the rounds should take together.
    pub seconds: f64,
    /// One round of a sixteenth of the seeds, one set-up.
    pub quick: bool,
}

impl Options {
    /// Rounds that fill `seconds` at [`ROUND_SECONDS`] a round: at least
    /// one, and exactly one in quick mode. The count follows from the flag
    /// alone, so two commits compared run the same rounds however fast
    /// the code or the host is.
    pub fn rounds(&self, seconds: f64) -> usize {
        if self.quick {
            1
        } else {
            ((seconds / ROUND_SECONDS).round() as usize).max(1)
        }
    }
}

/// A set-up workload: the expanded campaign and its warm-up pass.
pub struct Prepared {
    /// Every job of one round.
    pub campaign: Campaign,
    /// One untimed job per distinct configuration.
    pub warm: Artifact,
}

/// Expands the campaign, then runs one job of each configuration once so
/// lazily built tables and the allocator are warm before timing.
pub fn set_up(workload: &Workload, opts: &Options) -> Prepared {
    let campaign = workload.campaign(opts.seed, opts.quick);
    let warm = execute_campaign(&workload.warm_up(opts.seed), WORKERS, &mut Silent);
    Prepared { campaign, warm }
}

/// The correctness checks shared by the untraced and traced runs.
pub struct Checker<'a> {
    reference: Option<Artifact>,
    warm: &'a Artifact,
    /// Jobs that failed or broke a check.
    pub failed: usize,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl<'a> Checker<'a> {
    /// A checker comparing every round with the first and with `warm`.
    pub fn new(warm: &'a Artifact) -> Checker<'a> {
        let mut checker = Checker {
            reference: None,
            warm,
            failed: 0,
            problems: Vec::new(),
        };
        for job in &warm.jobs {
            if let Some(problem) = job_problem(job) {
                checker.problems.push(format!("warm-up: {problem}"));
            }
        }
        checker
    }

    /// Checks one round: every job completed, obeys the verify rule, and
    /// has exactly the metrics of the same job in the first round and in
    /// the warm-up pass. The first round becomes the reference.
    pub fn round(&mut self, round: Artifact) {
        let reference = self.reference.as_ref().unwrap_or(&round);
        let mut problems = Vec::new();
        for (job, first) in round.jobs.iter().zip(&reference.jobs) {
            let warm = self
                .warm
                .jobs
                .iter()
                .find(|w| w.spec == job.spec)
                .unwrap_or(first);
            let problem = job_problem(job).or_else(|| {
                let drifted = !same_metrics(job, first) || !same_metrics(job, warm);
                drifted.then(|| {
                    format!(
                        "{}: metrics differ between runs of one job",
                        job.spec.label()
                    )
                })
            });
            if let Some(problem) = problem {
                problems.push(problem);
            }
        }
        self.failed += problems.len();
        self.problems.extend(problems);
        if self.reference.is_none() {
            self.reference = Some(round);
        }
    }

    /// The first round: the source of every simulated metric.
    pub fn reference(&self) -> &Artifact {
        self.reference.as_ref().expect("at least one round ran")
    }
}

/// Why a job breaks a per-job check: it did not complete, or more of its
/// reads failed verification than its fault plan allows.
fn job_problem(job: &JobRecord) -> Option<String> {
    let label = job.spec.label();
    if !job.is_ok() {
        return Some(format!("{label}: job failed: {:?}", job.status));
    }
    let failures = metric(job, "verify_failures");
    // With faults injected an OSDP read may surface an I/O error, and
    // each thread can observe each surfaced error once (the chaos
    // oracle's rule); without faults no read may fail.
    let allowed = match job.spec.effective_faults() {
        Some(_) => metric(job, "io_errors_surfaced") * job.spec.threads as f64,
        None => 0.0,
    };
    (failures > allowed).then(|| format!("{label}: {failures} verify failures, {allowed} allowed"))
}

fn same_metrics(a: &JobRecord, b: &JobRecord) -> bool {
    a.metrics.len() == b.metrics.len()
        && a.metrics
            .iter()
            .zip(&b.metrics)
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

/// A job's metric; 0 when the job did not export it (recovery and tier
/// counters are exported only when nonzero or enabled).
pub fn metric(job: &JobRecord, name: &str) -> f64 {
    job.metric(name).unwrap_or(0.0)
}

/// Sum of a metric over a round's jobs.
pub fn total(round: &Artifact, name: &str) -> f64 {
    round.jobs.iter().map(|j| metric(j, name)).sum()
}

/// Share of a round's attempted operations that did not complete
/// correctly: verify failures plus operations of failed or unfinished
/// jobs.
pub fn fail_ratio(round: &Artifact) -> f64 {
    let attempted: f64 = round
        .jobs
        .iter()
        .map(|j| (j.spec.ops * j.spec.threads as u64) as f64)
        .sum();
    (attempted - total(round, "ops") + total(round, "verify_failures")) / attempted
}

/// Runs `workload` untraced and reports its end-to-end metrics.
pub fn run(workload: &'static Workload, opts: &Options) -> Report {
    // Set-up runs before the first round and again after every round, and
    // the reference kernel after each set-up, so their samples span the
    // run as the rounds do.
    let mut setup_s = Vec::new();
    let mut reference_ms = Vec::new();
    let mut timed_set_up = || {
        let t = Instant::now();
        let prepared = set_up(workload, opts);
        setup_s.push(t.elapsed().as_secs_f64());
        reference_ms.push(speed::probe());
        prepared
    };
    let Prepared { campaign, warm } = timed_set_up();

    let rounds = opts.rounds(opts.seconds);
    let mut checker = Checker::new(&warm);
    // Each job's fastest round. Every round does identical work (the
    // checker holds each job's metrics bit-identical), so what the slower
    // rounds add is host interference, not cost of the code.
    let mut job_ms = vec![f64::INFINITY; campaign.jobs.len()];
    let mut fastest_round_s = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        let round = execute_campaign(&campaign, WORKERS, &mut Silent);
        fastest_round_s = fastest_round_s.min(t.elapsed().as_secs_f64());
        for (best, job) in job_ms.iter_mut().zip(&round.jobs) {
            *best = best.min(job.wall_ms);
        }
        checker.round(round);
        timed_set_up();
    }
    // A round's wall time is the sum of its job times over the workers
    // (within 1 %: the workers share one queue and idle only at the end),
    // so this is a round with every job at its fastest. The fastest whole
    // round needs both workers unslowed for all of it and spread twice as
    // much from run to run.
    let raw_wall_s = job_ms.iter().sum::<f64>() / 1e3 / WORKERS as f64;
    let raw_setup_s = median(&setup_s);
    // Host times at the reference speed: the kernel's fastest run here
    // against its fastest on the tuning machine, as the job times are
    // each job's fastest.
    let fastest_reference_ms = reference_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let scale = speed::REFERENCE_MS / fastest_reference_ms;
    let scaled_job_ms: Vec<f64> = job_ms.iter().map(|ms| ms * scale).collect();
    // `setup_s` is a median, not a fastest time, so each set-up is scaled
    // by the kernel run just after it. Scaled by the run's fastest kernel
    // instead, a run that spent part of its time in a slow phase of the
    // host read 25 to 40 % slower.
    let scaled_setup_s: Vec<f64> = setup_s
        .iter()
        .zip(&reference_ms)
        .map(|(s, ms)| s * speed::REFERENCE_MS / ms)
        .collect();

    let round = checker.reference();
    let mean = |name: &str| total(round, name) / round.jobs.len() as f64;
    let elapsed = |mode| {
        round
            .jobs
            .iter()
            .filter(|j| j.spec.mode == mode)
            .map(|j| metric(j, "elapsed_ns"))
            .sum::<f64>()
    };

    let metrics = vec![
        Metric::new("wall_s", "s", raw_wall_s * scale),
        Metric::new("setup_s", "s", median(&scaled_setup_s)),
        Metric::new("job_ms_p50", "ms", median(&scaled_job_ms)),
        Metric {
            name: "job_ms_p95",
            unit: "ms",
            value: percentile(&scaled_job_ms, P95),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: peak_rss_mib(),
        },
        Metric::new("ok_ratio", "ratio", 1.0 - fail_ratio(round)),
        Metric::new("sim_time_s", "s", total(round, "elapsed_ns") / 1e9),
        Metric::new("sim_read_lat_p99_ns", "ns", mean("read_lat_p99_ns")),
        Metric::new("sim_miss_lat_p50_ns", "ns", mean("miss_lat_p50_ns")),
        Metric::new(
            "sim_user_ipc",
            "ratio",
            total(round, "user_instructions") / total(round, "user_cycles"),
        ),
        Metric::new(
            "sim_hwdp_speedup",
            "ratio",
            elapsed(hwdp_core::Mode::Osdp) / elapsed(hwdp_core::Mode::Hwdp),
        ),
    ];
    Report {
        workload: workload.name,
        attempted: rounds * campaign.jobs.len(),
        failed: checker.failed,
        note: format!(
            "{rounds} rounds x {} jobs, {WORKERS} workers, {} job_ms samples (each job's fastest round), {} set-ups; unscaled: wall_s {raw_wall_s} s (fastest round {fastest_round_s} s), setup_s {raw_setup_s} s, job_ms_p50 {} ms; reference kernel {fastest_reference_ms} ms, scale {scale}",
            campaign.jobs.len(),
            job_ms.len(),
            setup_s.len(),
            median(&job_ms),
        ),
        problems: checker.problems,
        metrics,
    }
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("no /proc: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line")?;
    Ok(kib / 1024.0)
}
