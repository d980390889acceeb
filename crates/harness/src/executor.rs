//! The thread-pool executor.
//!
//! Workers are scoped `std::thread`s draining a shared queue of job
//! indices. Each job runs under `catch_unwind`, so a panicking simulation
//! surfaces as a `Failed` record instead of tearing down the campaign.
//! Results land in a slot per job index — output order is grid order, never
//! completion order — and job *metrics* are pure functions of the spec, so
//! worker count affects only wall time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::artifact::{Artifact, JobRecord, JobStatus};
use crate::progress::Progress;
use crate::runner::run_job;
use crate::spec::{Campaign, JobSpec};

/// What one job produced.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// Metrics from a completed run.
    Ok(Vec<(String, f64)>),
    /// The job panicked; the payload is the panic message.
    Panicked(String),
    /// The job exceeded the per-job wall-clock watchdog; the payload is
    /// the timeout description. Its thread cannot be killed and is
    /// abandoned — the campaign moves on instead of hanging.
    TimedOut(String),
}

/// Runs every job of `campaign` on `workers` threads via the default
/// runner and packages the results as an [`Artifact`].
pub fn execute_campaign(campaign: &Campaign, workers: usize, progress: &mut dyn Progress) -> Artifact {
    let results = execute(campaign, workers, progress);
    Artifact::from_outcomes(campaign, &results)
}

/// Runs every job through [`run_job`](crate::runner::run_job), returning
/// `(outcome, wall_ms)` per job in campaign order.
pub fn execute(
    campaign: &Campaign,
    workers: usize,
    progress: &mut dyn Progress,
) -> Vec<(JobOutcome, f64)> {
    execute_with(campaign, workers, progress, run_job)
}

/// Like [`execute_campaign`], but reuses successful records from `prior`
/// — the machinery behind `hwdp sweep --resume`. A record is reused only
/// when the campaign name and master seed match and the record at the
/// same index has an equal [`JobSpec`] and completed without failing;
/// everything else (missing, failed, or spec-mismatched jobs) reruns.
/// Because job metrics are pure functions of the spec, the merged
/// artifact is canonically identical to a from-scratch run.
///
/// `timeout_ms` arms the per-job wall-clock watchdog: a job exceeding it
/// is recorded as failed (see [`execute_watchdog_with`]) instead of
/// hanging the campaign. `None` keeps the plain in-worker execution path.
pub fn execute_campaign_resume(
    campaign: &Campaign,
    prior: Option<&Artifact>,
    workers: usize,
    timeout_ms: Option<u64>,
    progress: &mut dyn Progress,
) -> Artifact {
    match timeout_ms {
        None => execute_resume_with(campaign, prior, workers, progress, run_job),
        Some(ms) => resume_with_exec(campaign, prior, progress, |pending, progress| {
            execute_watchdog_with(pending, workers, ms, progress, run_job)
        }),
    }
}

/// [`execute_campaign_resume`] with a custom job function (test hook).
pub fn execute_resume_with(
    campaign: &Campaign,
    prior: Option<&Artifact>,
    workers: usize,
    progress: &mut dyn Progress,
    job_fn: impl Fn(&JobSpec) -> Vec<(String, f64)> + Sync,
) -> Artifact {
    resume_with_exec(campaign, prior, progress, |pending, progress| {
        execute_with(pending, workers, progress, job_fn)
    })
}

/// The resume/merge machinery shared by the plain and watchdog paths:
/// reuses prior records, hands the pending jobs to `exec`, and stitches
/// the results back in campaign order.
fn resume_with_exec(
    campaign: &Campaign,
    prior: Option<&Artifact>,
    progress: &mut dyn Progress,
    exec: impl FnOnce(&Campaign, &mut dyn Progress) -> Vec<(JobOutcome, f64)>,
) -> Artifact {
    let prior = prior.filter(|a| a.campaign == campaign.name && a.seed == campaign.seed);
    let reused: Vec<Option<JobRecord>> = campaign
        .jobs
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            let record = prior?
                .jobs
                .iter()
                .find(|r| r.index == index && r.spec == *spec && r.is_ok())?;
            progress.job_skipped(index, spec);
            Some(record.clone())
        })
        .collect();

    let pending = Campaign {
        name: campaign.name.clone(),
        seed: campaign.seed,
        jobs: campaign
            .jobs
            .iter()
            .zip(&reused)
            .filter(|(_, r)| r.is_none())
            .map(|(spec, _)| *spec)
            .collect(),
    };
    let mut fresh = exec(&pending, progress).into_iter();

    let jobs = campaign
        .jobs
        .iter()
        .zip(reused)
        .enumerate()
        .map(|(index, (spec, record))| match record {
            Some(r) => r,
            None => {
                // `pending` holds exactly the jobs with no reused record.
                #[allow(clippy::expect_used)]
                let (outcome, wall_ms) = fresh.next().expect("one fresh result per pending job");
                let (status, metrics) = outcome_status(outcome);
                JobRecord { index, spec: *spec, status, metrics, wall_ms }
            }
        })
        .collect();
    Artifact { campaign: campaign.name.clone(), seed: campaign.seed, jobs }
}

/// Maps an executor outcome onto the artifact's job status. Timed-out
/// jobs surface as failed records carrying the watchdog message, keeping
/// the artifact schema unchanged.
fn outcome_status(outcome: JobOutcome) -> (JobStatus, Vec<(String, f64)>) {
    match outcome {
        JobOutcome::Ok(m) => (JobStatus::Ok, m),
        JobOutcome::Panicked(msg) => (JobStatus::Failed(msg), Vec::new()),
        JobOutcome::TimedOut(msg) => (JobStatus::Failed(msg), Vec::new()),
    }
}

/// [`execute`] with a custom job function — the panic-isolation and
/// ordering machinery under test-controlled workloads.
// The one `expect`, at the end: the atomic counter hands every index to
// exactly one worker, so every slot is filled.
#[allow(clippy::expect_used)]
pub fn execute_with(
    campaign: &Campaign,
    workers: usize,
    progress: &mut dyn Progress,
    job_fn: impl Fn(&JobSpec) -> Vec<(String, f64)> + Sync,
) -> Vec<(JobOutcome, f64)> {
    let jobs = &campaign.jobs;
    let workers = workers.max(1).min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(JobOutcome, f64)>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    let shared = Mutex::new((slots, progress));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = jobs.get(index) else { break };
                // A poisoned lock means a progress callback panicked in
                // another worker; the slots themselves are still sound,
                // so recover and keep draining the queue.
                shared.lock().unwrap_or_else(|p| p.into_inner()).1.job_started(index, spec);
                let start = Instant::now();
                let outcome = match catch_unwind(AssertUnwindSafe(|| job_fn(spec))) {
                    Ok(metrics) => JobOutcome::Ok(metrics),
                    Err(payload) => JobOutcome::Panicked(panic_message(&payload)),
                };
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let ok = matches!(outcome, JobOutcome::Ok(_));
                let mut guard = shared.lock().unwrap_or_else(|p| p.into_inner());
                guard.0[index] = Some((outcome, wall_ms));
                guard.1.job_finished(index, spec, ok, wall_ms);
            });
        }
    });

    let (slots, _) = shared.into_inner().unwrap_or_else(|p| p.into_inner());
    slots.into_iter().map(|s| s.expect("every job index was claimed")).collect()
}

/// [`execute_with`] plus a per-job wall-clock watchdog: every job runs on
/// a detached thread and the worker waits at most `timeout_ms` for its
/// result. A job that overruns is recorded as [`JobOutcome::TimedOut`]
/// and its thread abandoned (Rust threads cannot be killed), so one hung
/// simulation becomes a typed job error instead of a stuck campaign.
///
/// The watchdog observes wall-clock time, so which jobs trip it is not
/// deterministic — arm it as a liveness net, not as part of a
/// byte-stable artifact pipeline. `job_fn` must be `Copy + 'static`
/// (a fn pointer or capture-free closure) because it crosses into
/// detached threads.
// The one `expect`, at the end: the atomic counter hands every index to
// exactly one worker, so every slot is filled.
#[allow(clippy::expect_used)]
pub fn execute_watchdog_with(
    campaign: &Campaign,
    workers: usize,
    timeout_ms: u64,
    progress: &mut dyn Progress,
    job_fn: impl Fn(&JobSpec) -> Vec<(String, f64)> + Copy + Send + Sync + 'static,
) -> Vec<(JobOutcome, f64)> {
    let jobs = &campaign.jobs;
    let workers = workers.max(1).min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(JobOutcome, f64)>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    let shared = Mutex::new((slots, progress));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = jobs.get(index) else { break };
                shared.lock().unwrap_or_else(|p| p.into_inner()).1.job_started(index, spec);
                let start = Instant::now();
                let outcome = run_with_watchdog(timeout_ms, *spec, job_fn);
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let ok = matches!(outcome, JobOutcome::Ok(_));
                let mut guard = shared.lock().unwrap_or_else(|p| p.into_inner());
                guard.0[index] = Some((outcome, wall_ms));
                guard.1.job_finished(index, spec, ok, wall_ms);
            });
        }
    });

    let (slots, _) = shared.into_inner().unwrap_or_else(|p| p.into_inner());
    slots.into_iter().map(|s| s.expect("every job index was claimed")).collect()
}

/// Runs one job on a detached thread, bounded by `timeout_ms` of wall
/// clock. Panic isolation matches the in-worker path.
pub fn run_with_watchdog(
    timeout_ms: u64,
    spec: JobSpec,
    job_fn: impl FnOnce(&JobSpec) -> Vec<(String, f64)> + Send + 'static,
) -> JobOutcome {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = match catch_unwind(AssertUnwindSafe(|| job_fn(&spec))) {
            Ok(metrics) => JobOutcome::Ok(metrics),
            Err(payload) => JobOutcome::Panicked(panic_message(&payload)),
        };
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(std::time::Duration::from_millis(timeout_ms)) {
        Ok(outcome) => outcome,
        Err(_) => JobOutcome::TimedOut(format!(
            "wall-clock watchdog: job exceeded {timeout_ms} ms and was abandoned"
        )),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Artifact {
    /// Packages executor outcomes for `campaign` into an artifact.
    pub fn from_outcomes(campaign: &Campaign, outcomes: &[(JobOutcome, f64)]) -> Artifact {
        let jobs = campaign
            .jobs
            .iter()
            .zip(outcomes)
            .enumerate()
            .map(|(index, (spec, (outcome, wall_ms)))| {
                let (status, metrics) = outcome_status(outcome.clone());
                JobRecord { index, spec: *spec, status, metrics, wall_ms: *wall_ms }
            })
            .collect();
        Artifact { campaign: campaign.name.clone(), seed: campaign.seed, jobs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::Counting;
    use crate::spec::{Grid, Scenario};
    use hwdp_core::Mode;

    fn fake_campaign(n: usize) -> Campaign {
        let ratios: Vec<f64> = (0..n).map(|i| 2.0 + i as f64).collect();
        Grid::new("fake", 7).scenarios([Scenario::FioRand]).ratios(ratios).expand()
    }

    fn spec_metric(spec: &JobSpec) -> Vec<(String, f64)> {
        vec![("ratio".into(), spec.ratio), ("seed_low".into(), (spec.seed & 0xFFFF) as f64)]
    }

    #[test]
    fn results_in_campaign_order_regardless_of_workers() {
        let campaign = fake_campaign(9);
        let single = execute_with(&campaign, 1, &mut Counting::default(), spec_metric);
        let pooled = execute_with(&campaign, 4, &mut Counting::default(), spec_metric);
        // Outcomes (not wall times) must be identical across worker counts.
        let outcomes = |r: &[(JobOutcome, f64)]| r.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>();
        assert_eq!(outcomes(&single), outcomes(&pooled));
        for (i, (outcome, _)) in single.iter().enumerate() {
            let JobOutcome::Ok(m) = outcome else { panic!("job {i} failed") };
            assert_eq!(m[0].1, campaign.jobs[i].ratio);
        }
    }

    #[test]
    fn panicking_job_is_isolated() {
        let campaign = fake_campaign(5);
        let mut progress = Counting::default();
        let results = execute_with(&campaign, 2, &mut progress, |spec| {
            assert!(spec.ratio != 4.0, "boom at ratio 4");
            spec_metric(spec)
        });
        let failed: Vec<usize> = results
            .iter()
            .enumerate()
            .filter(|(_, (o, _))| matches!(o, JobOutcome::Panicked(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failed, vec![2], "only the ratio-4 job fails");
        let JobOutcome::Panicked(msg) = &results[2].0 else { unreachable!() };
        assert!(msg.contains("boom"), "panic message captured: {msg}");
        assert_eq!(progress.finished, 5);
        assert_eq!(progress.failed, 1);
    }

    #[test]
    fn worker_count_clamps_to_job_count() {
        let campaign = fake_campaign(2);
        let results = execute_with(&campaign, 64, &mut Counting::default(), spec_metric);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn progress_sees_every_job() {
        let campaign = fake_campaign(6);
        let mut progress = Counting::default();
        execute_with(&campaign, 3, &mut progress, spec_metric);
        assert_eq!(progress.started, 6);
        assert_eq!(progress.finished, 6);
        assert_eq!(progress.failed, 0);
    }

    #[test]
    fn resume_completes_half_artifact_identically() {
        let campaign = fake_campaign(8);
        let full = Artifact::from_outcomes(
            &campaign,
            &execute_with(&campaign, 2, &mut Counting::default(), spec_metric),
        );
        // A half-written artifact: the first three records only.
        let partial = Artifact {
            campaign: full.campaign.clone(),
            seed: full.seed,
            jobs: full.jobs[..3].to_vec(),
        };
        let mut progress = Counting::default();
        let resumed =
            execute_resume_with(&campaign, Some(&partial), 2, &mut progress, spec_metric);
        assert_eq!(progress.skipped, 3, "the three stored jobs are reused");
        assert_eq!(progress.started, 5, "only the missing five run");
        assert_eq!(
            resumed.canonical_string(),
            full.canonical_string(),
            "resumed artifact is canonically identical to a from-scratch run"
        );
    }

    #[test]
    fn resume_reruns_failed_and_mismatched_records() {
        let campaign = fake_campaign(4);
        let full = Artifact::from_outcomes(
            &campaign,
            &execute_with(&campaign, 1, &mut Counting::default(), spec_metric),
        );
        let mut prior = full.clone();
        // Record 1 failed last time; record 2 was produced by a different
        // spec (e.g. the grid changed between runs). Neither may be reused.
        prior.jobs[1].status = JobStatus::Failed("earlier crash".into());
        prior.jobs[2].spec.ratio += 1.0;
        let mut progress = Counting::default();
        let resumed = execute_resume_with(&campaign, Some(&prior), 1, &mut progress, spec_metric);
        assert_eq!(progress.skipped, 2, "only records 0 and 3 are reused");
        assert_eq!(progress.started, 2);
        assert_eq!(resumed.canonical_string(), full.canonical_string());
    }

    #[test]
    fn resume_ignores_prior_from_different_campaign_or_seed() {
        let campaign = fake_campaign(3);
        let full = Artifact::from_outcomes(
            &campaign,
            &execute_with(&campaign, 1, &mut Counting::default(), spec_metric),
        );
        let mut renamed = full.clone();
        renamed.campaign = "other".into();
        let mut reseeded = full.clone();
        reseeded.seed ^= 1;
        for prior in [renamed, reseeded] {
            let mut progress = Counting::default();
            execute_resume_with(&campaign, Some(&prior), 1, &mut progress, spec_metric);
            assert_eq!(progress.skipped, 0, "foreign artifacts are never reused");
            assert_eq!(progress.started, 3);
        }
    }

    fn spec_metric_static(spec: &JobSpec) -> Vec<(String, f64)> {
        vec![("ratio".into(), spec.ratio), ("seed_low".into(), (spec.seed & 0xFFFF) as f64)]
    }

    #[test]
    fn watchdog_turns_hung_job_into_typed_error() {
        let campaign = fake_campaign(3);
        let mut progress = Counting::default();
        let results = execute_watchdog_with(&campaign, 2, 100, &mut progress, |spec| {
            if spec.ratio == 3.0 {
                // Simulated hang: far longer than the watchdog. The thread
                // is abandoned and dies with the test process.
                std::thread::sleep(std::time::Duration::from_millis(10_000));
            }
            spec_metric_static(spec)
        });
        assert!(matches!(results[0].0, JobOutcome::Ok(_)));
        assert!(matches!(results[2].0, JobOutcome::Ok(_)));
        let JobOutcome::TimedOut(msg) = &results[1].0 else {
            panic!("hung job not timed out: {:?}", results[1].0)
        };
        assert!(msg.contains("watchdog"), "typed timeout message: {msg}");
        assert_eq!(progress.finished, 3, "campaign completed despite the hang");
        assert_eq!(progress.failed, 1);
        // Timed-out outcomes land in the artifact as failed records.
        let artifact = Artifact::from_outcomes(&campaign, &results);
        assert!(!artifact.jobs[1].is_ok());
        assert!(artifact.jobs[0].is_ok() && artifact.jobs[2].is_ok());
    }

    #[test]
    fn watchdog_leaves_fast_jobs_and_panics_untouched() {
        let campaign = fake_campaign(5);
        let plain = execute_with(&campaign, 2, &mut Counting::default(), spec_metric_static);
        let watched = execute_watchdog_with(
            &campaign,
            2,
            60_000,
            &mut Counting::default(),
            spec_metric_static,
        );
        let outcomes =
            |r: &[(JobOutcome, f64)]| r.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>();
        assert_eq!(outcomes(&plain), outcomes(&watched), "generous watchdog changes nothing");

        // Panic isolation survives the detached-thread path.
        let results =
            execute_watchdog_with(&campaign, 2, 60_000, &mut Counting::default(), |spec| {
                assert!(spec.ratio != 4.0, "boom at ratio 4");
                spec_metric_static(spec)
            });
        let JobOutcome::Panicked(msg) = &results[2].0 else {
            panic!("panicking job not isolated: {:?}", results[2].0)
        };
        assert!(msg.contains("boom"));
    }

    #[test]
    fn real_runner_executes_small_campaign() {
        let campaign = Grid::new("exec-smoke", 3)
            .scenarios([Scenario::FioRand])
            .modes([Mode::Osdp, Mode::Hwdp])
            .memory_frames(96)
            .ops(30)
            .expand();
        let artifact = execute_campaign(&campaign, 2, &mut Counting::default());
        assert_eq!(artifact.jobs.len(), 2);
        assert!(artifact.jobs.iter().all(|j| j.is_ok()));
    }
}
