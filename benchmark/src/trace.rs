//! The traced run: the same campaign with each job run through a mirror
//! of `hwdp_harness::runner::simulate_with_digest` that times every call
//! into the simulator's public API. Spans stay in memory and are written
//! as Chrome trace-event JSON at the end.

use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use hwdp_core::{RunResult, SystemBuilder};
use hwdp_harness::executor::execute_with;
use hwdp_harness::progress::Silent;
use hwdp_harness::{execute_campaign, Artifact, JobSpec, Json, Scenario};
use hwdp_sim::rng::Prng;
use hwdp_workloads::{FioRandRead, MiniDb, Ycsb};

use crate::measure::{fail_ratio, set_up, total, Checker, Options, Prepared, WORKERS};
use crate::report::{Metric, Report};
use crate::stats::median;
use crate::workloads::Workload;

/// The child spans of a job, in call order.
pub const PHASES: [&str; 7] = [
    "core.build",
    "os.dataset",
    "os.map",
    "workloads.spawn",
    "core.run",
    "core.digest",
    "core.export",
];

/// One timed call.
#[derive(Clone, Copy)]
pub struct Span {
    /// Which phase.
    pub name: &'static str,
    /// When it began.
    pub start: Instant,
    /// How long it took.
    pub dur: Duration,
}

/// One job run through the mirror.
pub struct TracedJob {
    /// Exactly what `runner::run_job` returns for the same spec.
    pub metrics: Vec<(String, f64)>,
    /// Events the simulator's loop dispatched.
    pub events: u64,
    /// The whole job.
    pub job: Span,
    /// The [`PHASES`], in order.
    pub phases: Vec<Span>,
}

fn timed<T>(phases: &mut Vec<Span>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    phases.push(Span {
        name,
        start,
        dur: start.elapsed(),
    });
    out
}

/// Runs `spec` as `runner::run_job` does, timing each public call. Covers
/// the scenarios and knobs the benchmark's workloads use; anything else is
/// an error rather than a silently different run.
pub fn mirror(spec: &JobSpec) -> Result<TracedJob, String> {
    let fio = match spec.scenario {
        Scenario::FioRand => true,
        Scenario::Ycsb(_) => false,
        _ => return Err(format!("the traced mirror does not cover {}", spec.label())),
    };
    let default_knobs = spec.pin.is_none()
        && spec.effective_repeats() == 1
        && spec.pmshr_entries.is_none()
        && spec.free_queue_depth.is_none()
        && spec.kpoold_period_us.is_none()
        && spec.long_io_timeout_us.is_none();
    if !default_knobs {
        return Err(format!(
            "the traced mirror does not cover the knobs of {}",
            spec.label()
        ));
    }

    let start = Instant::now();
    let mut phases = Vec::with_capacity(PHASES.len());
    let mut sys = timed(&mut phases, "core.build", || {
        let mut builder = SystemBuilder::new(spec.mode)
            .memory_frames(spec.memory_frames)
            .device(spec.device.profile())
            .kpted_period(hwdp_sim::time::Duration::from_micros(spec.kpted_period_us))
            .kpoold(spec.kpoold_enabled)
            .per_core_free_queues(spec.per_core_free_queues)
            .readahead_pages(spec.readahead_pages)
            .smu_prefetch_pages(spec.smu_prefetch_pages)
            .sanitize(spec.sanitize)
            .seed(spec.seed);
        if let Some(faults) = spec.effective_faults() {
            builder = builder.faults(faults);
        }
        if let Some(tiers) = spec.tiers {
            builder = builder.tiers(tiers.to_config());
        }
        builder.build()
    });
    let pages = spec.dataset_pages();
    let capacity = pages + pages / 4;
    let file = timed(&mut phases, "os.dataset", || {
        if fio {
            sys.create_pattern_file("fio-data", pages)
        } else {
            sys.create_kv_file("db", pages, capacity)
        }
    });
    let region = timed(&mut phases, "os.map", || sys.map_file(file));
    timed(&mut phases, "workloads.spawn", || {
        for i in 0..spec.threads as u64 {
            if let Scenario::Ycsb(kind) = spec.scenario {
                let rng = Prng::seed_from(spec.seed ^ (0x2B + i));
                let db = MiniDb::new(region, pages, capacity);
                sys.spawn(Box::new(Ycsb::new(kind, db, spec.ops, rng)), 1.6, None);
            } else {
                let rng = Prng::seed_from(spec.seed ^ (0xF10 + i));
                sys.spawn(
                    Box::new(FioRandRead::new(region, pages, spec.ops, rng)),
                    1.8,
                    None,
                );
            }
        }
    });
    let time_cap = hwdp_sim::time::Duration::from_millis(spec.time_cap_ms);
    let result = timed(&mut phases, "core.run", || sys.run(time_cap));
    std::hint::black_box(timed(&mut phases, "core.digest", || sys.content_digest()));
    let metrics = timed(&mut phases, "core.export", || export(&result));
    let job = Span {
        name: "job",
        start,
        dur: start.elapsed(),
    };
    Ok(TracedJob {
        metrics,
        events: result.events_processed,
        job,
        phases,
    })
}

/// The metric vector `runner::run_job` builds from a run.
fn export(result: &RunResult) -> Vec<(String, f64)> {
    let mut metrics: Vec<(String, f64)> = result
        .export_metrics()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for ((layer, invariant), count) in result.audit.by_invariant() {
        metrics.push((format!("sanitize/{layer}/{invariant}"), count as f64));
    }
    if result.threads.len() > 1 {
        for (i, t) in result.threads.iter().enumerate() {
            metrics.extend(
                t.export_metrics()
                    .into_iter()
                    .map(|(k, v)| (format!("thread/{i}/{k}"), v)),
            );
        }
    }
    metrics
}

/// Spans of one traced round, filled in by the executor's workers.
#[derive(Default)]
struct Recorder {
    threads: Vec<ThreadId>,
    jobs: Vec<(usize, JobSpec, TracedJob)>,
}

impl Recorder {
    fn record(shared: &Mutex<Recorder>, spec: &JobSpec, job: TracedJob) {
        let mut rec = shared.lock().expect("a worker panicked while recording");
        let me = std::thread::current().id();
        let tid = match rec.threads.iter().position(|t| *t == me) {
            Some(i) => i + 1,
            None => {
                rec.threads.push(me);
                rec.threads.len()
            }
        };
        rec.jobs.push((tid, *spec, job));
    }
}

/// One traced round's totals, in milliseconds.
struct RoundTotals {
    job_ms: f64,
    phase_ms: [f64; PHASES.len()],
    artifact_ms: f64,
}

/// Runs `workload` alternating untraced and traced rounds, checks the
/// mirror against the harness runner, writes `TRACE_<workload>.json` into
/// `out`, and reports the per-layer metrics.
pub fn run(workload: &'static Workload, opts: &Options, out: &Path) -> Report {
    let Prepared { campaign, warm } = set_up(workload, opts);
    let mut checker = Checker::new(&warm);
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut totals = Vec::new();
    let mut first: Option<(Instant, Recorder, Artifact, Span)> = None;
    let mut parity_failures = 0;

    // Half the rounds untraced, half traced, so the run takes about as
    // long as an untraced one.
    let pairs = opts.rounds(opts.seconds / 2.0);
    for _ in 0..pairs {
        let t = Instant::now();
        let plain = execute_campaign(&campaign, WORKERS, &mut Silent);
        untraced_s.push(t.elapsed().as_secs_f64());

        let recorder = Mutex::new(Recorder::default());
        let epoch = Instant::now();
        let outcomes = execute_with(&campaign, WORKERS, &mut Silent, |spec| {
            let mut job = mirror(spec).unwrap_or_else(|e| panic!("{e}"));
            let metrics = std::mem::take(&mut job.metrics);
            Recorder::record(&recorder, spec, job);
            metrics
        });
        traced_s.push(epoch.elapsed().as_secs_f64());
        let start = Instant::now();
        let traced = Artifact::from_outcomes(&campaign, &outcomes);
        std::hint::black_box(traced.to_json_string());
        let artifact = Span {
            name: "harness.artifact",
            start,
            dur: start.elapsed(),
        };

        parity_failures += plain
            .jobs
            .iter()
            .zip(&traced.jobs)
            .filter(|(p, t)| p.metrics != t.metrics)
            .count();
        let recorder = recorder
            .into_inner()
            .expect("a worker panicked while recording");
        totals.push(round_totals(&recorder, &artifact));
        checker.round(plain);
        if first.is_none() {
            first = Some((epoch, recorder, traced, artifact));
        }
    }

    let (epoch, recorder, traced, artifact) = first.expect("at least one traced round");
    if parity_failures > 0 {
        checker.problems.push(format!(
            "{parity_failures} traced jobs differ from runner::run_job"
        ));
    }
    let failed = checker.failed + parity_failures;
    let trace_file = out.join(format!("TRACE_{}.json", workload.name));
    if let Err(e) = std::fs::write(
        &trace_file,
        chrome_trace(epoch, &recorder, &artifact).pretty(),
    ) {
        checker
            .problems
            .push(format!("cannot write {}: {e}", trace_file.display()));
    }

    let med = |f: &dyn Fn(&RoundTotals) -> f64| median(&totals.iter().map(f).collect::<Vec<_>>());
    let job_ms = med(&|t| t.job_ms);
    let phase_ms: Vec<f64> = (0..PHASES.len()).map(|i| med(&|t| t.phase_ms[i])).collect();
    let self_ms = med(&|t| t.job_ms - t.phase_ms.iter().sum::<f64>());
    let [build, dataset, map, spawn, run, digest, export] = phase_ms[..] else {
        unreachable!()
    };
    let events: f64 = recorder.jobs.iter().map(|(_, _, j)| j.events as f64).sum();
    let overhead = (median(&traced_s) / median(&untraced_s) - 1.0) * 100.0;

    let mut metrics = vec![
        Metric::new("job.span_ms", "ms", job_ms),
        Metric::new("core.build_ms", "ms", build),
        Metric::new("os.dataset_ms", "ms", dataset),
        Metric::new("os.map_ms", "ms", map),
        Metric::new("workloads.spawn_ms", "ms", spawn),
        Metric::new("core.run_ms", "ms", run),
        Metric::new("core.digest_ms", "ms", digest),
        Metric::new("core.export_ms", "ms", export),
        Metric::new("harness.artifact_ms", "ms", med(&|t| t.artifact_ms)),
        Metric::new("job.self_ms", "ms", self_ms),
        Metric::new("job.self_share", "ratio", self_ms / job_ms),
        Metric::new("core.run_share", "ratio", run / job_ms),
        Metric::new("core.digest_share", "ratio", digest / job_ms),
        Metric::new(
            "setup_share",
            "ratio",
            (build + dataset + map + spawn) / job_ms,
        ),
        Metric::new("core.run_ns_per_event", "ns", run * 1e6 / events),
        Metric::new("trace_overhead_pct", "%", overhead),
        Metric::new("sim.events", "count", events),
    ];
    metrics.extend(layer_counts(&traced));
    Report {
        workload: workload.name,
        attempted: 2 * pairs * campaign.jobs.len(),
        failed,
        note: format!(
            "{pairs} untraced + {pairs} traced rounds x {} jobs, {WORKERS} workers; trace in {}",
            campaign.jobs.len(),
            trace_file.display()
        ),
        problems: checker.problems,
        metrics,
    }
}

fn round_totals(recorder: &Recorder, artifact: &Span) -> RoundTotals {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut phase_ms = [0.0; PHASES.len()];
    for (_, _, job) in &recorder.jobs {
        for (total, span) in phase_ms.iter_mut().zip(&job.phases) {
            *total += ms(span.dur);
        }
    }
    RoundTotals {
        job_ms: recorder.jobs.iter().map(|(_, _, j)| ms(j.job.dur)).sum(),
        phase_ms,
        artifact_ms: ms(artifact.dur),
    }
}

/// Deterministic per-layer counts over one round, from the exported
/// metrics.
fn layer_counts(round: &Artifact) -> Vec<Metric> {
    let t = |name: &str| total(round, name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let kernel_instr = t("app_kernel_instr") + t("kpted_instr") + t("kpoold_instr");
    let commands = t("device_reads") + t("device_writes");
    let count = |name: &'static str, source: &str| Metric::new(name, "count", t(source));
    vec![
        count("smu.started", "smu_started"),
        count("smu.coalesced", "smu_coalesced"),
        count("smu.pmshr_full", "smu_pmshr_full"),
        count("smu.free_queue_empty", "smu_free_queue_empty"),
        count("smu.zero_fills", "smu_zero_fills"),
        Metric::new(
            "smu.os_fallback_ratio",
            "ratio",
            ratio(
                t("sync_refill_faults"),
                t("smu_started") + t("sync_refill_faults"),
            ),
        ),
        count("os.major_faults", "major_faults"),
        count("os.minor_faults", "minor_faults"),
        count("os.evictions", "evictions"),
        count("os.writebacks", "writebacks"),
        count("os.kpted_synced", "kpted_synced"),
        count("os.refilled_frames", "refilled_frames"),
        Metric::new("os.kernel_instr", "count", kernel_instr),
        Metric::new(
            "os.writeback_per_eviction",
            "ratio",
            ratio(t("writebacks"), t("evictions")),
        ),
        count("nvme.reads", "device_reads"),
        count("nvme.writes", "device_writes"),
        Metric::new(
            "nvme.retry_ratio",
            "ratio",
            ratio(t("io_retries"), commands),
        ),
        count("recovery.io_retries", "io_retries"),
        count("recovery.io_timeouts", "io_timeouts"),
        count("recovery.smu_fallbacks", "smu_fallbacks_fault"),
        count("recovery.io_errors_surfaced", "io_errors_surfaced"),
        count("tier.promotions", "tier/promotions"),
        count("tier.demotions", "tier/demotions"),
        Metric::new(
            "tier.fast_hit_ratio",
            "ratio",
            ratio(
                t("tier/fast_hits"),
                t("tier/fast_hits") + t("tier/slow_hits"),
            ),
        ),
        count("cpu.user_instructions", "user_instructions"),
        count("cpu.kernel_instructions", "kernel_instructions"),
        count("cpu.llc_misses", "llc_misses"),
        Metric::new("harness.jobs", "count", round.jobs.len() as f64),
        Metric::new(
            "harness.jobs_failed",
            "count",
            round.jobs.iter().filter(|j| !j.is_ok()).count() as f64,
        ),
        Metric::new("harness.fail_ratio", "ratio", fail_ratio(round)),
    ]
}

/// Chrome trace-event JSON (complete events, microseconds): one span per
/// job with its phases nested under it by time on the worker's track, and
/// the round's artifact rendering on track 0.
fn chrome_trace(epoch: Instant, recorder: &Recorder, artifact: &Span) -> Json {
    let event = |span: &Span, tid: usize, args: Json| {
        Json::obj([
            ("name", Json::str(span.name)),
            ("ph", Json::str("X")),
            (
                "ts",
                Json::Num(span.start.duration_since(epoch).as_secs_f64() * 1e6),
            ),
            ("dur", Json::Num(span.dur.as_secs_f64() * 1e6)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            ("args", args),
        ])
    };
    let mut events = vec![event(
        artifact,
        0,
        Json::obj([("jobs", Json::Num(recorder.jobs.len() as f64))]),
    )];
    for (id, (tid, spec, job)) in recorder.jobs.iter().enumerate() {
        let id_arg = || ("job", Json::Num(id as f64));
        events.push(event(
            &job.job,
            *tid,
            Json::obj([
                id_arg(),
                ("label", Json::str(spec.label())),
                ("seed", Json::Str(format!("{:#x}", spec.seed))),
            ]),
        ));
        for span in &job.phases {
            events.push(event(
                span,
                *tid,
                Json::obj([id_arg(), ("parent", Json::str("job"))]),
            ));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}
