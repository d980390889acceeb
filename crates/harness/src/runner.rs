//! Maps a [`JobSpec`] onto a concrete simulator run.
//!
//! `prepare` is the one place a scenario's system is built: per-thread
//! RNG seeds, per-workload IPC and the KV insert headroom live there.
//! `hwdp sweep` runs through it, and so do all `hwdp-bench` repro tables
//! but four that a job cannot express (each says why).

use crate::seed::repeat_seed;
use crate::spec::{JobSpec, Scenario};
use crate::stats::summarize;
use hwdp_core::anatomy::{hwdp_anatomy, osdp_anatomy, swonly_anatomy};
use hwdp_core::{HwId, Mode, RunResult, System, SystemBuilder};
use hwdp_os::costs::{OsdpCosts, SwOnlyCosts};
use hwdp_sim::rng::Prng;
use hwdp_sim::time::Duration;
use hwdp_smu::SmuTiming;
use hwdp_workloads::{
    DbBenchReadRandom, FioRandRead, MiniDb, ScratchChurn, SpecKernel, Workload, Ycsb,
};

/// Runs one job to completion and returns its flattened metrics.
///
/// Deterministic: the same spec always yields the same metric values
/// (virtual time only; no wall-clock inputs).
///
/// With `repeats > 1` the job runs once per derived repeat seed and every
/// metric `m` is reported as three keys: `m` (mean), `m/stddev`, and
/// `m/ci95` (Student-t 95 % confidence half-width).
pub fn run_job(spec: &JobSpec) -> Vec<(String, f64)> {
    let k = spec.effective_repeats();
    if k == 1 {
        return run_once(spec);
    }
    let runs: Vec<Vec<(String, f64)>> = (0..k)
        .map(|i| {
            let mut s = *spec;
            s.seed = repeat_seed(spec.seed, i);
            run_once(&s)
        })
        .collect();
    aggregate_repeats(&runs)
}

/// Opt-in scheduler-throughput metrics ([`JobSpec::throughput`]; off by
/// default, since the rate is wall-clock and must never leak into
/// baseline artifacts). The event count is deterministic (fixed by the
/// event queue's `(time, EventId)` order), while `events_per_sec` divides
/// it by measured wall time and therefore varies run to run — `hwdp
/// compare` treats it as advisory, never gating.
fn export_metrics(events_processed: u64, wall_secs: f64) -> Vec<(&'static str, f64)> {
    let rate = if wall_secs > 0.0 { events_processed as f64 / wall_secs } else { 0.0 };
    vec![
        ("events_processed", events_processed as f64),
        ("events_per_sec", rate),
    ]
}

/// One plain simulator run for `spec` (ignoring its repeat count).
fn run_once(spec: &JobSpec) -> Vec<(String, f64)> {
    match spec.scenario {
        Scenario::Anatomy => anatomy_metrics(spec),
        _ => {
            let started = spec.throughput.then(std::time::Instant::now);
            let result = simulate(spec);
            let mut metrics: Vec<(String, f64)> = result
                .export_metrics()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            // Per-invariant violation counts, only when something fired:
            // clean sanitized runs produce byte-identical artifacts to
            // unsanitized ones (the seed-parity gate depends on this).
            for ((layer, invariant), count) in result.audit.by_invariant() {
                metrics.push((format!("sanitize/{layer}/{invariant}"), count as f64));
            }
            // Per-thread reports, only for jobs that actually ran more
            // than one thread: single-thread artifacts stay byte-identical
            // to baselines captured before per-thread export existed.
            if result.threads.len() > 1 {
                for (i, t) in result.threads.iter().enumerate() {
                    for (name, value) in t.export_metrics() {
                        metrics.push((format!("thread/{i}/{name}"), value));
                    }
                }
            }
            if let Some(started) = started {
                let wall = started.elapsed().as_secs_f64();
                metrics.extend(
                    export_metrics(result.events_processed, wall)
                        .into_iter()
                        .map(|(name, value)| (name.to_string(), value)),
                );
            }
            metrics
        }
    }
}

/// Folds per-repeat metric vectors into mean / stddev / 95 % CI triples.
///
/// Key order is first-appearance order across runs (run 0's order, with
/// keys that only materialize in later repeats — conditional exports like
/// fault-recovery counters — appended); a key missing from some repeats is
/// summarized over the repeats that produced it.
fn aggregate_repeats(runs: &[Vec<(String, f64)>]) -> Vec<(String, f64)> {
    let mut order: Vec<&String> = Vec::new();
    for run in runs {
        for (k, _) in run {
            if !order.contains(&k) {
                order.push(k);
            }
        }
    }
    let mut out = Vec::with_capacity(order.len() * 3);
    for key in order {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|run| run.iter().find(|(k, _)| k == key).map(|(_, v)| *v))
            .collect();
        let s = summarize(&values);
        out.push((key.clone(), s.mean));
        out.push((format!("{key}/stddev"), s.stddev));
        out.push((format!("{key}/ci95"), s.ci95_half));
    }
    out
}

/// Builds the system described by `spec` and runs its workload.
pub fn simulate(spec: &JobSpec) -> RunResult {
    prepare(spec).run(Duration::from_millis(spec.time_cap_ms))
}

/// Like [`simulate`], but also returns the end-of-run content digest
/// (`System::content_digest`) — the user-visible storage state the chaos
/// oracle compares between a faulted run and its fault-free twin.
/// Hashing every file page is observation-only but not free, so only the
/// oracle pays for it; campaigns call [`simulate`].
pub fn simulate_with_digest(spec: &JobSpec) -> (RunResult, u64) {
    let mut sys = prepare(spec);
    let result = sys.run(Duration::from_millis(spec.time_cap_ms));
    (result, sys.content_digest())
}

/// Builds the system described by `spec`, creates its dataset and spawns
/// its workload threads, ready to run.
fn prepare(spec: &JobSpec) -> System {
    let mut builder = SystemBuilder::new(spec.mode)
        .memory_frames(spec.memory_frames)
        .device(spec.device.profile())
        .kpted_period(Duration::from_micros(spec.kpted_period_us))
        .kpoold(spec.kpoold_enabled)
        .per_core_free_queues(spec.per_core_free_queues)
        .readahead_pages(spec.readahead_pages)
        .smu_prefetch_pages(spec.smu_prefetch_pages)
        .sanitize(spec.sanitize)
        .seed(spec.seed);
    if let Some(entries) = spec.pmshr_entries {
        builder = builder.pmshr_entries(entries);
    }
    if let Some(depth) = spec.free_queue_depth {
        builder = builder.free_queue_depth(depth);
    }
    if let Some(us) = spec.kpoold_period_us {
        builder = builder.tweak(|cfg| cfg.kpoold_period = Duration::from_micros(us));
    }
    if let Some(us) = spec.long_io_timeout_us {
        builder = builder.long_io_timeout(Duration::from_micros(us));
    }
    if let Some(faults) = spec.effective_faults() {
        builder = builder.faults(faults);
    }
    if let Some(tiers) = spec.tiers {
        builder = builder.tiers(tiers.to_config());
    }
    if matches!(spec.scenario, Scenario::SmtCorun(_)) {
        // The Fig. 16 co-location squeezes the workload threads plus the
        // SPEC partner onto as few physical cores as they need — one core
        // (two SMT contexts) for the canonical single-FIO-thread co-run.
        let contexts = spec.pin.unwrap_or(0) + spec.threads + 1;
        builder = builder.tweak(move |cfg| {
            cfg.physical_cores = contexts.div_ceil(cfg.smt_ways).max(1);
        });
    } else if let Some(base) = spec.pin {
        // Pinning places thread i on context `base + i`; grow the core
        // count when the pinned span runs past the default topology.
        let contexts = base + spec.threads;
        builder = builder.tweak(move |cfg| {
            let needed = contexts.div_ceil(cfg.smt_ways);
            cfg.physical_cores = cfg.physical_cores.max(needed);
        });
    }
    let mut sys = builder.build();
    let pages = spec.dataset_pages();
    // Hardware-context pinning: workload thread i goes on context
    // `pin + i`, a co-run partner right after the workload threads.
    let pin_for = |i: usize| spec.pin.map(|base| HwId(base + i));

    match spec.scenario {
        Scenario::FioRand => {
            let file = sys.create_pattern_file("fio-data", pages);
            let region = sys.map_file(file);
            for i in 0..spec.threads {
                let rng = Prng::seed_from(spec.seed ^ (0xF10 + i as u64));
                sys.spawn(
                    Box::new(FioRandRead::new(region, pages, spec.ops, rng)),
                    1.8,
                    pin_for(i),
                );
            }
        }
        Scenario::DbBench | Scenario::Ycsb(_) => {
            let records = pages;
            let capacity = records + records / 4; // headroom for inserts (D/E)
            let file = sys.create_kv_file("db", records, capacity);
            let region = sys.map_file(file);
            // One key distribution per job, cloned into each YCSB client.
            let ycsb = match spec.scenario {
                Scenario::Ycsb(kind) => Some((kind, Ycsb::popularity(records))),
                _ => None,
            };
            for i in 0..spec.threads {
                let db = MiniDb::new(region, records, capacity);
                let rng = Prng::seed_from(spec.seed ^ (0x2B + i as u64));
                let workload: Box<dyn Workload> = match &ycsb {
                    Some((kind, keys)) => {
                        Box::new(Ycsb::with_keys(*kind, db, keys.clone(), spec.ops, rng))
                    }
                    None => Box::new(DbBenchReadRandom::new(db, spec.ops, rng)),
                };
                sys.spawn(workload, 1.6, pin_for(i));
            }
        }
        Scenario::Anon => {
            let region = sys.map_anon(pages);
            for i in 0..spec.threads {
                let rng = Prng::seed_from(spec.seed ^ (0xA40 + i as u64));
                sys.spawn(
                    Box::new(ScratchChurn::new(region, pages, spec.ops, rng)),
                    1.6,
                    pin_for(i),
                );
            }
        }
        Scenario::SmtCorun(partner) => {
            // FIO threads first (thread 0's RNG seed is `seed ^ 0x516`),
            // then one SPEC kernel on the next hardware context.
            let file = sys.create_pattern_file("fio-data", pages);
            let region = sys.map_file(file);
            for i in 0..spec.threads {
                let rng = Prng::seed_from(spec.seed ^ (0x516 + i as u64));
                sys.spawn(
                    Box::new(FioRandRead::new(region, pages, spec.ops, rng)),
                    1.8,
                    pin_for(i),
                );
            }
            let profile = partner.profile();
            sys.spawn(Box::new(SpecKernel::new(profile)), profile.base_ipc, pin_for(spec.threads));
        }
        Scenario::Anatomy => unreachable!("anatomy jobs are closed-form"),
    }
    sys
}

/// Closed-form Fig. 10/17 anatomy metrics (no event simulation).
fn anatomy_metrics(spec: &JobSpec) -> Vec<(String, f64)> {
    let device = spec.device.profile();
    let a = match spec.mode {
        Mode::Osdp => osdp_anatomy(&OsdpCosts::paper_default(), &device),
        Mode::Hwdp => hwdp_anatomy(&SmuTiming::paper_default(), &device),
        Mode::SwOnly => swonly_anatomy(&SwOnlyCosts::paper_default(), &device),
    };
    vec![
        ("anatomy_total_ns".into(), a.total().as_nanos_f64()),
        ("anatomy_overhead_ns".into(), a.overhead().as_nanos_f64()),
        ("anatomy_before_device_ns".into(), a.before_device().as_nanos_f64()),
        ("anatomy_after_device_ns".into(), a.after_device().as_nanos_f64()),
        ("anatomy_overhead_frac_of_device".into(), a.overhead_fraction_of_device()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceKind;
    use hwdp_core::Mode;

    fn quick(scenario: Scenario, mode: Mode) -> JobSpec {
        let mut spec = JobSpec::new(scenario, mode, 0xD15C);
        spec.memory_frames = 128;
        spec.ops = 60;
        spec
    }

    #[test]
    fn fio_job_is_deterministic() {
        let spec = quick(Scenario::FioRand, Mode::Hwdp);
        let a = run_job(&spec);
        let b = run_job(&spec);
        assert_eq!(a, b);
        let ops = a.iter().find(|(k, _)| k == "ops").unwrap().1;
        assert_eq!(ops, 60.0);
        let fails = a.iter().find(|(k, _)| k == "verify_failures").unwrap().1;
        assert_eq!(fails, 0.0);
    }

    #[test]
    fn modes_produce_different_metrics() {
        let hw = run_job(&quick(Scenario::FioRand, Mode::Hwdp));
        let os = run_job(&quick(Scenario::FioRand, Mode::Osdp));
        let lat = |m: &[(String, f64)]| {
            m.iter().find(|(k, _)| k == "miss_lat_mean_ns").unwrap().1
        };
        assert!(lat(&hw) < lat(&os), "HWDP should cut miss latency");
    }

    #[test]
    fn kv_and_anon_scenarios_run() {
        for scenario in [Scenario::DbBench, Scenario::Anon] {
            let m = run_job(&quick(scenario, Mode::Hwdp));
            let ops = m.iter().find(|(k, _)| k == "ops").unwrap().1;
            assert!(ops > 0.0, "{}", scenario.name());
        }
    }

    #[test]
    fn full_sanitize_is_observation_only() {
        // The parity contract at job level: identical metrics whether the
        // sanitizer runs or not, and no sanitize/ metrics on a clean run.
        let spec = quick(Scenario::FioRand, Mode::Hwdp);
        let mut sanitized = spec;
        sanitized.sanitize = hwdp_sim::SanitizeLevel::Full;
        let plain = run_job(&spec);
        let audited = run_job(&sanitized);
        assert_eq!(plain, audited);
        assert!(audited.iter().all(|(k, _)| !k.starts_with("sanitize")));
    }

    #[test]
    fn throughput_export_adds_only_its_two_keys() {
        let spec = quick(Scenario::FioRand, Mode::Hwdp);
        let mut timed = spec;
        timed.throughput = true;
        let plain = run_job(&spec);
        let mut exported = run_job(&timed);
        let extra: Vec<(String, f64)> = exported.split_off(plain.len());
        assert_eq!(plain, exported, "simulated metrics are unchanged");
        let keys: Vec<&str> = extra.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["events_processed", "events_per_sec"]);
        assert!(extra.iter().all(|&(_, v)| v > 0.0), "{extra:?}");
    }

    #[test]
    fn single_thread_jobs_export_no_per_thread_metrics() {
        // The baseline byte-identity contract: per-thread keys appear only
        // when a job actually ran more than one thread.
        let m = run_job(&quick(Scenario::FioRand, Mode::Hwdp));
        assert!(m.iter().all(|(k, _)| !k.starts_with("thread/")));
    }

    #[test]
    fn multi_thread_jobs_export_per_thread_metrics() {
        let mut spec = quick(Scenario::FioRand, Mode::Hwdp);
        spec.threads = 2;
        let m = run_job(&spec);
        for i in 0..2 {
            let ipc = m.iter().find(|(k, _)| k == &format!("thread/{i}/user_ipc"));
            assert!(ipc.is_some(), "missing thread/{i}/user_ipc");
        }
        let sum: f64 = (0..2)
            .map(|i| {
                m.iter().find(|(k, _)| k == &format!("thread/{i}/ops")).map_or(0.0, |(_, v)| *v)
            })
            .sum();
        let total = m.iter().find(|(k, _)| k == "ops").map_or(0.0, |(_, v)| *v);
        assert_eq!(sum, total, "per-thread ops must sum to the aggregate");
    }

    #[test]
    fn pinned_threads_report_their_contexts() {
        let mut spec = quick(Scenario::FioRand, Mode::Hwdp);
        spec.threads = 2;
        spec.pin = Some(0);
        let m = run_job(&spec);
        let hw = |i: usize| {
            m.iter()
                .find(|(k, _)| k == &format!("thread/{i}/hw_context"))
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(hw(0), 0.0);
        assert_eq!(hw(1), 1.0);
    }

    #[test]
    fn smt_corun_scenario_runs_both_threads() {
        let mut spec = quick(Scenario::SmtCorun(crate::spec::SmtPartner::Mcf), Mode::Hwdp);
        spec.ratio = 8.0;
        spec.pin = Some(0);
        spec.ops = 1 << 62; // effectively unbounded; the window ends the run
        spec.time_cap_ms = 3;
        let m = run_job(&spec);
        let get = |k: &str| m.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert!(get("thread/0/ops") > 10.0, "FIO made progress");
        assert!(get("thread/1/user_instructions") > 1000.0, "SPEC kernel retired work");
        assert_eq!(get("thread/0/hw_context"), 0.0);
        assert_eq!(get("thread/1/hw_context"), 1.0);
    }

    #[test]
    fn smt_corun_with_multiple_workload_threads_fits_the_partner() {
        let mut spec = quick(Scenario::SmtCorun(crate::spec::SmtPartner::Mcf), Mode::Hwdp);
        spec.ratio = 8.0;
        spec.threads = 2;
        spec.pin = Some(0);
        spec.ops = 1 << 62;
        spec.time_cap_ms = 3;
        let m = run_job(&spec);
        let get = |k: &str| m.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert_eq!(get("thread/0/hw_context"), 0.0);
        assert_eq!(get("thread/1/hw_context"), 1.0);
        assert_eq!(get("thread/2/hw_context"), 2.0, "SPEC partner lands past the FIO threads");
    }

    #[test]
    fn pin_span_past_default_topology_grows_the_machine() {
        let mut spec = quick(Scenario::FioRand, Mode::Hwdp);
        spec.threads = 4;
        spec.pin = Some(14); // contexts 14..18 vs the default 8x2 = 16
        let m = run_job(&spec);
        let get = |k: &str| m.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert_eq!(get("thread/0/hw_context"), 14.0);
        assert_eq!(get("thread/3/hw_context"), 17.0);
    }

    #[test]
    fn repeats_produce_mean_stddev_ci_triples() {
        let mut spec = quick(Scenario::FioRand, Mode::Hwdp);
        spec.repeats = 3;
        let m = run_job(&spec);
        let names: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert!(names.contains(&"user_ipc"));
        assert!(names.contains(&"user_ipc/stddev"));
        assert!(names.contains(&"user_ipc/ci95"));
        // Deterministic: repeats use derived seeds, not wall-clock.
        assert_eq!(m, run_job(&spec));
        // And the mean really averages distinct runs: ops is fixed per
        // run, so its spread is zero while elapsed time varies.
        let get = |k: &str| m.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert_eq!(get("ops/stddev"), 0.0);
        assert!(get("elapsed_ns/stddev") > 0.0, "repeat seeds must differ");
    }

    #[test]
    fn repeats_one_is_byte_identical_to_plain_run() {
        let spec = quick(Scenario::FioRand, Mode::Hwdp);
        let mut r1 = spec;
        r1.repeats = 1;
        assert_eq!(run_job(&spec), run_job(&r1));
    }

    #[test]
    fn anatomy_is_closed_form() {
        let mut spec = quick(Scenario::Anatomy, Mode::Hwdp);
        spec.device = DeviceKind::OptanePmm;
        let m = run_job(&spec);
        assert!(m.iter().any(|(k, _)| k == "anatomy_total_ns"));
        let hw_total = m[0].1;
        spec.mode = Mode::Osdp;
        let os_total = run_job(&spec)[0].1;
        assert!(hw_total < os_total, "HWDP anatomy must beat OSDP");
    }

    #[test]
    fn knob_overrides_apply() {
        let mut spec = quick(Scenario::FioRand, Mode::Hwdp);
        spec.pmshr_entries = Some(2);
        spec.threads = 4;
        let m = run_job(&spec);
        let stalls = m.iter().find(|(k, _)| k == "pmshr_stalls").unwrap().1;
        let baseline = run_job(&quick(Scenario::FioRand, Mode::Hwdp));
        let base_stalls = baseline.iter().find(|(k, _)| k == "pmshr_stalls").unwrap().1;
        assert!(stalls >= base_stalls, "tiny PMSHR should not reduce stalls");
    }
}
