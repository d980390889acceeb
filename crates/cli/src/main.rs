//! `hwdp` — command-line driver for the hardware-based demand paging
//! simulator (reproduction of "A Case for Hardware-Based Demand Paging",
//! ISCA 2020).
//!
//! ```text
//! hwdp fio  [--mode osdp|hwdp|sw-only] [--threads N] [--ratio R] [--ops N]
//!           [--device zssd|optane|pmm] [--seq] [--prefetch N] [--readahead N]
//! hwdp ycsb [--kind a..f] [--mode ...] [--threads N] [--ratio R] [--ops N]
//! hwdp anon [--mode ...] [--ratio R] [--ops N]
//! hwdp anatomy [--device ...]
//! hwdp sweep [--name S] [--scenarios a,b] [--modes ...] [--workers N] ...
//! hwdp chaos [--name S] [--seed N] [--jobs N] [--no-crashes] [--out DIR]
//! hwdp compare --baseline FILE --current FILE [--threshold PCT]
//! hwdp config
//! hwdp help
//! ```

#![forbid(unsafe_code)]

mod args;

use std::process::ExitCode;

use args::{ArgError, Args};
use hwdp_core::anatomy::{hwdp_anatomy, osdp_anatomy, swonly_anatomy};
use hwdp_core::{Mode, RunResult, SystemBuilder, SystemConfig};
use hwdp_harness as harness;
use hwdp_sim::rng::Prng;
use hwdp_sim::SanitizeLevel;
use hwdp_sim::time::Duration;
use hwdp_workloads::{
    DbBenchReadRandom, FioRandRead, FioSeqRead, MiniDb, ScratchChurn, Workload, Ycsb,
};

const HELP: &str = "\
hwdp — hardware-based demand paging simulator (ISCA 2020 reproduction)

USAGE:
  hwdp <command> [options]

COMMANDS:
  fio       FIO mmap engine: 4 KiB reads over a cold mapped file
  ycsb      YCSB A-F on the MiniDB NoSQL store (dataset ratio x memory)
  dbbench   DBBench readrandom on MiniDB
  anon      anonymous-memory churn (zero-fill + swap, value-verified)
  anatomy   closed-form single-miss latency breakdowns (Figs. 3/11/17)
  sweep     run a scenario x config campaign and write BENCH_<name>.json
  chaos     seeded random fault campaign with a differential recovery
            oracle; writes CHAOS_<name>.json with shrunk reproducers
  compare   gate a result artifact against a stored baseline
  lint      determinism & panic-policy static analysis over the workspace
  config    print the Table II system configuration
  help      this text

COMMON OPTIONS:
  --mode osdp|hwdp|sw-only   demand-paging design   (default hwdp)
  --device zssd|optane|pmm   storage device         (default zssd)
  --threads N                client threads         (default 1)
  --ratio N                  dataset:memory ratio   (default 4)
  --ops N                    operations per thread  (default 2000)
  --memory N                 DRAM frames            (default 1024)
  --seed N                   RNG seed               (default 42)
  --sanitize off|cheap|full  hwdp-audit invariant checks (default off);
                             observation-only, results are unchanged
  --faults SPEC              deterministic fault injection on every device.
                             SPEC is comma-separated knobs:
                               media=R        transient media-error rate
                               persistent=R   persistent media-error rate
                               delay=RxF      delay rate R, inflation factor F
                               drop=R         dropped-completion rate
                               qfull=RxL      queue-full window rate R, length L
                               crash=TxN      controller crash at T us (virtual),
                                              repeated N times T us apart
                               reset=US       controller reset latency in us
                               lba=LO-HI      restrict to an LBA range
                               writes         also target write commands
                             e.g. --faults media=0.05,delay=0.02x20
                             (all-zero rates are a no-op; seeded, reproducible)
  --tiers SPEC               tiered storage: data lives on a slow device and a
                             migration daemon promotes hot pages to a fast one.
                             SPEC is comma-separated knobs; fast/slow required:
                               fast:DEV       fast-tier device (zssd|optane|pmm)
                               slow:DEV       slow-tier (capacity) device
                               cap:PCT        fast-tier capacity, % of tracked
                                              pages (default 25)
                               policy:P       static|lru|threshold (default
                                              threshold)
                               period:US      migration-daemon tick in
                                              microseconds (default 150)
                               batch:N        max migrations per tick (default 8)
                             e.g. --tiers fast:pmm,slow:zssd
                             (omitting --tiers runs the paper's single device)

FIO OPTIONS:
  --seq                      sequential instead of random reads
  --prefetch N               SMU prefetch window (HWDP, section V)
  --readahead N              OS readahead window (disabled in the paper)

YCSB OPTIONS:
  --kind a|b|c|d|e|f         YCSB core workload     (default c)

SWEEP OPTIONS (axes are comma-separated lists; cross product = campaign):
  --name S                   campaign name          (default sweep)
  --scenarios a,b            fio|dbbench|ycsb-a..f|anon|smt-<spec>|anatomy
                             (default fio; smt-<spec> is the Fig. 16 SMT
                             co-run, <spec> one of perlbench|gcc|mcf|lbm|
                             deepsjeng|xz)
  --modes a,b                osdp|hwdp|sw-only      (default osdp,hwdp)
  --devices a,b              zssd|optane|pmm        (default zssd)
  --threads-list a,b         client thread counts   (default 1)
  --ratios a,b               dataset:memory ratios  (default 2)
  --workers N                executor threads       (default 4)
  --out DIR                  artifact directory     (default .)
  --time-cap-ms MS           virtual-time cap per job (default 30000)
  --pin N                    pin workload thread i to hardware context N+i
                             (a co-run partner lands after the workload)
  --kpted-us US              kpted sync-scan period in microseconds
                             (default 1000; the Fig. 16 co-run uses 20000)
  --pmshr N                  PMSHR entries          (default: paper's 32)
  --free-queue N             free-page queue depth  (default: paper value)
  --no-kpoold                disable the kpoold refill daemon
  --kpoold-us US             kpoold wake period in microseconds
  --per-core-queues          per-core free-page queues instead of shared
  --long-io-us US            long-latency miss timeout in microseconds
                             (default: always stall, never context-switch)
  --readahead N              OS readahead window in pages (default 0)
  --prefetch N               SMU prefetch window in pages (default 0)
  --repeats K                run each job K times with derived per-repeat
                             seeds; metrics become mean + /stddev + /ci95
                             keys, and compare gates on CI overlap
  --fixed-seed               every job uses the campaign seed itself
  --resume                   reuse completed jobs from an existing artifact
  --baseline FILE            also gate the fresh artifact against FILE
  --job-timeout-ms MS        per-job wall-clock watchdog: a job exceeding
                             MS real milliseconds is abandoned and recorded
                             as a typed failure (default: no watchdog)
  (multi-thread jobs export per-thread reports into a `threads` array;
  with --sanitize, sweep also writes AUDIT_<name>.json and exits
  nonzero when any invariant violation was detected)

CHAOS OPTIONS:
  --name S                   campaign name, writes CHAOS_<S>.json (default chaos)
  --seed N                   master seed; plans derive from it  (default 42)
  --jobs N                   fault plans to run through the oracle (default 8)
  --no-crashes               transient faults only, no controller crashes
  --sanitize off|cheap|full  faulted-run sanitize level (default full; the
                             fault-free twin always runs full)
  --out DIR                  artifact directory     (default .)
  (each job runs next to a fault-free twin with the same seed; the oracle
  requires a clean audit, matching content digests, monotonically degraded
  counters, and every verification failure accounted for by a surfaced
  typed IoError. Failing plans are shrunk to a minimal reproducer and the
  command exits nonzero.)

COMPARE OPTIONS:
  --baseline FILE            stored BENCH_*.json to gate against (required)
  --current FILE             freshly produced artifact (required)
  --threshold PCT            max tolerated regression (default 5)

LINT OPTIONS:
  --deny                     exit nonzero on any unsuppressed finding (CI)
  --json                     machine-readable report on stdout
  --rules                    print the rule table and exit
  --metric-keys              print the generated metric-key registry (JSON):
                             every string key at an export_metrics sink
  --call-graph               print the workspace call graph (JSON): fn nodes,
                             resolved edges, event-loop/completion/public root
                             sets, and per-rule reachable counts
  --root DIR                 workspace root (default: discovered upward)
  --write-baseline           rewrite baselines/LINT_allow.txt from findings
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match run(raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("try `hwdp help`");
            ExitCode::FAILURE
        }
    }
}

/// Options of the single-run subcommands (`fio`, `ycsb`, `dbbench`, `anon`).
const RUN_OPTIONS: &[&str] =
    &["mode", "device", "threads", "ratio", "ops", "memory", "seed", "sanitize", "faults", "tiers"];
/// Options of `sweep` (read by [`sweep_campaign`] and [`sweep`]).
const SWEEP_OPTIONS: &[&str] = &[
    "name", "seed", "scenarios", "modes", "devices", "threads-list", "ratios", "memory", "ops",
    "sanitize", "time-cap-ms", "pin", "kpted-us", "pmshr", "free-queue", "kpoold-us",
    "long-io-us", "readahead", "prefetch", "repeats", "faults", "tiers", "workers", "out",
    "job-timeout-ms", "baseline",
];
const SWEEP_FLAGS: &[&str] = &["no-kpoold", "per-core-queues", "fixed-seed", "resume"];
/// Options of the regression gate (read by [`gate`]).
const GATE_OPTIONS: &[&str] = &["threshold"];
const LINT_FLAGS: &[&str] = &["rules", "metric-keys", "call-graph", "write-baseline", "json", "deny"];

/// Option groups (each option takes a value) and flags of one command.
type Declared = (&'static [&'static [&'static str]], &'static [&'static str]);

/// What `command` reads, for [`Args::only`]; `None` for an unknown command.
fn declared(command: &str) -> Option<Declared> {
    Some(match command {
        "help" | "--help" | "-h" | "config" => (&[], &[]),
        "anatomy" => (&[&["device"]], &[]),
        "fio" => (&[RUN_OPTIONS, &["prefetch", "readahead"]], &["seq"]),
        "ycsb" => (&[RUN_OPTIONS, &["kind"]], &[]),
        "dbbench" | "anon" => (&[RUN_OPTIONS], &[]),
        "sweep" => (&[SWEEP_OPTIONS, GATE_OPTIONS], SWEEP_FLAGS),
        "chaos" => (&[&["name", "seed", "jobs", "sanitize", "out"]], &["no-crashes"]),
        "compare" => (&[&["baseline", "current"], GATE_OPTIONS], &[]),
        "lint" => (&[&["root"]], LINT_FLAGS),
        _ => return None,
    })
}

fn run(raw: Vec<String>) -> Result<ExitCode, ArgError> {
    let args = Args::parse(raw)?;
    let command = args.command.as_str();
    let unknown = || ArgError(format!("unknown command '{command}'"));
    let (options, flags) = declared(command).ok_or_else(unknown)?;
    args.only(options, flags)?;
    match command {
        "help" | "--help" | "-h" => println!("{HELP}"),
        "config" => println!("{}", SystemConfig::paper_default(Mode::Hwdp).describe()),
        "anatomy" => anatomy(&args)?,
        "fio" => fio(&args)?,
        "ycsb" | "dbbench" => kv(&args)?,
        "anon" => anon(&args)?,
        "sweep" => return sweep(&args),
        "chaos" => return chaos_cmd(&args),
        "compare" => return compare_cmd(&args),
        "lint" => return lint_cmd(&args),
        _ => return Err(unknown()),
    }
    Ok(ExitCode::SUCCESS)
}

/// Parses the common `--sanitize off|cheap|full` option (default `off`).
fn sanitize_level(args: &Args) -> Result<SanitizeLevel, ArgError> {
    match args.get("sanitize") {
        None => Ok(SanitizeLevel::Off),
        Some(s) => SanitizeLevel::parse(s)
            .ok_or_else(|| ArgError(format!("--sanitize: unknown level '{s}' (off|cheap|full)"))),
    }
}

/// Parses the common `--faults SPEC` option (default: no injection).
fn fault_config(args: &Args) -> Result<Option<hwdp_nvme::fault::FaultConfig>, ArgError> {
    match args.get("faults") {
        None => Ok(None),
        Some(s) => hwdp_nvme::fault::FaultConfig::parse(s).map(Some).ok_or_else(|| {
            ArgError(format!(
                "--faults: malformed spec '{s}' (e.g. media=0.05,delay=0.02x20,drop=0.01)"
            ))
        }),
    }
}

/// Parses the common `--tiers SPEC` option (default: single device).
fn tier_spec(args: &Args) -> Result<Option<harness::TierSpec>, ArgError> {
    match args.get("tiers") {
        None => Ok(None),
        Some(s) => harness::TierSpec::parse(s)
            .map(Some)
            .map_err(|e| ArgError(format!("--tiers: {e}"))),
    }
}

/// Expands the `sweep` axis options into a harness campaign.
fn sweep_campaign(args: &Args) -> Result<harness::Campaign, ArgError> {
    let parse_axis = |name: &str, default: &str, f: &dyn Fn(&str) -> Option<String>| {
        let mut bad = Vec::new();
        let ok: Vec<String> = args
            .list(name, default)
            .iter()
            .filter_map(|s| f(s).or_else(|| {
                bad.push(s.clone());
                None
            }))
            .collect();
        if bad.is_empty() {
            Ok(ok)
        } else {
            Err(ArgError(format!("--{name}: unknown value(s) {bad:?}")))
        }
    };
    let scenarios: Vec<harness::Scenario> = parse_axis("scenarios", "fio", &|s| {
        harness::Scenario::parse(s).map(|_| s.to_string())
    })?
    .iter()
    .map(|s| harness::Scenario::parse(s).expect("validated"))
    .collect();
    let modes: Vec<Mode> = args
        .list("modes", "osdp,hwdp")
        .iter()
        .map(|m| match m.as_str() {
            "osdp" => Ok(Mode::Osdp),
            "hwdp" => Ok(Mode::Hwdp),
            "sw" | "sw-only" | "swonly" => Ok(Mode::SwOnly),
            other => Err(ArgError(format!("--modes: unknown mode '{other}'"))),
        })
        .collect::<Result<_, _>>()?;
    let devices: Vec<harness::DeviceKind> = args
        .list("devices", "zssd")
        .iter()
        .map(|d| harness::DeviceKind::parse(d).map_err(|e| ArgError(format!("--devices: {e}"))))
        .collect::<Result<_, _>>()?;
    let threads: Vec<usize> = args
        .list("threads-list", "1")
        .iter()
        .map(|t| t.parse().map_err(|_| ArgError(format!("--threads-list: bad count '{t}'"))))
        .collect::<Result<_, _>>()?;
    let ratios: Vec<f64> = args
        .list("ratios", "2")
        .iter()
        .map(|r| r.parse().map_err(|_| ArgError(format!("--ratios: bad ratio '{r}'"))))
        .collect::<Result<_, _>>()?;

    let mut grid = harness::Grid::new(
        args.get("name").unwrap_or("sweep"),
        args.num("seed", 42)?,
    )
    .scenarios(scenarios)
    .modes(modes)
    .devices(devices)
    .threads(threads)
    .ratios(ratios)
    .memory_frames(args.num("memory", 1024)? as usize)
    .ops(args.num("ops", 2000)?)
    .sanitize(sanitize_level(args)?);
    if let Some(ms) = args.get("time-cap-ms") {
        let ms = ms.parse().map_err(|_| ArgError(format!("--time-cap-ms: bad value '{ms}'")))?;
        grid = grid.time_cap_ms(ms);
    }
    if let Some(pin) = args.get("pin") {
        let pin = pin.parse().map_err(|_| ArgError(format!("--pin: bad context '{pin}'")))?;
        grid = grid.pin(pin);
    }
    if let Some(us) = args.get("kpted-us") {
        let us: u64 =
            us.parse().map_err(|_| ArgError(format!("--kpted-us: bad period '{us}'")))?;
        grid = grid.tweak(|j| j.kpted_period_us = us);
    }
    // Ablation knobs (Fig. 18-style sensitivity sweeps). Each maps onto one
    // JobSpec field; unset flags leave the paper defaults in place.
    if let Some(n) = args.get("pmshr") {
        let n: usize = n.parse().map_err(|_| ArgError(format!("--pmshr: bad entry count '{n}'")))?;
        grid = grid.tweak(|j| j.pmshr_entries = Some(n));
    }
    if let Some(n) = args.get("free-queue") {
        let n: usize = n.parse().map_err(|_| ArgError(format!("--free-queue: bad depth '{n}'")))?;
        grid = grid.tweak(|j| j.free_queue_depth = Some(n));
    }
    if args.flag("no-kpoold") {
        grid = grid.tweak(|j| j.kpoold_enabled = false);
    }
    if let Some(us) = args.get("kpoold-us") {
        let us: u64 =
            us.parse().map_err(|_| ArgError(format!("--kpoold-us: bad period '{us}'")))?;
        grid = grid.tweak(|j| j.kpoold_period_us = Some(us));
    }
    if args.flag("per-core-queues") {
        grid = grid.tweak(|j| j.per_core_free_queues = true);
    }
    if let Some(us) = args.get("long-io-us") {
        let us: u64 =
            us.parse().map_err(|_| ArgError(format!("--long-io-us: bad timeout '{us}'")))?;
        grid = grid.tweak(|j| j.long_io_timeout_us = Some(us));
    }
    if let Some(n) = args.get("readahead") {
        let n: usize = n.parse().map_err(|_| ArgError(format!("--readahead: bad window '{n}'")))?;
        grid = grid.tweak(|j| j.readahead_pages = n);
    }
    if let Some(n) = args.get("prefetch") {
        let n: usize = n.parse().map_err(|_| ArgError(format!("--prefetch: bad window '{n}'")))?;
        grid = grid.tweak(|j| j.smu_prefetch_pages = n);
    }
    let repeats = args.num("repeats", 1)?;
    if repeats > 1 {
        grid = grid.repeats(repeats as u32);
    }
    if let Some(faults) = fault_config(args)? {
        grid = grid.faults(faults);
    }
    if let Some(tiers) = tier_spec(args)? {
        grid = grid.tiers(tiers);
    }
    if args.flag("fixed-seed") {
        grid = grid.fixed_seed();
    }
    if grid.is_empty() {
        return Err(ArgError("sweep has no jobs (an axis list is empty)".into()));
    }
    Ok(grid.expand())
}

fn sweep(args: &Args) -> Result<ExitCode, ArgError> {
    let campaign = sweep_campaign(args)?;
    let workers = args.num("workers", 4)? as usize;
    eprintln!("campaign '{}': {} job(s) on {} worker(s)", campaign.name, campaign.jobs.len(), workers);
    let dir = std::path::Path::new(args.get("out").unwrap_or("."));
    // --resume reuses completed jobs from an existing artifact at the
    // output path; a half-written campaign finishes with only the missing
    // or failed jobs rerun.
    let prior = if args.flag("resume") {
        let prior_path = dir.join(format!("BENCH_{}.json", campaign.name));
        match std::fs::read_to_string(&prior_path) {
            Ok(text) => {
                let a = harness::Artifact::parse(&text)
                    .map_err(|e| ArgError(format!("--resume: {}: {e}", prior_path.display())))?;
                eprintln!("resuming from {}", prior_path.display());
                Some(a)
            }
            Err(_) => None, // nothing to resume from; run everything
        }
    } else {
        None
    };
    // --job-timeout-ms arms the per-job wall-clock watchdog: a hung job
    // becomes a typed failure instead of wedging the whole campaign.
    let timeout_ms = match args.get("job-timeout-ms") {
        None => None,
        Some(_) => Some(args.num("job-timeout-ms", 0)?),
    };
    let mut progress = harness::progress::Stderr::new(campaign.jobs.len());
    let artifact = harness::execute_campaign_resume(
        &campaign,
        prior.as_ref(),
        workers,
        timeout_ms,
        &mut progress,
    );
    std::fs::create_dir_all(dir)
        .map_err(|e| ArgError(format!("cannot create {}: {e}", dir.display())))?;
    let path = dir.join(artifact.file_name());
    std::fs::write(&path, artifact.to_json_string())
        .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    let failed = artifact.jobs.iter().filter(|j| !j.is_ok()).count();
    // Write the sanitizer report before any early exit so CI can archive
    // it even when jobs failed.
    let level = sanitize_level(args)?;
    let audit_clean = if level == SanitizeLevel::Off {
        true
    } else {
        write_audit_report(dir, &artifact, level)?
    };
    if failed > 0 {
        eprintln!("{failed} job(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    if !audit_clean {
        return Ok(ExitCode::FAILURE);
    }
    if let Some(baseline_path) = args.get("baseline") {
        return gate(baseline_path, &artifact, args);
    }
    Ok(ExitCode::SUCCESS)
}

/// `hwdp chaos`: seeded random fault campaign through the differential
/// recovery oracle. Writes `CHAOS_<name>.json` and exits nonzero when any
/// plan broke the recovery contract.
fn chaos_cmd(args: &Args) -> Result<ExitCode, ArgError> {
    let mut cfg =
        harness::ChaosConfig::new(args.get("name").unwrap_or("chaos"), args.num("seed", 42)?);
    cfg.jobs = args.num("jobs", 8)? as usize;
    cfg.crashes = !args.flag("no-crashes");
    if args.get("sanitize").is_some() {
        cfg.sanitize = sanitize_level(args)?;
    }
    eprintln!(
        "chaos campaign '{}': {} plan(s), crashes {}",
        cfg.name,
        cfg.jobs,
        if cfg.crashes { "on" } else { "off" },
    );
    let mut progress = harness::progress::Stderr::new(cfg.jobs);
    let report = harness::run_chaos(&cfg, &mut progress);
    let dir = std::path::Path::new(args.get("out").unwrap_or("."));
    std::fs::create_dir_all(dir)
        .map_err(|e| ArgError(format!("cannot create {}: {e}", dir.display())))?;
    let path = dir.join(report.file_name());
    std::fs::write(&path, report.to_json().pretty())
        .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    println!(
        "{} controller reset(s), {} in-flight command(s) lost, {} oracle mismatch(es)",
        report.controller_resets, report.crash_ios_lost, report.oracle_mismatches,
    );
    if !report.is_clean() {
        for f in &report.failures {
            eprintln!(
                "plan {} ({}): {} — minimal reproducer: --faults {} --seed {}",
                f.index, f.label, f.reason, f.minimal_faults, f.seed,
            );
        }
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes `AUDIT_<campaign>.json` summarizing hwdp-audit violations found
/// across the campaign's jobs. Returns `true` when every invariant held.
fn write_audit_report(
    dir: &std::path::Path,
    artifact: &harness::Artifact,
    level: SanitizeLevel,
) -> Result<bool, ArgError> {
    let mut by_invariant = std::collections::BTreeMap::<String, f64>::new();
    for job in &artifact.jobs {
        for (k, v) in &job.metrics {
            if let Some(name) = k.strip_prefix("sanitize/") {
                *by_invariant.entry(name.to_string()).or_insert(0.0) += v;
            }
        }
    }
    let total: f64 = by_invariant.values().sum();
    let json = harness::Json::obj([
        ("campaign", harness::Json::str(artifact.campaign.clone())),
        ("level", harness::Json::str(level.name())),
        ("jobs", harness::Json::Num(artifact.jobs.len() as f64)),
        ("violations_total", harness::Json::Num(total)),
        (
            "violations",
            harness::Json::Obj(
                by_invariant.into_iter().map(|(k, v)| (k, harness::Json::Num(v))).collect(),
            ),
        ),
    ]);
    let path = dir.join(format!("AUDIT_{}.json", artifact.campaign));
    std::fs::write(&path, json.pretty())
        .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    if total > 0.0 {
        eprintln!("hwdp-audit: {total} invariant violation(s) detected");
        Ok(false)
    } else {
        Ok(true)
    }
}

fn compare_cmd(args: &Args) -> Result<ExitCode, ArgError> {
    let baseline_path =
        args.get("baseline").ok_or_else(|| ArgError("compare needs --baseline FILE".into()))?;
    let current_path =
        args.get("current").ok_or_else(|| ArgError("compare needs --current FILE".into()))?;
    let current = read_artifact(current_path)?;
    gate(baseline_path, &current, args)
}

fn read_artifact(path: &str) -> Result<harness::Artifact, ArgError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    harness::Artifact::parse(&text).map_err(|e| ArgError(format!("{path}: {e}")))
}

/// Compares `current` against the artifact stored at `baseline_path` and
/// converts the verdict into an exit code (nonzero on regression).
fn gate(baseline_path: &str, current: &harness::Artifact, args: &Args) -> Result<ExitCode, ArgError> {
    let baseline = read_artifact(baseline_path)?;
    let thresholds = harness::Thresholds {
        relative: args.float("threshold", 5.0)? / 100.0,
        ..harness::Thresholds::default()
    };
    let report = harness::compare::compare(&baseline, current, &thresholds);
    print!("{}", report.render());
    Ok(if report.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `hwdp lint [--json] [--deny] [--rules] [--metric-keys] [--call-graph]
/// [--root DIR] [--write-baseline]`.
fn lint_cmd(args: &Args) -> Result<ExitCode, ArgError> {
    if args.flag("rules") {
        println!("{:<20} {:<34} {}", "RULE", "SCOPE", "GUARDS AGAINST");
        for r in &hwdp_lint::rules::RULES {
            println!("{:<20} {:<34} {}", r.id, r.scope, r.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let root = match args.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| ArgError(format!("cannot determine working directory: {e}")))?;
            hwdp_lint::find_workspace_root(&cwd).ok_or_else(|| {
                ArgError("no workspace root found upward of here; pass --root DIR".into())
            })?
        }
    };
    if args.flag("metric-keys") {
        let keys = hwdp_lint::metric_registry(&root)
            .map_err(|e| ArgError(format!("lint failed under {}: {e}", root.display())))?;
        print!("{}", hwdp_lint::registry_to_json(&keys).pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if args.flag("call-graph") {
        let graph = hwdp_lint::call_graph(&root)
            .map_err(|e| ArgError(format!("lint failed under {}: {e}", root.display())))?;
        print!("{}", hwdp_lint::graph_to_json(&graph).pretty());
        return Ok(ExitCode::SUCCESS);
    }
    let report = hwdp_lint::lint_workspace(&root)
        .map_err(|e| ArgError(format!("lint failed under {}: {e}", root.display())))?;

    if args.flag("write-baseline") {
        let path = hwdp_lint::baseline_path(&root);
        std::fs::write(&path, hwdp_lint::baseline::render(&report.findings))
            .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
        println!(
            "wrote {} ({} finding(s) grandfathered)",
            path.display(),
            report.findings.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let baseline_file = hwdp_lint::baseline_path(&root);
    let entries = match std::fs::read_to_string(&baseline_file) {
        Ok(text) => hwdp_lint::baseline::parse(&text)
            .map_err(|e| ArgError(format!("{}: {e}", baseline_file.display())))?,
        Err(_) => Vec::new(),
    };
    let outcome = hwdp_lint::baseline::apply(report.findings.clone(), &entries);

    if args.flag("json") {
        let stripped = hwdp_lint::Report {
            findings: outcome.remaining.clone(),
            inline_suppressed: report.inline_suppressed,
            files_scanned: report.files_scanned,
        };
        print!("{}", stripped.to_json(outcome.grandfathered, outcome.stale.len()).pretty());
    } else {
        for f in &outcome.remaining {
            println!("{}", f.render());
        }
        for (entry, actual) in &outcome.stale {
            eprintln!(
                "stale baseline budget '{} {} {}' (now {actual}); tighten it or run --write-baseline",
                entry.count, entry.rule, entry.path
            );
        }
        eprintln!(
            "lint: {} file(s), {} finding(s), {} inline-suppressed, {} grandfathered",
            report.files_scanned,
            outcome.remaining.len(),
            report.inline_suppressed,
            outcome.grandfathered
        );
    }
    // A stale budget fails too: freed headroom would let findings regrow.
    if args.flag("deny") && !(outcome.remaining.is_empty() && outcome.stale.is_empty()) {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn builder(args: &Args) -> Result<(SystemBuilder, usize, u64, u64), ArgError> {
    let memory = args.num("memory", 1024)? as usize;
    let threads = args.num("threads", 1)? as usize;
    let ratio = args.num("ratio", 4)?;
    let ops = args.num("ops", 2000)?;
    let mut b = SystemBuilder::new(args.mode()?)
        .memory_frames(memory)
        .device(args.device()?)
        .kpted_period(Duration::from_millis(1))
        .sanitize(sanitize_level(args)?)
        .seed(args.num("seed", 42)?);
    if let Some(faults) = fault_config(args)? {
        b = b.faults(faults);
    }
    if let Some(tiers) = tier_spec(args)? {
        b = b.tiers(tiers.to_config());
    }
    Ok((b, threads, ratio, ops))
}

fn report(label: &str, r: &RunResult) {
    println!("== {label} ==");
    println!("  elapsed          {}", r.elapsed);
    println!("  operations       {}  ({:.0} ops/s)", r.ops, r.throughput_ops_s());
    println!(
        "  read latency     mean {}  p50 {}  p99 {}",
        r.read_latency.mean(),
        r.read_latency.percentile(0.5),
        r.read_latency.percentile(0.99)
    );
    println!(
        "  page misses      {} (mean {})",
        r.miss_latency.count(),
        r.miss_latency.mean()
    );
    println!(
        "  handled by       hardware {}  OS major {}  OS minor {}  zero-fill {}",
        r.smu.completed, r.os.major_faults, r.os.minor_faults, r.smu.zero_fills
    );
    println!(
        "  device           {} reads, {} writes; {} evictions, {} writebacks",
        r.device_reads, r.device_writes, r.os.evictions, r.os.writebacks
    );
    println!("  user IPC         {:.3}", r.user_ipc());
    println!(
        "  kernel instr     app {}  kpted {}  kpoold {}",
        r.kernel.app_kernel_instr, r.kernel.kpted_instr, r.kernel.kpoold_instr
    );
    if r.smu_prefetches + r.readahead_reads > 0 {
        println!(
            "  prefetching      SMU {}  OS readahead {}",
            r.smu_prefetches, r.readahead_reads
        );
    }
    let p = &r.perf;
    if p.io_retries + p.io_timeouts + p.smu_fallbacks_fault + p.io_errors_surfaced > 0 {
        println!(
            "  fault recovery   {} retries, {} timeouts, {} SMU fallbacks, {} errors surfaced",
            p.io_retries, p.io_timeouts, p.smu_fallbacks_fault, p.io_errors_surfaced
        );
    }
    if r.threads.len() > 1 {
        for (i, t) in r.threads.iter().enumerate() {
            let hw = t
                .hw_context
                .map_or_else(|| "-".to_string(), |h| format!("{h}"));
            println!(
                "  thread {i:<2}        {:<12} hw {hw:<3} ops {:<8} IPC {:.3} (adj {:.3}, warmth {:.2})",
                t.name,
                t.ops,
                t.user_ipc(),
                t.adjusted_user_ipc(),
                t.pollution_warmth
            );
        }
    }
    if let Some(t) = &r.tier {
        println!(
            "  tiering          {} promotions, {} demotions, {} aborts; fast-hit {:.1}% ({:.1}% -> {:.1}%)",
            t.promotions,
            t.demotions,
            t.aborts,
            t.fast_hit_ratio * 100.0,
            t.fast_hit_ratio_early * 100.0,
            t.fast_hit_ratio_late * 100.0
        );
    }
    match r.verify_failures() {
        0 => println!("  data integrity   ok (every read verified)"),
        n => println!("  data integrity   {n} FAILURES"),
    }
    if r.audit.checks > 0 {
        match r.audit.violations.len() {
            0 => println!("  hwdp-audit       clean ({} invariant checks)", r.audit.checks),
            n => {
                println!("  hwdp-audit       {n} VIOLATION(S) in {} checks", r.audit.checks);
                for v in r.audit.violations.iter().take(8) {
                    println!("                   {v}");
                }
            }
        }
    }
}

fn fio(args: &Args) -> Result<(), ArgError> {
    let (mut b, threads, ratio, ops) = builder(args)?;
    b = b
        .smu_prefetch_pages(args.num("prefetch", 0)? as usize)
        .readahead_pages(args.num("readahead", 0)? as usize);
    let mut sys = b.build();
    let pages = (sys.config().memory_frames as u64) * ratio;
    let file = sys.create_pattern_file("fio-data", pages);
    let region = sys.map_file(file);
    for i in 0..threads {
        let w: Box<dyn Workload> = if args.flag("seq") {
            Box::new(FioSeqRead::new(region, pages, ops))
        } else {
            Box::new(FioRandRead::new(region, pages, ops, Prng::seed_from(1000 + i as u64)))
        };
        sys.spawn(w, 1.8, None);
    }
    let r = sys.run(Duration::from_secs(120));
    report(
        &format!(
            "fio {} / {} / {} threads / dataset {ratio}x memory",
            if args.flag("seq") { "seqread" } else { "randread" },
            sys.config().mode.label(),
            threads
        ),
        &r,
    );
    Ok(())
}

fn kv(args: &Args) -> Result<(), ArgError> {
    let (b, threads, ratio, ops) = builder(args)?;
    let mut sys = b.build();
    let records = (sys.config().memory_frames as u64) * ratio;
    let capacity = records + records / 4;
    let file = sys.create_kv_file("db", records, capacity);
    let region = sys.map_file(file);
    let label;
    // One key distribution per run, cloned into each YCSB client.
    let ycsb = match args.command.as_str() {
        "dbbench" => None,
        _ => Some((args.ycsb_kind()?, Ycsb::popularity(records))),
    };
    for i in 0..threads {
        let db = MiniDb::new(region, records, capacity);
        let rng = Prng::seed_from(2000 + i as u64);
        let w: Box<dyn Workload> = match &ycsb {
            Some((kind, keys)) => Box::new(Ycsb::with_keys(*kind, db, keys.clone(), ops, rng)),
            None => Box::new(DbBenchReadRandom::new(db, ops, rng)),
        };
        sys.spawn(w, 1.6, None);
    }
    label = format!(
        "{} / {} / {} threads / dataset {ratio}x memory",
        if args.command == "dbbench" {
            "dbbench readrandom".to_string()
        } else {
            format!("ycsb-{}", args.get("kind").unwrap_or("c"))
        },
        sys.config().mode.label(),
        threads
    );
    let r = sys.run(Duration::from_secs(120));
    report(&label, &r);
    Ok(())
}

fn anon(args: &Args) -> Result<(), ArgError> {
    let (b, threads, ratio, ops) = builder(args)?;
    let mut sys = b.build();
    let pages = (sys.config().memory_frames as u64) * ratio;
    let region = sys.map_anon(pages);
    for i in 0..threads {
        sys.spawn(
            Box::new(ScratchChurn::new(region, pages, ops, Prng::seed_from(3000 + i as u64))),
            1.6,
            None,
        );
    }
    let r = sys.run(Duration::from_secs(120));
    report(
        &format!(
            "anonymous churn / {} / {} threads / region {ratio}x memory",
            sys.config().mode.label(),
            threads
        ),
        &r,
    );
    Ok(())
}

fn anatomy(args: &Args) -> Result<(), ArgError> {
    let dev = args.device()?;
    println!("single page-miss anatomy on {} (4 KiB read: {}):\n", dev.name, dev.read_4k);
    for a in [
        osdp_anatomy(&hwdp_os::costs::OsdpCosts::paper_default(), &dev),
        swonly_anatomy(&hwdp_os::costs::SwOnlyCosts::paper_default(), &dev),
        hwdp_anatomy(&hwdp_smu::timing::SmuTiming::paper_default(), &dev),
    ] {
        println!("{:<8} total {}  (host overhead {})", a.scheme, a.total(), a.overhead());
        for c in &a.components {
            println!("    {:<34} {}", c.label, c.time);
        }
        println!();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `HELP` names `--name` as a whole option, not as the prefix
    /// of a longer one.
    fn help_mentions(name: &str) -> bool {
        let option = format!("--{name}");
        HELP.match_indices(&option).any(|(at, _)| {
            let rest = &HELP[at + option.len()..];
            !rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        })
    }

    #[test]
    fn help_lists_every_option_each_command_reads() {
        let listed = HELP.split("COMMANDS:\n").nth(1).expect("a COMMANDS section");
        let commands: Vec<&str> = listed
            .lines()
            .take_while(|line| !line.is_empty())
            .filter_map(|line| line.strip_prefix("  "))
            .filter(|line| !line.starts_with(' '))
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        assert!(commands.contains(&"ycsb") && commands.contains(&"lint"), "{commands:?}");
        for command in commands {
            let (options, flags) = declared(command).expect("every listed command runs");
            for name in options.iter().flat_map(|group| group.iter()).chain(flags) {
                assert!(help_mentions(name), "`hwdp {command}` reads --{name}; help omits it");
            }
        }
    }
}
