//! The `BENCH_<campaign>.json` result artifact.
//!
//! Schema (version 1):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "campaign": "smoke",
//!   "seed": "0x000000000000002a",
//!   "jobs": [
//!     {
//!       "index": 0,
//!       "status": "ok",
//!       "wall_ms": 12.5,
//!       "config": { "scenario": "fio", "mode": "HWDP", ... },
//!       "metrics": { "elapsed_ns": 1.0e9, "ops": 1500, ... }
//!     }
//!   ]
//! }
//! ```
//!
//! Everything except `wall_ms` is a deterministic function of the campaign
//! definition; [`Artifact::canonical_string`] zeroes the wall-time fields
//! so artifacts from different worker counts (or machines) compare
//! byte-for-byte equal.

use crate::json::{Json, ParseError};
use crate::spec::JobSpec;

/// Artifact schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// How a job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed; metrics are valid.
    Ok,
    /// Panicked; the payload is the panic message.
    Failed(String),
}

/// One job's result inside an artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Position in the campaign's job list.
    pub index: usize,
    /// The job's full configuration.
    pub spec: JobSpec,
    /// Completion status.
    pub status: JobStatus,
    /// Flattened metrics (empty for failed jobs).
    pub metrics: Vec<(String, f64)>,
    /// Host wall time spent on the job, in milliseconds (not
    /// deterministic; excluded from canonical comparison).
    pub wall_ms: f64,
}

impl JobRecord {
    /// Whether the job completed.
    pub fn is_ok(&self) -> bool {
        self.status == JobStatus::Ok
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    fn to_json(&self) -> Json {
        let status = match &self.status {
            JobStatus::Ok => Json::str("ok"),
            JobStatus::Failed(msg) => Json::obj([("failed", Json::str(msg.clone()))]),
        };
        // Per-thread metrics (flat `thread/<i>/<name>` keys) render as a
        // `threads` array of objects; everything else stays in `metrics`.
        // Single-thread jobs have no such keys and no `threads` field, so
        // their records are byte-identical to the pre-thread-report schema.
        let mut plain: Vec<(String, Json)> = Vec::new();
        let mut threads: Vec<Vec<(String, Json)>> = Vec::new();
        for (k, v) in &self.metrics {
            match split_thread_key(k) {
                Some((i, name)) => {
                    while threads.len() <= i {
                        threads.push(Vec::new());
                    }
                    threads[i].push((name.to_string(), Json::Num(*v)));
                }
                None => plain.push((k.clone(), Json::Num(*v))),
            }
        }
        let mut fields = vec![
            ("index", Json::Num(self.index as f64)),
            ("status", status),
            ("wall_ms", Json::Num(self.wall_ms)),
            ("config", self.spec.to_json()),
            ("metrics", Json::Obj(plain)),
        ];
        if !threads.is_empty() {
            fields.push(("threads", Json::Arr(threads.into_iter().map(Json::Obj).collect())));
        }
        Json::obj(fields)
    }
}

/// A complete campaign result set.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// Campaign name.
    pub campaign: String,
    /// Campaign master seed.
    pub seed: u64,
    /// Per-job records in campaign order.
    pub jobs: Vec<JobRecord>,
}

impl Artifact {
    /// The conventional file name for this artifact.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.campaign)
    }

    /// Serializes to pretty JSON (with real wall times).
    pub fn to_json_string(&self) -> String {
        self.render(false)
    }

    /// Serializes with every `wall_ms` zeroed: the canonical form used for
    /// determinism checks — byte-identical across worker counts and hosts.
    pub fn canonical_string(&self) -> String {
        self.render(true)
    }

    fn render(&self, canonical: bool) -> String {
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                if canonical {
                    let mut j = j.clone();
                    j.wall_ms = 0.0;
                    j.to_json()
                } else {
                    j.to_json()
                }
            })
            .collect();
        Json::obj([
            ("schema", Json::Num(SCHEMA_VERSION as f64)),
            ("campaign", Json::str(self.campaign.clone())),
            ("seed", Json::Str(format!("{:#018x}", self.seed))),
            ("jobs", Json::Arr(jobs)),
        ])
        .pretty()
    }

    /// Parses an artifact back from JSON text (e.g. a stored baseline).
    ///
    /// Only the fields the comparator needs are reconstructed
    /// structurally; job configs are re-read for labels, and metrics in
    /// full.
    pub fn parse(text: &str) -> Result<Artifact, ParseError> {
        let root = Json::parse(text)?;
        let bad = |msg: &str| ParseError { offset: 0, message: msg.to_string() };
        let schema = root.get("schema").and_then(Json::as_f64).ok_or_else(|| bad("missing schema"))?;
        if schema as u64 != SCHEMA_VERSION {
            return Err(bad(&format!("unsupported schema version {schema}")));
        }
        let campaign = root
            .get("campaign")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing campaign name"))?
            .to_string();
        let seed = parse_hex_seed(root.get("seed").and_then(Json::as_str))
            .ok_or_else(|| bad("missing or malformed seed"))?;
        let jobs_json = root.get("jobs").and_then(Json::as_arr).ok_or_else(|| bad("missing jobs"))?;
        let mut jobs = Vec::with_capacity(jobs_json.len());
        for (i, j) in jobs_json.iter().enumerate() {
            jobs.push(parse_job(j, i).map_err(|msg| bad(&format!("job {i}: {msg}")))?);
        }
        Ok(Artifact { campaign, seed, jobs })
    }
}

fn parse_hex_seed(s: Option<&str>) -> Option<u64> {
    let s = s?.strip_prefix("0x")?;
    u64::from_str_radix(s, 16).ok()
}

/// Splits a flat per-thread metric key `thread/<i>/<name>` into
/// `(i, name)`; `None` for ordinary metric names.
fn split_thread_key(key: &str) -> Option<(usize, &str)> {
    let rest = key.strip_prefix("thread/")?;
    let (index, name) = rest.split_once('/')?;
    Some((index.parse().ok()?, name))
}

fn parse_job(j: &Json, fallback_index: usize) -> Result<JobRecord, String> {
    use crate::spec::{DeviceKind, Scenario};
    use hwdp_core::Mode;

    let index = j.get("index").and_then(Json::as_f64).map_or(fallback_index, |n| n as usize);
    let status = match j.get("status") {
        Some(Json::Str(s)) if s == "ok" => JobStatus::Ok,
        Some(obj) => JobStatus::Failed(
            obj.get("failed").and_then(Json::as_str).unwrap_or("unknown failure").to_string(),
        ),
        None => return Err("missing status".into()),
    };
    let wall_ms = j.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
    let cfg = j.get("config").ok_or("missing config")?;
    let req_str = |key: &str| cfg.get(key).and_then(Json::as_str).ok_or(format!("missing {key}"));
    let req_num = |key: &str| cfg.get(key).and_then(Json::as_f64).ok_or(format!("missing {key}"));
    let opt_num = |key: &str| cfg.get(key).and_then(Json::as_f64);

    let scenario = Scenario::parse(req_str("scenario")?).ok_or("unknown scenario")?;
    let mode = match req_str("mode")? {
        "OSDP" => Mode::Osdp,
        "HWDP" => Mode::Hwdp,
        "SW-only" => Mode::SwOnly,
        other => return Err(format!("unknown mode {other}")),
    };
    let device = DeviceKind::parse(req_str("device")?)?;
    let seed = parse_hex_seed(cfg.get("seed").and_then(Json::as_str)).ok_or("malformed seed")?;

    let spec = JobSpec {
        scenario,
        mode,
        device,
        threads: req_num("threads")? as usize,
        pin: opt_num("pin").map(|n| n as usize),
        repeats: opt_num("repeats").map_or(1, |n| n as u32),
        ratio: req_num("ratio")?,
        memory_frames: req_num("memory_frames")? as usize,
        ops: req_num("ops")? as u64,
        pmshr_entries: opt_num("pmshr_entries").map(|n| n as usize),
        free_queue_depth: opt_num("free_queue_depth").map(|n| n as usize),
        kpoold_enabled: matches!(cfg.get("kpoold_enabled"), Some(Json::Bool(true))),
        kpoold_period_us: opt_num("kpoold_period_us").map(|n| n as u64),
        kpted_period_us: req_num("kpted_period_us")? as u64,
        readahead_pages: req_num("readahead_pages")? as usize,
        smu_prefetch_pages: req_num("smu_prefetch_pages")? as usize,
        per_core_free_queues: matches!(cfg.get("per_core_free_queues"), Some(Json::Bool(true))),
        long_io_timeout_us: opt_num("long_io_timeout_us").map(|n| n as u64),
        time_cap_ms: req_num("time_cap_ms")? as u64,
        faults: match cfg.get("faults").and_then(Json::as_str) {
            Some(s) => Some(
                hwdp_nvme::fault::FaultConfig::parse(s)
                    .ok_or(format!("malformed faults: {s}"))?,
            ),
            None => None,
        },
        tiers: match cfg.get("tiers").and_then(Json::as_str) {
            Some(s) => Some(
                crate::spec::TierSpec::parse(s)
                    .map_err(|e| format!("malformed tiers: {e}"))?,
            ),
            None => None,
        },
        seed,
        // Not serialized (observation-only knobs); parsed specs default to
        // no sanitizing and no throughput export.
        sanitize: hwdp_sim::SanitizeLevel::Off,
        throughput: false,
    };

    let mut metrics: Vec<(String, f64)> = match j.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    };
    // Fold the `threads` array back into flat `thread/<i>/<name>` keys.
    // The runner always appends per-thread keys after plain metrics, so
    // appending here round-trips the metric vector exactly.
    if let Some(Json::Arr(threads)) = j.get("threads") {
        for (i, t) in threads.iter().enumerate() {
            if let Json::Obj(pairs) = t {
                for (k, v) in pairs {
                    if let Some(n) = v.as_f64() {
                        metrics.push((format!("thread/{i}/{k}"), n));
                    }
                }
            }
        }
    }
    Ok(JobRecord { index, spec, status, metrics, wall_ms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DeviceKind, Scenario};
    use hwdp_core::Mode;

    fn sample() -> Artifact {
        let mut spec = JobSpec::new(Scenario::Ycsb(hwdp_workloads::YcsbKind::C), Mode::Hwdp, 0xABCD_EF01_2345_6789);
        spec.device = DeviceKind::OptaneSsd;
        spec.pmshr_entries = Some(64);
        spec.long_io_timeout_us = Some(25);
        Artifact {
            campaign: "unit".into(),
            seed: 42,
            jobs: vec![
                JobRecord {
                    index: 0,
                    spec,
                    status: JobStatus::Ok,
                    metrics: vec![("ops".into(), 1500.0), ("user_ipc".into(), 1.25)],
                    wall_ms: 12.5,
                },
                JobRecord {
                    index: 1,
                    spec: JobSpec::new(Scenario::FioRand, Mode::Osdp, 7),
                    status: JobStatus::Failed("boom".into()),
                    metrics: Vec::new(),
                    wall_ms: 3.0,
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let a = sample();
        let parsed = Artifact::parse(&a.to_json_string()).unwrap();
        assert_eq!(parsed, a);
    }

    /// The canonical spec-knob round-trip: every `JobSpec` field is set to a
    /// non-default value and must survive serialize → parse exactly. Adding
    /// a knob without extending this test trips `spec-knob-consistency`.
    #[test]
    fn every_knob_round_trips_through_json() {
        let mut spec = JobSpec::new(Scenario::FioRand, Mode::Hwdp, 0x99);
        spec.device = DeviceKind::OptanePmm;
        spec.threads = 3;
        spec.pin = Some(2);
        spec.repeats = 4;
        spec.ratio = 8.0;
        spec.memory_frames = 2048;
        spec.ops = 555;
        spec.pmshr_entries = Some(16);
        spec.free_queue_depth = Some(12);
        spec.kpoold_enabled = false;
        spec.kpoold_period_us = Some(750);
        spec.kpted_period_us = 20_000;
        spec.readahead_pages = 8;
        spec.smu_prefetch_pages = 4;
        spec.per_core_free_queues = true;
        spec.long_io_timeout_us = Some(50);
        spec.time_cap_ms = 1234;
        let a = Artifact {
            campaign: "knobs".into(),
            seed: 0x99,
            jobs: vec![JobRecord {
                index: 0,
                spec,
                status: JobStatus::Ok,
                metrics: Vec::new(),
                wall_ms: 0.0,
            }],
        };
        let parsed = Artifact::parse(&a.to_json_string()).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn canonical_form_zeroes_wall_time_only() {
        let a = sample();
        let mut b = a.clone();
        b.jobs[0].wall_ms = 9999.0;
        assert_ne!(a.to_json_string(), b.to_json_string());
        assert_eq!(a.canonical_string(), b.canonical_string());
    }

    #[test]
    fn file_name_follows_convention() {
        assert_eq!(sample().file_name(), "BENCH_unit.json");
    }

    #[test]
    fn tiers_round_trip_and_stay_absent_when_unset() {
        let mut a = sample();
        a.jobs[0].spec.tiers =
            Some(crate::spec::TierSpec::parse("fast:pmm,slow:zssd,cap:10").unwrap());
        let text = a.to_json_string();
        assert!(text.contains("\"tiers\": \"fast:pmm,slow:zssd,cap:10\""));
        let parsed = Artifact::parse(&text).unwrap();
        assert_eq!(parsed, a);
        // The tierless job in the same artifact carries no tiers field.
        let tierless = sample();
        assert!(!tierless.to_json_string().contains("tiers"));
    }

    #[test]
    fn seed_survives_full_u64_range() {
        let mut a = sample();
        a.jobs[0].spec.seed = u64::MAX;
        a.seed = u64::MAX - 3;
        let parsed = Artifact::parse(&a.to_json_string()).unwrap();
        assert_eq!(parsed.jobs[0].spec.seed, u64::MAX);
        assert_eq!(parsed.seed, u64::MAX - 3);
    }

    #[test]
    fn per_thread_metrics_round_trip_through_threads_array() {
        let mut a = sample();
        a.jobs[0].metrics = vec![
            ("ops".into(), 300.0),
            ("user_ipc".into(), 1.4),
            ("thread/0/ops".into(), 150.0),
            ("thread/0/user_ipc".into(), 1.5),
            ("thread/1/ops".into(), 150.0),
            ("thread/1/user_ipc".into(), 1.3),
        ];
        let text = a.to_json_string();
        assert!(text.contains("\"threads\": ["), "multi-thread jobs grow a threads array");
        assert!(!text.contains("thread/0"), "flat keys are structured, not copied verbatim");
        let parsed = Artifact::parse(&text).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn jobs_without_thread_metrics_have_no_threads_field() {
        let a = sample();
        assert!(!a.to_json_string().contains("\"threads\": ["));
    }

    #[test]
    fn pin_and_repeats_round_trip() {
        let mut a = sample();
        a.jobs[0].spec.pin = Some(2);
        a.jobs[0].spec.repeats = 5;
        let parsed = Artifact::parse(&a.to_json_string()).unwrap();
        assert_eq!(parsed.jobs[0].spec.pin, Some(2));
        assert_eq!(parsed.jobs[0].spec.repeats, 5);
        assert_eq!(parsed, a);
    }

    #[test]
    fn smt_corun_scenario_round_trips() {
        let mut a = sample();
        a.jobs[1].spec.scenario = Scenario::SmtCorun(crate::spec::SmtPartner::Xz);
        let parsed = Artifact::parse(&a.to_json_string()).unwrap();
        assert_eq!(parsed.jobs[1].spec.scenario, a.jobs[1].spec.scenario);
    }

    #[test]
    fn absent_pin_and_repeats_default_on_parse() {
        // Identity-exclusion: old artifacts (no pin/repeats fields) parse
        // to specs equal to freshly built defaults.
        let a = sample();
        let text = a.to_json_string();
        assert!(!text.contains("\"pin\""));
        assert!(!text.contains("\"repeats\""));
        let parsed = Artifact::parse(&text).unwrap();
        assert_eq!(parsed.jobs[0].spec.pin, None);
        assert_eq!(parsed.jobs[0].spec.effective_repeats(), 1);
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let text = sample().to_json_string().replace("\"schema\": 1", "\"schema\": 99");
        assert!(Artifact::parse(&text).is_err());
    }

    #[test]
    fn metric_lookup() {
        let a = sample();
        assert_eq!(a.jobs[0].metric("ops"), Some(1500.0));
        assert_eq!(a.jobs[0].metric("nope"), None);
        assert!(a.jobs[0].is_ok());
        assert!(!a.jobs[1].is_ok());
    }
}
