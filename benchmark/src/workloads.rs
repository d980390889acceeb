//! The four benchmark workloads: campaign grids replicated over seeds
//! derived from the benchmark's `--seed`.
//!
//! Each stresses different layers; README.md gives the reasons. A round
//! is every job of the workload once. Each round holds at least 200
//! distinct jobs, so the p95 of per-job times has 10 samples beyond it,
//! and the job sizes and seed counts make a round take about
//! [`ROUND_SECONDS`]: short rounds buy many of them, and each job's
//! fastest round is what the job percentiles use.
//!
//! Job times cluster by configuration. Where the clusters are far apart
//! (dataset ratio, threads), a grid has one or three sizes, never two or
//! four, so the median job falls inside a cluster rather than in the gap
//! between two, where it would jump from run to run.

use hwdp_core::Mode;
use hwdp_harness::seed::job_seed;
use hwdp_harness::{Campaign, Grid, JobSpec, Scenario, TierSpec};
use hwdp_nvme::fault::FaultConfig;
use hwdp_sim::SanitizeLevel;
use hwdp_workloads::YcsbKind;

/// Host seconds a round of each workload took, with 2 workers, on the
/// 2-vCPU machine its sizes were chosen on. `--seconds` buys
/// `--seconds / ROUND_SECONDS` timed rounds.
pub const ROUND_SECONDS: f64 = 1.0;

/// The storage a workload's grid runs on, and how many campaign seeds
/// it runs there in a round.
struct Storage {
    /// `--tiers` syntax, when the jobs run tiered storage.
    tiers: Option<&'static str>,
    /// `--faults` syntax, when the jobs inject device faults.
    faults: Option<&'static str>,
    /// Campaign seeds per round; the grid is expanded once per seed.
    seeds: usize,
}

impl Storage {
    /// One device, no faults.
    const fn plain(seeds: usize) -> Storage {
        Storage {
            tiers: None,
            faults: None,
            seeds,
        }
    }
}

/// One campaign grid and the storage it runs on.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    scenarios: &'static [Scenario],
    threads: &'static [usize],
    ratios: &'static [f64],
    memory_frames: usize,
    ops: u64,
    storage: &'static [Storage],
    sanitize: SanitizeLevel,
}

const YCSB_A: Scenario = Scenario::Ycsb(YcsbKind::A);
const YCSB_C: Scenario = Scenario::Ycsb(YcsbKind::C);
const YCSB_F: Scenario = Scenario::Ycsb(YcsbKind::F);

/// Every workload, in the order `run` and `trace` visit them.
pub const WORKLOADS: [Workload; 4] = [
    // The YCSB-C half of the CI seed grid, with dataset ratio 3 added:
    // per-job fixed costs dominate. Its fio half would put fio and YCSB
    // jobs of one ratio in clusters of their own, an even number of them.
    Workload {
        name: "sweep-short",
        scenarios: &[YCSB_C],
        threads: &[1, 2],
        ratios: &[2.0, 3.0, 4.0],
        memory_frames: 256,
        ops: 150,
        storage: &[Storage::plain(21)],
        sanitize: SanitizeLevel::Off,
    },
    // Read-only miss path; the event loop dominates. Small memory keeps
    // the end-of-run digest, which grows with the dataset, to a quarter
    // of the job while a round stays short.
    Workload {
        name: "fio-long",
        scenarios: &[Scenario::FioRand],
        threads: &[2],
        ratios: &[2.0, 3.0, 4.0],
        memory_frames: 64,
        ops: 500,
        storage: &[Storage::plain(35)],
        sanitize: SanitizeLevel::Off,
    },
    // Updates and read-modify-writes: evictions write back.
    Workload {
        name: "ycsb-write",
        scenarios: &[YCSB_A, YCSB_F],
        threads: &[2],
        ratios: &[2.0, 3.0, 4.0],
        memory_frames: 128,
        ops: 3000,
        storage: &[Storage::plain(18)],
        sanitize: SanitizeLevel::Off,
    },
    // Tier migration, the recovery ladder and the full audit. Tiers and
    // faults run in separate jobs: with both on, about one job in a few
    // thousand reads wrong data without a surfaced I/O error (a simulator
    // defect, README.md), which would fail the correctness check.
    Workload {
        name: "tier-faults",
        scenarios: &[YCSB_C, YCSB_F],
        threads: &[2],
        ratios: &[4.0],
        memory_frames: 128,
        ops: 2000,
        storage: &[
            Storage {
                tiers: Some("fast:pmm,slow:zssd,policy:lru"),
                faults: None,
                seeds: 18,
            },
            Storage {
                tiers: None,
                faults: Some("media=0.02,delay=0.02x20,drop=0.01,qfull=0.02x4"),
                seeds: 35,
            },
        ],
        sanitize: SanitizeLevel::Full,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The round's jobs: on each storage, the grid expanded once per
    /// campaign seed (a sixteenth of them, at least one, in quick mode),
    /// the campaign seeds derived from `seed`.
    pub fn campaign(&self, seed: u64, quick: bool) -> Campaign {
        let mut jobs: Vec<JobSpec> = Vec::new();
        for storage in self.storage {
            let seeds = if quick {
                storage.seeds.div_ceil(16)
            } else {
                storage.seeds
            };
            for i in 0..seeds as u64 {
                jobs.extend(self.grid(job_seed(seed, i), storage).expand().jobs);
            }
        }
        self.largest_first(seed, jobs)
    }

    /// One job of each configuration: the jobs of the first campaign seed
    /// on each storage.
    pub fn warm_up(&self, seed: u64) -> Campaign {
        let jobs = self
            .storage
            .iter()
            .flat_map(|storage| self.grid(job_seed(seed, 0), storage).expand().jobs)
            .collect();
        self.largest_first(seed, jobs)
    }

    /// The campaign of `jobs`, largest (threads x dataset ratio) first, so
    /// a pass does not end with one worker finishing a long job while the
    /// other idles, and its length does not hang on which worker drew which
    /// job. In grid order the six-job warm-up pass of `fio-long` took
    /// either about 28 or about 35 ms.
    fn largest_first(&self, seed: u64, mut jobs: Vec<JobSpec>) -> Campaign {
        jobs.sort_by(|a, b| (b.threads as f64 * b.ratio).total_cmp(&(a.threads as f64 * a.ratio)));
        Campaign {
            name: self.name.to_string(),
            seed,
            jobs,
        }
    }

    fn grid(&self, campaign_seed: u64, storage: &Storage) -> Grid {
        let mut grid = Grid::new(self.name, campaign_seed)
            .scenarios(self.scenarios.iter().copied())
            .modes([Mode::Osdp, Mode::Hwdp])
            .threads(self.threads.iter().copied())
            .ratios(self.ratios.iter().copied())
            .memory_frames(self.memory_frames)
            .ops(self.ops)
            .sanitize(self.sanitize);
        if let Some(tiers) = storage.tiers {
            grid = grid.tiers(TierSpec::parse(tiers).expect("workload tier spec parses"));
        }
        if let Some(faults) = storage.faults {
            grid = grid.faults(FaultConfig::parse(faults).expect("workload fault plan parses"));
        }
        grid
    }
}
