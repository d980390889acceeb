//! Shared experiment scaffolding: scaled system/workload setups.
//!
//! All scenarios preserve the paper's dataset:memory *ratios* (§VI runs
//! 64 GiB datasets against 32 GiB DRAM, i.e. 2:1) at simulation-friendly
//! absolute sizes. `Scale::default()` is used by `repro`; the Criterion
//! wrappers use `Scale::quick()`.

use hwdp_core::{HwId, Mode, RunResult, System, SystemBuilder};
use hwdp_sim::rng::Prng;
use hwdp_sim::time::Duration;
use hwdp_workloads::{
    DbBenchReadRandom, FioRandRead, MiniDb, RegionId, SpecKernel, SpecProfile, Workload, Ycsb,
    YcsbKind,
};

/// Experiment scale knobs.
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

/// Builds a system with a cold pattern-backed file of `dataset_pages`
/// mapped mode-appropriately. Returns the system and the region.
pub fn fio_system(mode: Mode, scale: &Scale, dataset_pages: u64) -> (System, RegionId) {
    let mut sys = SystemBuilder::new(mode)
        .memory_frames(scale.memory_frames)
        .kpted_period(Duration::from_millis(1))
        .seed(scale.seed)
        .build();
    let file = sys.create_pattern_file("fio-data", dataset_pages);
    let region = sys.map_file(file);
    (sys, region)
}

/// Runs FIO randread with `threads` threads over a dataset of
/// `ratio × memory`.
pub fn run_fio(mode: Mode, threads: usize, ratio: f64, scale: &Scale) -> RunResult {
    let pages = scale.dataset_pages(ratio);
    let (mut sys, region) = fio_system(mode, scale, pages);
    for i in 0..threads {
        let rng = Prng::seed_from(scale.seed ^ (0xF10 + i as u64));
        sys.spawn(
            Box::new(FioRandRead::new(region, pages, scale.ops_per_thread, rng)),
            1.8,
            None,
        );
    }
    sys.run(scale.time_cap)
}

/// The KV workloads of Fig. 13.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KvWorkload {
    /// DBBench `readrandom` (uniform keys).
    DbBench,
    /// A YCSB core workload.
    Ycsb(YcsbKind),
}

impl KvWorkload {
    /// Fig. 13's x-axis: FIO is run via [`run_fio`]; these are the rest.
    pub const ALL: [KvWorkload; 7] = [
        KvWorkload::DbBench,
        KvWorkload::Ycsb(YcsbKind::A),
        KvWorkload::Ycsb(YcsbKind::B),
        KvWorkload::Ycsb(YcsbKind::C),
        KvWorkload::Ycsb(YcsbKind::D),
        KvWorkload::Ycsb(YcsbKind::E),
        KvWorkload::Ycsb(YcsbKind::F),
    ];

    /// Display name.
    pub fn name(self) -> String {
        match self {
            KvWorkload::DbBench => "dbbench".into(),
            KvWorkload::Ycsb(k) => k.name().into(),
        }
    }
}

/// Runs a KV workload (dataset `ratio × memory`, default 2:1 as in §VI-C)
/// with `threads` client threads sharing one MiniDB.
pub fn run_kv(mode: Mode, w: KvWorkload, threads: usize, ratio: f64, scale: &Scale) -> RunResult {
    let records = scale.dataset_pages(ratio);
    let capacity = records + records / 4; // headroom for inserts (D/E)
    // Background sync must happen many times within the scaled run
    // (paper: 1 s period over minutes-long runs).
    let mut sys = SystemBuilder::new(mode)
        .memory_frames(scale.memory_frames)
        .kpted_period(Duration::from_millis(1))
        .seed(scale.seed)
        .build();
    let file = sys.create_kv_file("db", records, capacity);
    let region = sys.map_file(file);
    // One key distribution per run, cloned into each YCSB client.
    let ycsb = match w {
        KvWorkload::Ycsb(kind) => Some((kind, Ycsb::popularity(records))),
        KvWorkload::DbBench => None,
    };
    for i in 0..threads {
        let db = MiniDb::new(region, records, capacity);
        let rng = Prng::seed_from(scale.seed ^ (0x2B + i as u64));
        let workload: Box<dyn Workload> = match &ycsb {
            Some((kind, keys)) => {
                Box::new(Ycsb::with_keys(*kind, db, keys.clone(), scale.ops_per_thread, rng))
            }
            None => Box::new(DbBenchReadRandom::new(db, scale.ops_per_thread, rng)),
        };
        sys.spawn(workload, 1.6, None);
    }
    sys.run(scale.time_cap)
}

/// Results of one SMT co-location run (Fig. 16): FIO on hw thread 0,
/// a SPEC kernel on hw thread 1 of the same physical core.
#[derive(Clone, Debug)]
pub struct SmtCorun {
    /// FIO operations completed in the window.
    pub fio_ops: u64,
    /// FIO user instructions retired.
    pub fio_user_instr: u64,
    /// FIO total (user+kernel) instructions retired.
    pub fio_total_instr: u64,
    /// SPEC user-level IPC.
    pub spec_ipc: f64,
    /// SPEC instructions retired in the window.
    pub spec_instr: u64,
}

/// Runs the Fig. 16 co-location for `window` of virtual time.
pub fn run_smt_corun(mode: Mode, spec: SpecProfile, scale: &Scale, window: Duration) -> SmtCorun {
    let mut sys = SystemBuilder::new(mode)
        .physical_cores(1)
        .memory_frames(scale.memory_frames)
        .seed(scale.seed)
        .build();
    let pages = scale.dataset_pages(8.0);
    let file = sys.create_pattern_file("fio-data", pages);
    let region = sys.map_file(file);
    let rng = Prng::seed_from(scale.seed ^ 0x516);
    // Effectively unbounded ops; the window ends the run.
    sys.spawn(Box::new(FioRandRead::new(region, pages, u64::MAX / 2, rng)), 1.8, Some(HwId(0)));
    sys.spawn(Box::new(SpecKernel::new(spec)), spec.base_ipc, Some(HwId(1)));
    let r = sys.run(window);
    let fio = &r.threads[0];
    let sp = &r.threads[1];
    SmtCorun {
        fio_ops: fio.ops,
        fio_user_instr: fio.perf.user_instructions,
        fio_total_instr: fio.perf.total_instructions(),
        spec_ipc: sp.perf.user_ipc(),
        spec_instr: sp.perf.user_instructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fio_scenario_runs() {
        let r = run_fio(Mode::Hwdp, 1, 4.0, &Scale::quick());
        assert_eq!(r.ops, Scale::quick().ops_per_thread);
        assert_eq!(r.verify_failures(), 0);
    }

    #[test]
    fn kv_scenario_runs_all_workloads() {
        let mut scale = Scale::quick();
        scale.ops_per_thread = 150;
        for w in KvWorkload::ALL {
            let r = run_kv(Mode::Hwdp, w, 1, 2.0, &scale);
            assert_eq!(r.ops, 150, "{}", w.name());
            assert_eq!(r.verify_failures(), 0, "{}", w.name());
        }
    }

    #[test]
    fn smt_corun_produces_activity() {
        let r = run_smt_corun(
            Mode::Hwdp,
            SpecProfile::by_name("mcf").unwrap(),
            &Scale::quick(),
            Duration::from_millis(3),
        );
        assert!(r.fio_ops > 10);
        assert!(r.spec_instr > 1000);
        assert!(r.spec_ipc > 0.0);
    }
}
