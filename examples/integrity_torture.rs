//! Integrity torture test: a write-heavy YCSB-A mix over a dataset 8× the
//! size of memory, so every page is repeatedly faulted in by the SMU,
//! dirtied, evicted, written back, and re-faulted — with every read
//! verified against the record header.
//!
//! If the LBA-augmented PTE machinery ever produced a wrong block address,
//! lost a DMA, aliased a page, or re-read stale data past a writeback,
//! this reports verification failures.
//!
//! ```text
//! cargo run --example integrity_torture --release
//! ```

use hwdp::core::{Mode, SystemBuilder};
use hwdp::sim::rng::Prng;
use hwdp::sim::time::Duration;
use hwdp::workloads::{MiniDb, Ycsb, YcsbKind};

fn main() {
    let memory_frames = 256; // 1 MiB of simulated DRAM
    let records = 2048; // 8 MiB dataset: 8x memory
    let threads = 4;
    let ops = 3_000;

    for mode in [Mode::Osdp, Mode::Hwdp] {
        let mut sys = SystemBuilder::new(mode)
            .memory_frames(memory_frames)
            .kpted_period(Duration::from_millis(1))
            .seed(0x7047)
            .build();
        let file = sys.create_kv_file("torture.db", records, records);
        let region = sys.map_file(file);
        let keys = Ycsb::popularity(records);
        for i in 0..threads {
            let db = MiniDb::new(region, records, records);
            sys.spawn(
                Box::new(Ycsb::with_keys(
                    YcsbKind::A,
                    db,
                    keys.clone(),
                    ops,
                    Prng::seed_from(i as u64),
                )),
                1.6,
                None,
            );
        }
        let r = sys.run(Duration::from_secs(60));
        println!(
            "{:<6}  ops={}  evictions={}  writebacks={}  device W={}  hw-misses={}  \
             os-faults={}  verify failures={}",
            mode.label(),
            r.ops,
            r.os.evictions,
            r.os.writebacks,
            r.device_writes,
            r.smu.completed,
            r.os.major_faults,
            r.verify_failures(),
        );
        assert_eq!(r.verify_failures(), 0, "DATA CORRUPTION under {mode:?}");
        assert!(r.os.evictions > 1000, "torture must actually evict");
    }
    println!("\nAll reads verified byte-correct through the full paging lifecycle.");
}
