//! A NoSQL server scenario: MiniDB (the RocksDB stand-in) serving YCSB
//! workloads with the dataset twice the size of memory, comparing OSDP and
//! HWDP — the paper's §VI-C "realistic workloads" setup.
//!
//! ```text
//! cargo run --example nosql_server --release
//! ```

use hwdp::core::{Mode, SystemBuilder};
use hwdp::sim::rng::Prng;
use hwdp::sim::time::Duration;
use hwdp::workloads::{MiniDb, Ycsb, YcsbKind};

fn run(mode: Mode, kind: YcsbKind, threads: usize) -> hwdp::core::RunResult {
    let memory_frames = 1024;
    let records = 2048; // dataset:memory = 2:1, as in §VI-C
    let capacity = records + 512;
    let mut sys = SystemBuilder::new(mode)
        .memory_frames(memory_frames)
        .kpted_period(Duration::from_millis(1))
        .seed(2020)
        .build();
    let file = sys.create_kv_file("rocks.db", records, capacity);
    let region = sys.map_file(file);
    let keys = Ycsb::popularity(records);
    for i in 0..threads {
        let db = MiniDb::new(region, records, capacity);
        sys.spawn(
            Box::new(Ycsb::with_keys(kind, db, keys.clone(), 1_000, Prng::seed_from(55 + i as u64))),
            1.6,
            None,
        );
    }
    sys.run(Duration::from_secs(30))
}

fn main() {
    let threads = 4;
    println!("MiniDB NoSQL server, YCSB A–F, {threads} threads, dataset 2x memory\n");
    println!(
        "{:<8} {:>14} {:>14} {:>8} {:>10} {:>10}",
        "workload", "OSDP ops/s", "HWDP ops/s", "gain", "IPC gain", "verified"
    );
    for kind in YcsbKind::ALL {
        let o = run(Mode::Osdp, kind, threads);
        let h = run(Mode::Hwdp, kind, threads);
        assert_eq!(o.verify_failures() + h.verify_failures(), 0, "data corruption!");
        println!(
            "{:<8} {:>14.0} {:>14.0} {:>7.1}% {:>9.1}% {:>10}",
            kind.name(),
            o.throughput_ops_s(),
            h.throughput_ops_s(),
            (h.throughput_ops_s() / o.throughput_ops_s() - 1.0) * 100.0,
            (h.user_ipc() / o.user_ipc() - 1.0) * 100.0,
            "ok"
        );
    }
    println!("\npaper: YCSB gains +5.3–27.3% (highest for read-only YCSB-C), user IPC +7.0%.");
    println!("Every read is checked against the record header: 'verified ok' means the");
    println!("full fault -> DMA -> evict -> writeback -> re-fault cycle preserved the data.");
}
