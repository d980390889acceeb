//! The tier daemon never frees a fast-tier slot that a demand read still
//! targets.
//!
//! An NVMe read takes its data at completion. If a demotion committed
//! while a demand read of the page's fast slot was outstanding, a
//! promotion could rewrite the slot with another page's bytes, and the
//! read would return them with status Success. Dropped completions (a
//! 200 µs watchdog), retries and queue-full parks widen the window.
//! Without the guard in the migration commit, each job below reads wrong
//! bytes that way, and no error reaches the workload.

use std::process::Command;

/// Runs a two-thread tiered `hwdp ycsb` job on a 4× dataset over 128
/// frames and returns its report.
fn tiered_ycsb(kind: &str, mode: &str, seed: &str, faults: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hwdp"))
        .args([
            "ycsb",
            "--threads",
            "2",
            "--ratio",
            "4",
            "--memory",
            "128",
            "--ops",
            "3000",
        ])
        .args(["--tiers", "fast:pmm,slow:zssd,policy:lru"])
        .args([
            "--kind", kind, "--mode", mode, "--seed", seed, "--faults", faults,
        ])
        .output()
        .expect("run hwdp");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn assert_verified(report: &str) {
    assert!(
        report.contains("data integrity   ok (every read verified)"),
        "{report}"
    );
}

#[test]
fn ycsb_c_hwdp_seed_103_dropped_completions() {
    assert_verified(&tiered_ycsb("c", "hwdp", "103", "drop=0.01"));
}

#[test]
fn ycsb_f_hwdp_seed_138_dropped_completions() {
    assert_verified(&tiered_ycsb("f", "hwdp", "138", "drop=0.01"));
}

#[test]
fn ycsb_f_hwdp_seed_167_dropped_completions() {
    assert_verified(&tiered_ycsb("f", "hwdp", "167", "drop=0.01"));
}

#[test]
fn ycsb_f_osdp_seed_65_queue_full_windows() {
    assert_verified(&tiered_ycsb("f", "osdp", "65", "qfull=0.02x4"));
}
