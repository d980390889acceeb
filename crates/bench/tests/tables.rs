//! What `repro` prints is pinned, and bad input prints no table.
//!
//! Every table of the paper's evaluation is regenerated at
//! `Scale::quick()` and its `Display` text folded into an FNV-1a hash,
//! keyed by table id. A change to a simulated number, a formatting
//! helper, a note or the table order shows up here as a hash mismatch;
//! diff the output of `repro --quick --workers 1 --markdown` against the
//! parent commit's to see which cells moved.

use std::process::Command;

use hwdp_bench::campaigns::Scale;
use hwdp_bench::{all_tables_with, TABLES};
use hwdp_sim::dist::fnv1a_u64;

/// FNV-1a fold over the bytes of `text`.
fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0, |h, b| fnv1a_u64(h ^ u64::from(b)))
}

#[test]
fn every_table_matches_pinned_fingerprint() {
    let tables = all_tables_with(&Scale::quick(), 2);
    let ids: Vec<&str> = tables.iter().map(|t| t.id).collect();
    assert_eq!(ids, TABLES.map(|(id, _)| id), "a registry id does not name its table");
    let prints: Vec<String> = tables
        .iter()
        .map(|t| format!("{} {:#018x}", t.id, fingerprint(&t.to_string())))
        .collect();
    let expected = [
        "fig01 0x5dc1bba668d0b884",
        "fig02 0x947118eaa25a0b76",
        "fig03 0xa612532dc99e467a",
        "fig04 0x4e73a3429cf64e7a",
        "table1 0xde34f47102090e2c",
        "table2 0x08fdb16bdfa41ea6",
        "fig11a 0x8d517a268dd74025",
        "fig11b 0xdf0cd3b655bf68dc",
        "fig12 0x92a3a2797a9098e3",
        "fig13 0x30ddb0519f243364",
        "fig14 0xcd402aa6aa8ba96c",
        "fig15 0xe51fddb4ef6e4ea9",
        "fig16 0x18171e04be16e99c",
        "fig17 0x15f43c4f5496bccd",
        "area 0xbfc12a8fade1351f",
        "abl-kpoold 0xa6fb775a5d6d9ee2",
        "abl-pmshr 0x237a826260e8d340",
        "abl-freeq 0xe2e7ebf73efbe55d",
        "abl-prefetch 0x8f14f3ffaddf990d",
        "abl-kpted 0xa47917cc2a92071a",
        "ext-anon 0xfa26f2ab87fe57a7",
        "ext-percore 0xa6a36a2f8ee4d0ee",
        "ext-longio 0xba2fc1e7f5f7a40a",
        "ext-prefetch 0x67cdb2c630f6ce13",
    ];
    assert_eq!(prints, expected, "a repro table changed");
}

#[test]
fn bad_input_exits_2_with_usage_before_any_table_runs() {
    for args in [
        &["--quik"][..],
        &["--quick", "--workers"],
        &["--workers", "many"],
        &["--workers", "--quick"],
        &["fig99"],
        &["--quick", "fig12", "fig99"],
    ] {
        let repro = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output();
        let out = repro.expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_table_filter_prints_only_matching_tables() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--markdown", "fig11"])
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let headings: Vec<&str> = stdout.lines().filter(|l| l.starts_with("### ")).collect();
    assert_eq!(headings.len(), 2, "{stdout}");
    assert!(headings[0].starts_with("### fig11a ") && headings[1].starts_with("### fig11b "));
}

#[test]
fn table2_prints_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "table2"])
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let titles = stdout.matches("== table2 — experimental configuration ==").count();
    assert_eq!(titles, 1, "{stdout}");
}
