//! Every subcommand declares its options: a typo'd or misplaced `--flag`
//! is an error, not a run with defaults.

use std::path::Path;
use std::process::Command;

/// Runs `hwdp args...` in `dir`; returns (succeeded, stderr).
fn hwdp(dir: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hwdp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run hwdp");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn typo_in_a_sweep_option_fails_before_running() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("unknown-options");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = dir.to_str().expect("utf-8 path");
    // `--scenario` for `--scenarios`: the grid would silently run fio.
    let (ok, stderr) = hwdp(&dir, &["sweep", "--name", "typo", "--scenario", "ycsb-c", "--out", out]);
    assert!(!ok, "{stderr}");
    assert!(stderr.contains("unknown option --scenario for `sweep`"), "{stderr}");
    assert!(!dir.join("BENCH_typo.json").exists(), "nothing ran");
}

#[test]
fn options_are_checked_per_subcommand() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    // A sweep-only option on a single run, and a flag given a value.
    let (ok, stderr) = hwdp(dir, &["fio", "--workers", "2"]);
    assert!(!ok && stderr.contains("unknown option --workers for `fio`"), "{stderr}");
    let (ok, stderr) = hwdp(dir, &["chaos", "--no-crashes", "yes"]);
    assert!(!ok && stderr.contains("--no-crashes takes no value"), "{stderr}");
    let (ok, stderr) = hwdp(dir, &["compare", "--baseline"]);
    assert!(!ok && stderr.contains("--baseline needs a value"), "{stderr}");
    let (ok, stderr) = hwdp(dir, &["config", "--verbose"]);
    assert!(!ok && stderr.contains("unknown option --verbose for `config`"), "{stderr}");
    // Declared options still run.
    let (ok, stderr) = hwdp(dir, &["anatomy", "--device", "pmm"]);
    assert!(ok, "{stderr}");
}
