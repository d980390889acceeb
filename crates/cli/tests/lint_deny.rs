//! `hwdp lint --deny` end to end over a one-crate workspace: a finding
//! must be covered by a budget, and a budget larger than its file's
//! findings (stale) fails the gate as well.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Budgets for the crates the `audit-coverage` rule expects a checker in,
/// which this workspace lacks.
const MISSING_AUDITS: &str = "\
1 audit-coverage crates/core/src/lib.rs
1 audit-coverage crates/mem/src/lib.rs
1 audit-coverage crates/nvme/src/lib.rs
1 audit-coverage crates/os/src/lib.rs
1 audit-coverage crates/smu/src/lib.rs
1 audit-coverage crates/tier/src/lib.rs
";

/// A workspace under the test's scratch directory whose only source file,
/// in the sim-path crate `sim`, holds one `unit-mix` finding, with
/// `baseline` (after the audit-coverage budgets) as its budget file.
fn workspace(name: &str, baseline: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/sim/src");
    std::fs::create_dir_all(&src).expect("create source tree");
    std::fs::create_dir_all(root.join("baselines")).expect("create baselines");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n")
        .expect("write manifest");
    std::fs::write(
        src.join("lib.rs"),
        "//! Demo.\n\n/// Adds two times.\npub fn add(a_ns: u64, b_us: u64) -> u64 {\n    a_ns + b_us\n}\n",
    )
    .expect("write source");
    std::fs::write(root.join("baselines/LINT_allow.txt"), format!("{MISSING_AUDITS}{baseline}"))
        .expect("write baseline");
    root
}

/// Runs `hwdp lint --deny` over `root`; returns (passed, stderr).
fn deny(root: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hwdp"))
        .args(["lint", "--deny", "--root"])
        .arg(root)
        .output()
        .expect("run hwdp");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn exact_budget_passes() {
    let (passed, stderr) = deny(&workspace("exact", "1 unit-mix crates/sim/src/lib.rs\n"));
    assert!(passed, "{stderr}");
    assert!(stderr.contains("0 finding(s), 7 grandfathered"), "{stderr}");
}

#[test]
fn uncovered_finding_fails() {
    let (passed, stderr) = deny(&workspace("uncovered", ""));
    assert!(!passed, "{stderr}");
    assert!(stderr.contains("1 finding(s)"), "{stderr}");
}

#[test]
fn stale_budget_fails() {
    let (passed, stderr) = deny(&workspace("stale", "2 unit-mix crates/sim/src/lib.rs\n"));
    assert!(!passed, "a budget above the file's findings must fail --deny");
    assert!(
        stderr.contains("stale baseline budget '2 unit-mix crates/sim/src/lib.rs' (now 1)"),
        "{stderr}"
    );
}
