//! Panic-free completion paths: the acceptance bar of the fault-recovery
//! work, restated against the workspace call graph (lint layer 4).
//!
//! Every function that sits on an I/O completion or recovery path — from
//! the device CQ through the SMU and OSDP finishers to the kernel's
//! post-fault mapping — must handle non-`Success` completions, stale
//! state, and races by typed control flow, never by `panic!`, `.expect`,
//! or `.unwrap`. A fault plan at high rates drives all of these paths;
//! any panic here is a crash an end-to-end campaign would hit.
//!
//! Earlier revisions scanned a hand-maintained roster of function bodies
//! for panic markers. The call graph subsumes that: the roster below only
//! pins that the named functions still exist and are completion-reachable
//! (so renames update the root set instead of silently dropping
//! coverage), while the panic-reachability rule checks the *transitive
//! closure* — every function reachable from a completion root, not just
//! the roster itself. That rule's zero findings are asserted by
//! `ratchet.rs`: `committed_baseline_absorbs_every_finding` leaves no
//! finding unbudgeted, and `semantic_rule_families_carry_zero_grandfather_budget`
//! pins panic-reachability's budget at zero.

use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    hwdp_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("tests run inside the workspace")
}

/// The completion/recovery functions the fault-recovery work hardened.
/// Each must resolve in the call graph and sit inside the
/// completion-path closure; a missing name means a rename broke root
/// coverage and this roster (plus `COMPLETION_ROOT_NAMES` if the rename
/// touched a root) must track it.
const ROSTER: [&str; 30] = [
    "System::handle_io_done",
    "System::dispatch_completion",
    "System::fail_io",
    "System::recover_hwdp",
    "System::escalate_hwdp",
    "System::recover_osdp",
    "System::surface_osdp_error",
    "System::finish_hwdp_miss",
    "System::finish_osdp_read",
    "System::submit_or_defer",
    "System::submit_os",
    "System::drain_deferred",
    "Io::take_completion",
    "Io::submit_request",
    "Io::drain_deferred",
    "Io::begin_controller_reset",
    "Io::take_watchdog",
    "TierDriver::commit",
    "Smu::finish_io",
    "Smu::finish_zero_fill",
    "Smu::reissue_read",
    "Smu::abandon_io",
    "HostController::handle_completion",
    "Os::osdp_fault_complete",
    "Os::osdp_fault_abort",
    "System::handle_controller_failure",
    "System::finish_controller_reset",
    "NvmeController::begin_reset",
    "NvmeController::finish_reset",
    "QueuePair::reset",
];

#[test]
fn recovery_roster_is_completion_reachable() {
    let g = hwdp_lint::call_graph(&workspace_root()).expect("call graph builds");
    let mut offences = Vec::new();
    for name in ROSTER {
        match g.find(name) {
            Some(i) if g.reach_completion[i] => {}
            Some(_) => offences.push(format!(
                "{name}: defined but no longer reachable from a completion root \
                 (root set drifted?)"
            )),
            None => offences.push(format!("{name}: not found (renamed? update this roster)")),
        }
    }
    assert!(
        offences.is_empty(),
        "completion-path roster out of sync with the call graph:\n  {}",
        offences.join("\n  ")
    );
}

#[test]
fn completion_closure_covers_both_io_paths() {
    // Sanity floor on the closure itself: the completion roots must pull
    // in the SMU (hardware path), the OSDP finishers (software path), and
    // the NVMe completion plumbing. A closure this small means call-site
    // resolution regressed and panic-reachability is vacuously green.
    let g = hwdp_lint::call_graph(&workspace_root()).expect("call graph builds");
    let crates: std::collections::BTreeSet<&str> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| g.reach_completion[i])
        .map(|(_, n)| n.crate_name.as_str())
        .collect();
    for needed in ["core", "smu", "nvme", "os", "mem"] {
        assert!(
            crates.contains(needed),
            "completion closure no longer touches crate {needed} (got {crates:?})"
        );
    }
}
