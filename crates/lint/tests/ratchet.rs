//! The `baselines/LINT_allow.txt` ratchet: grandfather budgets may only
//! ever decrease.
//!
//! Running the linter over the live workspace must produce, per
//! `(rule, path)`, at most as many findings as the committed budget —
//! i.e. a fresh `--write-baseline` could only shrink entries or drop
//! them, never grow one or add a new pair. A budget that needs raising
//! means new event-loop allocation slipped in; fix the code, don't grow
//! the baseline.
//!
//! The same holds for the inner `#![allow(clippy::…)]` attributes that
//! exempt a whole crate from a clippy rule: their set is pinned.

use std::collections::BTreeMap;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    hwdp_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("tests run inside the workspace")
}

#[test]
fn write_baseline_budgets_only_decrease() {
    let root = workspace_root();
    let report = hwdp_lint::lint_workspace(&root).expect("workspace lints");

    let baseline_file = hwdp_lint::baseline_path(&root);
    let text = std::fs::read_to_string(&baseline_file)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_file.display()));
    let committed: BTreeMap<(String, String), usize> = hwdp_lint::baseline::parse(&text)
        .expect("committed baseline parses")
        .into_iter()
        .map(|e| ((e.rule, e.path), e.count))
        .collect();

    // What --write-baseline would write now, as (rule, path) -> count.
    let mut fresh: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in &report.findings {
        *fresh.entry((f.rule.to_string(), f.file.clone())).or_insert(0) += 1;
    }

    let mut grown = Vec::new();
    for ((rule, path), count) in &fresh {
        let budget = committed.get(&(rule.clone(), path.clone())).copied().unwrap_or(0);
        if *count > budget {
            grown.push(format!("{count} {rule} {path} (budget {budget})"));
        }
    }
    assert!(
        grown.is_empty(),
        "budgets in baselines/LINT_allow.txt may only decrease; these would grow:\n  {}",
        grown.join("\n  ")
    );
}

#[test]
fn committed_baseline_absorbs_every_finding() {
    // The CI `--deny` contract restated as a unit test: after applying
    // the committed budgets, no finding remains.
    let root = workspace_root();
    let report = hwdp_lint::lint_workspace(&root).expect("workspace lints");
    let text = std::fs::read_to_string(hwdp_lint::baseline_path(&root))
        .expect("baseline file exists");
    let entries = hwdp_lint::baseline::parse(&text).expect("baseline parses");
    let outcome = hwdp_lint::baseline::apply(report.findings, &entries);
    let rendered: Vec<String> =
        outcome.remaining.iter().map(hwdp_lint::rules::Finding::render).collect();
    assert!(
        outcome.remaining.is_empty(),
        "unsuppressed findings:\n  {}",
        rendered.join("\n  ")
    );
}

#[test]
fn semantic_rule_families_carry_zero_grandfather_budget() {
    // The expression-layer rule families (PR 7) and the strict
    // reachability families (PR 8) shipped with every real finding fixed
    // rather than baselined. Unlike the generic ratchet above (which lets
    // a budget shrink), these start at zero and must stay there: a
    // `LINT_allow.txt` line for any of them means new drift was
    // grandfathered instead of fixed. (`hot-path-alloc` is deliberately
    // absent — it is a budgeted census, pinned separately below.)
    const SEMANTIC: [&str; 8] = [
        "unit-mix",
        "metric-key-duplicate",
        "metric-key-undocumented",
        "metric-key-unexported",
        "spec-knob-consistency",
        "det-reachability",
        "panic-reachability",
        "cast-truncation",
    ];
    let root = workspace_root();
    let text = std::fs::read_to_string(hwdp_lint::baseline_path(&root))
        .expect("baseline file exists");
    let offending: Vec<String> = hwdp_lint::baseline::parse(&text)
        .expect("baseline parses")
        .into_iter()
        .filter(|e| SEMANTIC.contains(&e.rule.as_str()))
        .map(|e| format!("{} {} {}", e.count, e.rule, e.path))
        .collect();
    assert!(
        offending.is_empty(),
        "semantic rules must never grow a grandfather budget; fix the code instead:\n  {}",
        offending.join("\n  ")
    );
}

#[test]
fn hot_path_alloc_census_is_budgeted_and_only_decreasing() {
    // `hot-path-alloc` is a census, not a zero-tolerance rule: event-loop
    // allocation is legitimate today, but each site is budgeted per file
    // in `LINT_allow.txt` so the total can only shrink as the simulator's
    // raw speed work lands. The generic ratchet above bounds each
    // (rule, path) pair; this pins the aggregate shape.
    let root = workspace_root();
    let report = hwdp_lint::lint_workspace(&root).expect("workspace lints");
    let live = report.findings.iter().filter(|f| f.rule == "hot-path-alloc").count();
    let text = std::fs::read_to_string(hwdp_lint::baseline_path(&root))
        .expect("baseline file exists");
    let budget: usize = hwdp_lint::baseline::parse(&text)
        .expect("baseline parses")
        .into_iter()
        .filter(|e| e.rule == "hot-path-alloc")
        .map(|e| e.count)
        .sum();
    assert!(budget > 0, "the seed census found allocation on the event-loop path");
    assert!(
        live <= budget,
        "hot-path-alloc grew: {live} live finding(s) exceed the committed budget {budget}"
    );
    // Hard ceiling on the baseline file itself, so regenerating it after
    // a regression can't silently re-grow the census. The seed census was
    // 116; the timing-wheel/scratch-buffer pass drove it to 32, and a
    // later site fell to 31 — every surviving site is once-per-run result
    // assembly, an owning snapshot return, or an opt-in audit path. Lower
    // this pin when more sites fall; never raise it.
    assert!(
        budget <= 31,
        "committed hot-path-alloc budget regrew to {budget} (ceiling 31); \
         fix the allocation instead of re-baselining it"
    );
}

#[test]
fn call_graph_json_is_byte_identical_across_runs() {
    // The CI artifact contract: two builds of the call graph over the
    // same tree serialize identically — node order, SCC numbering, root
    // sets, and rule counts are all deterministic.
    let root = workspace_root();
    let a = hwdp_lint::graph_to_json(&hwdp_lint::call_graph(&root).expect("first build"));
    let b = hwdp_lint::graph_to_json(&hwdp_lint::call_graph(&root).expect("second build"));
    let (a, b) = (a.pretty(), b.pretty());
    assert!(a.contains("\"schema\""), "artifact carries its schema tag");
    assert_eq!(a.len(), b.len(), "serialized sizes differ");
    assert_eq!(a, b, "call-graph JSON must be byte-identical across runs");
}

#[test]
fn metric_registry_is_nonempty_and_sorted_by_location() {
    // The registry the CI artifact is built from: every export_metrics
    // sink key, in deterministic (file, sink, occurrence) order.
    let root = workspace_root();
    let keys = hwdp_lint::metric_registry(&root).expect("registry builds");
    assert!(
        keys.iter().any(|k| k.key == "elapsed_ns"),
        "run-level sink keys present"
    );
    assert!(
        keys.iter().any(|k| k.key == "hw_context"),
        "per-thread sink keys present"
    );
    assert!(
        keys.iter().any(|k| k.key == "events_per_sec")
            && keys.iter().any(|k| k.key == "events_processed"),
        "throughput sink keys present (harness runner export_metrics)"
    );
    let json = hwdp_lint::registry_to_json(&keys).pretty();
    assert!(json.contains("\"registry\""));
    let mut locs: Vec<(&str, usize, u32)> =
        keys.iter().map(|k| (k.file.as_str(), k.owner, k.line)).collect();
    let sorted = {
        let mut s = locs.clone();
        s.sort();
        s
    };
    assert_eq!(locs, sorted, "registry order is deterministic");
    locs.clear();
}

#[test]
fn every_audit_required_crate_registers_a_sanitizer() {
    // The audit-coverage rule must stay green on the live tree: each
    // layer on the hwdp-audit roster keeps its `impl Sanitizer` checker.
    let root = workspace_root();
    let report = hwdp_lint::lint_workspace(&root).expect("workspace lints");
    let missing: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "audit-coverage")
        .map(|f| f.file.as_str())
        .collect();
    assert!(missing.is_empty(), "crates missing sanitizer registration: {missing:?}");
}

/// Every inner attribute in `src/` code that allows or expects a clippy
/// lint, as `(workspace-relative path, lint names)` in path order.
fn inner_clippy_allows(root: &Path) -> Vec<(String, Vec<String>)> {
    use hwdp_lint::lexer::{lex, TokKind};
    let mut dirs = vec![root.join("src")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        dirs.push(entry.expect("crates/ entry").path().join("src"));
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("src entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("source is readable");
        let toks: Vec<_> = lex(&text)
            .into_iter()
            .filter(|t| t.kind != TokKind::Comment)
            .collect();
        for i in 0..toks.len().saturating_sub(3) {
            if !(toks[i].is_punct('#') && toks[i + 1].is_punct('!') && toks[i + 2].is_punct('[')) {
                continue;
            }
            if !["allow", "expect", "cfg_attr"]
                .iter()
                .any(|a| toks[i + 3].is_ident(a))
            {
                continue;
            }
            // The attribute's tokens, up to its closing bracket.
            let (mut depth, mut end) = (0usize, i + 2);
            for (j, t) in toks.iter().enumerate().skip(i + 2) {
                depth = if t.is_punct('[') {
                    depth + 1
                } else {
                    depth - usize::from(t.is_punct(']'))
                };
                if depth == 0 {
                    end = j;
                    break;
                }
            }
            let attr = &toks[i + 3..end];
            let lints: Vec<String> = attr
                .windows(4)
                .filter(|w| w[0].is_ident("clippy") && w[1].is_punct(':') && w[2].is_punct(':'))
                .map(|w| w[3].text.clone())
                .collect();
            if !lints.is_empty() {
                let rel = path.strip_prefix(root).expect("under the root");
                out.push((rel.to_string_lossy().replace('\\', "/"), lints));
            }
        }
    }
    out
}

#[test]
fn crate_root_clippy_allows_are_pinned() {
    // A crate-wide allow switches a rule off for every line of the crate,
    // so only these three crate roots carry one, each with this list: the
    // harness owns the host clock and threads, and the two binaries print
    // and may panic. Any other inner allow in `src/` fails here; a lint
    // exempted at one site takes a narrow `#[allow(clippy::…)]` instead.
    let binary = [
        "print_stdout",
        "unwrap_used",
        "expect_used",
        "panic",
        "todo",
        "unimplemented",
    ];
    let pinned: Vec<(String, Vec<String>)> = [
        ("crates/bench/src/bin/repro.rs", &binary[..]),
        ("crates/cli/src/main.rs", &binary[..]),
        (
            "crates/harness/src/lib.rs",
            &[
                "disallowed_types",
                "disallowed_methods",
                "let_underscore_must_use",
            ][..],
        ),
    ]
    .iter()
    .map(|(path, lints)| {
        (
            path.to_string(),
            lints.iter().map(|l| l.to_string()).collect(),
        )
    })
    .collect();
    assert_eq!(inner_clippy_allows(&workspace_root()), pinned);
}
