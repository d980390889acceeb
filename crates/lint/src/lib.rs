//! # hwdp-lint — the contract checks clippy cannot prove
//!
//! The whole value of this reproduction rests on the simulator being
//! deterministic: `hwdp-harness` derives per-job SplitMix64 seeds and
//! promises byte-identical `BENCH_*.json` artifacts for any worker count.
//! Clippy guards the local half of that promise with types: `clippy.toml`
//! bans hash containers, host clocks and threads, and `scripts/ci.sh`
//! denies `unwrap`/`expect`/`panic!`, `dbg!`, `println!`, `{:p}` and
//! discarded `Result`s in library code. This crate checks what needs the
//! whole workspace, the docs, or naming conventions, with zero external
//! dependencies:
//!
//! * [`lexer`] / [`item_tree`] — a small hand-rolled Rust lexer
//!   (comments, strings, lifetimes, raw identifiers) and brace-matched
//!   item spans, so rules never fire inside literals, doc comments or
//!   test code.
//! * [`rules`] — the rule table with per-crate scoping, and the per-file
//!   `unit-mix` and `audit-coverage` scan.
//! * [`expr`] / [`model`] — the expression layer (fn signatures, call
//!   sites, binary-op operands, sink string literals) and the
//!   workspace-wide API model built from it, powering `unit-mix`,
//!   `metric-key-*` and `spec-knob-consistency`.
//! * [`callgraph`] — the workspace call graph and its reachability rules
//!   (`det-`/`panic-reachability`, `hot-path-alloc`, `cast-truncation`).
//! * [`baseline`] — `baselines/LINT_allow.txt` budgets that grandfather
//!   findings we deliberately keep, per `(rule, file)`.
//!
//! The CLI front end is `hwdp lint [--json] [--deny] [--metric-keys]
//! [--call-graph]`; CI runs it with `--deny` between build and tests
//! (`scripts/ci.sh`) and archives the `--metric-keys` registry and the
//! call graph as build artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod expr;
pub mod item_tree;
pub mod lexer;
pub mod model;
pub mod rules;

use std::path::{Path, PathBuf};

use hwdp_harness::Json;
use rules::{FileContext, Finding};

/// A lint run's aggregate result, before baseline application.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, sorted by `(file, line, col)`.
    pub findings: Vec<Finding>,
    /// Source files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Serializes to the machine-readable report consumed by CI tooling,
    /// through the same dependency-free JSON writer that produces
    /// `BENCH_*.json` (insertion-ordered keys, byte-stable output).
    pub fn to_json(&self, grandfathered: usize, stale: usize) -> Json {
        Json::obj([
            ("schema", Json::Num(1.0)),
            ("files_scanned", Json::Num(self.files_scanned as f64)),
            ("grandfathered", Json::Num(grandfathered as f64)),
            ("stale_baseline_entries", Json::Num(stale as f64)),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::obj([
                                ("file", Json::str(f.file.clone())),
                                ("line", Json::Num(f.line as f64)),
                                ("col", Json::Num(f.col as f64)),
                                ("rule", Json::str(f.rule)),
                                ("message", Json::str(f.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Locates the workspace root by walking upward from `start` until a
/// directory containing both `Cargo.toml` and `crates/` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

/// Whether `path` (workspace-relative, `/`-separated) is lintable library
/// or binary source — `src/` trees only; `tests/`, `benches/`,
/// `examples/`, `target/`, and `third_party/` are out of scope.
fn in_scope(rel: &str) -> bool {
    if !rel.ends_with(".rs") {
        return false;
    }
    let mut parts = rel.split('/');
    match parts.next() {
        Some("src") => true,
        Some("crates") => {
            parts.next().is_some() && parts.next() == Some("src")
        }
        _ => false,
    }
}

/// Builds the [`FileContext`] for a workspace-relative path.
fn context_for(rel: &str) -> FileContext {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") {
        parts.get(1).copied().unwrap_or("unknown").to_string()
    } else {
        // The facade crate at the workspace root.
        "hwdp".to_string()
    };
    FileContext { crate_name, path: rel.to_string() }
}

/// Recursively collects every in-scope `.rs` file under `root`, sorted by
/// path so the report order is machine-independent.
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut stack = vec![root.join("src"), root.join("crates")];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue, // absent dir (e.g. no root src/) is fine
        };
        for entry in entries {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = relative(root, &path);
                if in_scope(&rel) {
                    files.push(path);
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Reads the workspace's documentation files the metric-key rules
/// cross-reference. Missing files read as empty (the rules then flag
/// every key as undocumented, which is the right failure mode).
fn read_docs(root: &Path) -> Vec<(&'static str, String)> {
    ["README.md", "DESIGN.md"]
        .into_iter()
        .map(|name| (name, std::fs::read_to_string(root.join(name)).unwrap_or_default()))
        .collect()
}

/// The workspace's metric-key registry: every key literal at an
/// `export_metrics` sink. This is what `hwdp lint --metric-keys`
/// serializes and CI archives.
pub fn metric_registry(root: &Path) -> std::io::Result<Vec<model::MetricKey>> {
    let mut files = Vec::new();
    for path in collect_sources(root)? {
        let rel = relative(root, &path);
        files.push((context_for(&rel), std::fs::read_to_string(&path)?));
    }
    let model = model::ApiModel::build(files.iter().map(|(c, s)| (c, s.as_str())));
    Ok(model.metric_keys)
}

/// Serializes the metric-key registry (see [`metric_registry`]) through
/// the dependency-free JSON writer: byte-stable, insertion-ordered.
pub fn registry_to_json(keys: &[model::MetricKey]) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("keys", Json::Num(keys.len() as f64)),
        (
            "registry",
            Json::Arr(
                keys.iter()
                    .map(|k| {
                        Json::obj([
                            ("key", Json::str(k.key.clone())),
                            ("file", Json::str(k.file.clone())),
                            ("sink", Json::Num(k.owner as f64)),
                            ("line", Json::Num(k.line as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Builds the workspace call graph (see [`callgraph`]) over every
/// in-scope source file under `root`. This is what `hwdp lint
/// --call-graph` serializes and CI archives.
pub fn call_graph(root: &Path) -> std::io::Result<callgraph::CallGraph> {
    let mut files = Vec::new();
    for path in collect_sources(root)? {
        let rel = relative(root, &path);
        files.push((context_for(&rel), std::fs::read_to_string(&path)?));
    }
    Ok(callgraph::build(files.iter().map(|(c, s)| (c, s.as_str()))))
}

/// Serializes the call graph through the dependency-free JSON writer:
/// nodes, edges, root sets, and per-rule reachable counts, byte-stable
/// across runs (node order follows sorted file paths and source order).
pub fn graph_to_json(g: &callgraph::CallGraph) -> Json {
    let rule_counts = {
        let mut counts = std::collections::BTreeMap::new();
        for f in callgraph::findings(g) {
            *counts.entry(f.rule).or_insert(0usize) += 1;
        }
        counts
    };
    let roots = |ids: &[usize]| Json::Arr(ids.iter().map(|&i| Json::Num(i as f64)).collect());
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("nodes", Json::Num(g.nodes.len() as f64)),
        (
            "edges",
            Json::Num(g.edges.iter().map(Vec::len).sum::<usize>() as f64),
        ),
        ("sccs", Json::Num(g.scc_count as f64)),
        (
            "roots",
            Json::obj([
                ("event_loop", roots(&g.event_roots)),
                ("completion_path", roots(&g.completion_roots)),
            ]),
        ),
        (
            "reachable",
            Json::obj([
                (
                    "event_loop",
                    Json::Num(g.reach_event.iter().filter(|&&r| r).count() as f64),
                ),
                (
                    "completion_path",
                    Json::Num(g.reach_completion.iter().filter(|&&r| r).count() as f64),
                ),
            ]),
        ),
        (
            "rule_counts",
            Json::obj(
                ["det-reachability", "panic-reachability", "hot-path-alloc", "cast-truncation"]
                    .map(|r| (r, Json::Num(rule_counts.get(r).copied().unwrap_or(0) as f64))),
            ),
        ),
        (
            "fns",
            Json::Arr(
                g.nodes
                    .iter()
                    .enumerate()
                    .map(|(i, n)| {
                        Json::obj([
                            ("fn", Json::str(n.qualified())),
                            ("crate", Json::str(n.crate_name.clone())),
                            ("file", Json::str(n.file.clone())),
                            ("line", Json::Num(n.line as f64)),
                            ("pub", Json::Bool(n.is_pub)),
                            ("arity", Json::Num(n.arity as f64)),
                            ("scc", Json::Num(g.scc_of[i] as f64)),
                            (
                                "calls",
                                Json::Arr(
                                    g.edges[i].iter().map(|&w| Json::Num(w as f64)).collect(),
                                ),
                            ),
                            (
                                "sinks",
                                Json::Arr(
                                    n.sinks
                                        .iter()
                                        .map(|s| {
                                            Json::obj([
                                                ("kind", Json::str(s.kind.label())),
                                                ("what", Json::str(s.what.clone())),
                                                ("line", Json::Num(s.line as f64)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            ("reach_event", Json::Bool(g.reach_event[i])),
                            ("reach_completion", Json::Bool(g.reach_completion[i])),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Lints every in-scope source file under `root`. The grandfather
/// baseline is not applied (see [`baseline::apply`]).
///
/// Two passes: the first builds the workspace [`model::ApiModel`] (fn
/// signatures for cross-crate call boundaries, the metric-key registry),
/// the second scans each file against it, and the workspace-level
/// contract rules (`audit-coverage`, `metric-key-*`,
/// `spec-knob-consistency`) run over the aggregate.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut audited_crates = std::collections::BTreeSet::new();
    let mut files = Vec::new();
    for path in collect_sources(root)? {
        let rel = relative(root, &path);
        files.push((context_for(&rel), std::fs::read_to_string(&path)?));
    }
    let model = model::ApiModel::build(files.iter().map(|(c, s)| (c, s.as_str())));
    for (ctx, source) in &files {
        let outcome = rules::scan_with(ctx, source, &model);
        if outcome.has_sanitizer_impl {
            audited_crates.insert(ctx.crate_name.clone());
        }
        report.findings.extend(outcome.findings);
        report.files_scanned += 1;
    }
    let docs = read_docs(root);
    let doc_refs: Vec<(&str, &str)> = docs.iter().map(|(n, s)| (*n, s.as_str())).collect();
    report.findings.extend(model::metric_key_findings(&model, &doc_refs));
    let readme = doc_refs.first().map(|(_, s)| *s).unwrap_or("");
    report
        .findings
        .extend(model::spec_knob_findings(files.iter().map(|(c, s)| (c, s.as_str())), readme));
    let graph = callgraph::build(files.iter().map(|(c, s)| (c, s.as_str())));
    report.findings.extend(callgraph::findings(&graph));
    // Workspace-level audit-coverage pass: every crate on the hwdp-audit
    // roster must register at least one sanitizer checker somewhere in
    // its src/ tree. Anchored at the crate root so the finding (and any
    // baseline budget for it) has a stable location.
    for crate_name in rules::AUDIT_REQUIRED_CRATES {
        if !audited_crates.contains(crate_name) {
            report.findings.push(Finding {
                file: format!("crates/{crate_name}/src/lib.rs"),
                line: 1,
                col: 1,
                rule: "audit-coverage",
                message: format!(
                    "crate `{crate_name}` registers no hwdp-audit checker \
                     (no `impl ... Sanitizer for ...` found in its src/ tree)"
                ),
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

/// The conventional baseline location under a workspace root.
pub fn baseline_path(root: &Path) -> PathBuf {
    root.join("baselines").join("LINT_allow.txt")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_covers_src_trees_only() {
        assert!(in_scope("crates/core/src/system.rs"));
        assert!(in_scope("crates/harness/src/json.rs"));
        assert!(in_scope("src/lib.rs"));
        assert!(!in_scope("crates/core/tests/integration.rs"));
        assert!(!in_scope("crates/bench/benches/figs.rs"));
        assert!(!in_scope("examples/quickstart.rs"));
        assert!(!in_scope("tests/facade.rs"));
        assert!(!in_scope("third_party/criterion/src/lib.rs"));
        assert!(!in_scope("crates/core/src/notes.md"));
    }

    #[test]
    fn context_classification() {
        let c = context_for("crates/core/src/system.rs");
        assert_eq!(c.crate_name, "core");
        assert_eq!(context_for("crates/cli/src/args.rs").crate_name, "cli");
        assert_eq!(context_for("crates/bench/src/bin/figures.rs").crate_name, "bench");
        assert_eq!(context_for("src/lib.rs").crate_name, "hwdp");
    }

    #[test]
    fn json_report_shape() {
        let report = Report {
            findings: vec![Finding {
                file: "crates/os/src/x.rs".into(),
                line: 3,
                col: 7,
                rule: "unit-mix",
                message: "m".into(),
            }],
            files_scanned: 10,
        };
        let j = report.to_json(5, 1);
        let text = j.pretty();
        let back = Json::parse(&text).expect("writer output parses");
        assert_eq!(back.get("files_scanned").and_then(Json::as_f64), Some(10.0));
        let findings = back.get("findings").and_then(Json::as_arr).expect("array");
        assert_eq!(findings[0].get("rule").and_then(Json::as_str), Some("unit-mix"));
        assert_eq!(findings[0].get("line").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn workspace_root_discovery() {
        // This test runs from within the workspace; its own manifest dir
        // resolves to the root two levels up.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("inside the workspace");
        assert!(root.join("crates").join("lint").is_dir());
    }

    #[test]
    fn lint_workspace_runs_on_this_tree() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("inside the workspace");
        let report = lint_workspace(&root).expect("workspace lints");
        assert!(report.files_scanned > 40, "scanned {} files", report.files_scanned);
    }
}
