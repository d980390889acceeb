//! README's rule tables stay in step with the linter: every rule in
//! `hwdp_lint::rules::RULES` has a row in the `hwdp lint` rule table, every
//! row there is a live rule or a retired one, and every retired rule names
//! the clippy lints that carry it, each of which `scripts/ci.sh` denies.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    hwdp_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("tests run inside the workspace")
}

/// The rows of the markdown table whose header row starts with `header`,
/// each split into its trimmed cells.
fn table_rows(doc: &str, header: &str) -> Vec<Vec<String>> {
    let mut lines = doc.lines().skip_while(|l| !l.starts_with(header));
    assert!(lines.next().is_some(), "README has no table headed `{header}`");
    lines
        .skip(1) // the |---| separator
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split('|').map(|c| c.trim().to_string()).collect())
        .collect()
}

/// The backticked names in a table cell.
fn ticked(cell: &str) -> Vec<&str> {
    cell.split('`').skip(1).step_by(2).collect()
}

fn readme() -> String {
    std::fs::read_to_string(workspace_root().join("README.md")).expect("README.md reads")
}

#[test]
fn readme_rule_table_lists_exactly_the_live_and_retired_rules() {
    let readme = readme();
    let live: BTreeSet<&str> = hwdp_lint::rules::RULES.iter().map(|r| r.id).collect();
    let table: Vec<String> = table_rows(&readme, "| Rule | Scope |")
        .iter()
        .map(|row| ticked(&row[0]).concat())
        .collect();
    let retired: Vec<String> = table_rows(&readme, "| Retired rule |")
        .iter()
        .map(|row| ticked(&row[0]).concat())
        .collect();
    for id in &live {
        assert!(table.iter().any(|t| t == id), "rule `{id}` has no row in README's rule table");
    }
    for id in &table {
        assert!(
            live.contains(id.as_str()) || retired.contains(id),
            "README's rule table lists `{id}`, which is neither a rule nor a retired one"
        );
    }
    for id in &retired {
        assert!(!live.contains(id.as_str()), "`{id}` is both a live rule and carried by clippy");
    }
}

#[test]
fn every_retired_rule_maps_to_lints_ci_denies() {
    let readme = readme();
    let ci = std::fs::read_to_string(workspace_root().join("scripts/ci.sh")).expect("ci.sh reads");
    let rows = table_rows(&readme, "| Retired rule |");
    assert!(!rows.is_empty(), "the clippy mapping table is empty");
    for row in &rows {
        let lints: Vec<&str> =
            ticked(&row[1]).into_iter().filter(|l| l.starts_with("clippy::")).collect();
        assert!(!lints.is_empty(), "`{}` maps to no clippy lint", row[0]);
        for lint in lints {
            assert!(ci.contains(&format!("-D {lint}")), "scripts/ci.sh does not deny `{lint}`");
        }
    }
}
