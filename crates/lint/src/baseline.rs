//! The grandfather baseline (`baselines/LINT_allow.txt`).
//!
//! The baseline ratchets the tree: findings that predate a rule and that
//! we deliberately keep for now (today only the `hot-path-alloc` census,
//! the event-loop allocations the speed work burns down) are recorded as
//! `<count> <rule> <path>` budgets. A file may carry at most its budgeted number of findings per
//! rule; introducing one more fails `--deny`, and fixing some makes the
//! entry *stale*, which the CLI reports so the budget can be tightened.

use std::collections::BTreeMap;

use crate::rules::Finding;

/// One `<count> <rule> <path>` budget line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Maximum grandfathered findings.
    pub count: usize,
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
}

/// A parse failure with its line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineError {
    /// 1-based line in the baseline file.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "baseline line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BaselineError {}

/// Parses the baseline file. Blank lines and `#` comments are ignored.
pub fn parse(text: &str) -> Result<Vec<BaselineEntry>, BaselineError> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (count, rule, path) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(c), Some(r), Some(p), None) => (c, r, p),
            _ => {
                return Err(BaselineError {
                    line: i + 1,
                    message: format!("expected '<count> <rule> <path>', got '{line}'"),
                })
            }
        };
        let count: usize = count.parse().map_err(|_| BaselineError {
            line: i + 1,
            message: format!("bad count '{count}'"),
        })?;
        entries.push(BaselineEntry { count, rule: rule.to_string(), path: path.to_string() });
    }
    Ok(entries)
}

/// What applying a baseline produced.
#[derive(Debug, Default)]
pub struct BaselineOutcome {
    /// Findings not covered by any budget (these fail `--deny`).
    pub remaining: Vec<Finding>,
    /// Number of findings absorbed by budgets.
    pub grandfathered: usize,
    /// Budget lines whose file now has fewer findings than budgeted
    /// (tighten these) — `(entry, actual_count)`.
    pub stale: Vec<(BaselineEntry, usize)>,
}

/// Applies budget entries: per `(rule, path)` group, the first `count`
/// findings are absorbed; the excess remains.
pub fn apply(findings: Vec<Finding>, entries: &[BaselineEntry]) -> BaselineOutcome {
    let mut budgets: BTreeMap<(String, String), usize> = BTreeMap::new();
    for e in entries {
        *budgets.entry((e.rule.clone(), e.path.clone())).or_insert(0) += e.count;
    }
    let mut actual: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut out = BaselineOutcome::default();
    for f in findings {
        let key = (f.rule.to_string(), f.file.clone());
        *actual.entry(key.clone()).or_insert(0) += 1;
        match budgets.get_mut(&key) {
            Some(budget) if *budget > 0 => {
                *budget -= 1;
                out.grandfathered += 1;
            }
            _ => out.remaining.push(f),
        }
    }
    for e in entries {
        let used = actual.get(&(e.rule.clone(), e.path.clone())).copied().unwrap_or(0);
        if used < e.count {
            out.stale.push((e.clone(), used));
        }
    }
    out
}

/// Serializes current findings into baseline text (the `--write-baseline`
/// path): one budget line per `(rule, path)` group, sorted.
pub fn render(findings: &[Finding]) -> String {
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for f in findings {
        *counts.entry((f.file.as_str(), f.rule)).or_insert(0) += 1;
    }
    let mut out = String::from(
        "# hwdp-lint grandfather baseline: '<count> <rule> <path>' budgets for\n\
         # pre-existing findings we deliberately keep (see DESIGN.md, \"Determinism\n\
         # policy\"). Regenerate with `hwdp lint --write-baseline` after intentional\n\
         # changes; the gate fails when a file exceeds its budget.\n",
    );
    for ((path, rule), count) in counts {
        out.push_str(&format!("{count} {rule} {path}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, rule: &'static str, line: u32) -> Finding {
        Finding { file: file.into(), line, col: 1, rule, message: "m".into() }
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let text = "# header\n\n2 hot-path-alloc crates/os/src/kernel.rs\n";
        let entries = parse(text).unwrap();
        assert_eq!(
            entries,
            vec![BaselineEntry {
                count: 2,
                rule: "hot-path-alloc".into(),
                path: "crates/os/src/kernel.rs".into()
            }]
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("two hot-path-alloc a.rs").is_err());
        assert!(parse("2 hot-path-alloc").is_err());
        assert!(parse("2 hot-path-alloc a.rs extra").is_err());
    }

    #[test]
    fn budgets_absorb_up_to_count() {
        let entries = parse("2 hot-path-alloc a.rs").unwrap();
        let fs = vec![
            finding("a.rs", "hot-path-alloc", 1),
            finding("a.rs", "hot-path-alloc", 2),
            finding("a.rs", "hot-path-alloc", 3),
        ];
        let out = apply(fs, &entries);
        assert_eq!(out.grandfathered, 2);
        assert_eq!(out.remaining.len(), 1);
        assert_eq!(out.remaining[0].line, 3, "excess finding survives");
        assert!(out.stale.is_empty());
    }

    #[test]
    fn budgets_are_per_rule_and_file() {
        let entries = parse("1 hot-path-alloc a.rs").unwrap();
        let fs = vec![finding("b.rs", "hot-path-alloc", 1), finding("a.rs", "unit-mix", 1)];
        let out = apply(fs, &entries);
        assert_eq!(out.grandfathered, 0);
        assert_eq!(out.remaining.len(), 2);
        assert_eq!(out.stale.len(), 1, "unused budget is stale");
    }

    #[test]
    fn stale_entries_reported_with_actual_count() {
        let entries = parse("5 hot-path-alloc a.rs").unwrap();
        let out = apply(vec![finding("a.rs", "hot-path-alloc", 1)], &entries);
        assert_eq!(out.grandfathered, 1);
        assert!(out.remaining.is_empty());
        assert_eq!(out.stale[0].1, 1);
    }

    #[test]
    fn render_round_trips_through_parse() {
        let fs = vec![
            finding("a.rs", "hot-path-alloc", 1),
            finding("a.rs", "hot-path-alloc", 2),
            finding("b.rs", "cast-truncation", 3),
        ];
        let text = render(&fs);
        let entries = parse(&text).unwrap();
        let out = apply(fs, &entries);
        assert!(out.remaining.is_empty());
        assert!(out.stale.is_empty());
        assert_eq!(out.grandfathered, 3);
    }
}
