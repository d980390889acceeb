//! The per-crate API model and the workspace-level contract passes.
//!
//! [`ApiModel`] aggregates what the expression layer ([`crate::expr`])
//! extracts per file into workspace-wide lookup tables:
//!
//! * **fn signatures by name** — for `unit-mix` call-boundary checks.
//!   Same-name collisions are kept as a list; the rule only acts when
//!   every signature of that name agrees, so an ambiguous name can cause
//!   a miss but never a false positive.
//! * **the metric-key registry** — every string literal in key position
//!   at an `export_metrics` sink, with its source location. `hwdp lint
//!   --metric-keys` serializes this registry; CI archives it.
//!
//! The workspace passes ([`metric_key_findings`], [`spec_knob_findings`])
//! are pure functions over the model plus doc text, so their positive and
//! negative cases are unit-testable without touching the filesystem.

use std::collections::BTreeMap;

use crate::expr;
use crate::item_tree::ItemTree;
use crate::lexer::{lex, TokKind, Token};
use crate::rules::{FileContext, Finding};

/// One fn signature as the rules see it: parameter binding names, in
/// order, receiver excluded.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Parameter binding names; `None` for destructuring patterns.
    pub params: Vec<Option<String>>,
}

/// One harvested metric key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricKey {
    /// The literal key string.
    pub key: String,
    /// Workspace-relative file of the sink.
    pub file: String,
    /// Index of the sink fn among same-named fns in that file.
    pub owner: usize,
    /// 1-based source line of the literal.
    pub line: u32,
    /// 1-based column of the literal.
    pub col: u32,
}

/// Workspace-wide API model.
#[derive(Clone, Debug, Default)]
pub struct ApiModel {
    /// Non-test fn signatures, keyed by bare fn name.
    pub fns: BTreeMap<String, Vec<FnInfo>>,
    /// Every key literal at an `export_metrics` sink, in file order.
    pub metric_keys: Vec<MetricKey>,
}

impl ApiModel {
    /// Builds the model from `(context, source)` pairs — the same file
    /// set the scanner will visit.
    pub fn build<'a>(files: impl IntoIterator<Item = (&'a FileContext, &'a str)>) -> ApiModel {
        let mut model = ApiModel::default();
        for (ctx, source) in files {
            model.absorb(ctx, source);
        }
        model
    }

    /// Single-file model, for rule tests and standalone scans: call
    /// boundaries within the file still resolve.
    pub fn of_file(ctx: &FileContext, source: &str) -> ApiModel {
        ApiModel::build([(ctx, source)])
    }

    fn absorb(&mut self, ctx: &FileContext, source: &str) {
        let tokens = lex(source);
        let sig: Vec<&Token> = tokens.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let tree = ItemTree::parse(&sig);
        let mask = tree.test_token_mask(sig.len());
        for f in expr::fn_sigs(&sig, &tree, &mask) {
            if f.test_only {
                continue;
            }
            self.fns.entry(f.name).or_default().push(FnInfo {
                params: f.params.into_iter().map(|p| p.name).collect(),
            });
        }
        for s in expr::sink_strings(&sig, &tree, &mask, "export_metrics") {
            self.metric_keys.push(MetricKey {
                key: s.value,
                file: ctx.path.clone(),
                owner: s.owner,
                line: s.line,
                col: s.col,
            });
        }
    }

    /// The recognized time-unit suffix of an identifier: `_ns`/`_us`/`_ms`
    /// (or the bare unit name, as in a conversion fn's `ns: u64` param).
    pub fn time_suffix(name: &str) -> Option<&'static str> {
        ["ns", "us", "ms"].into_iter().find(|s| {
            name == *s
                || (name.len() > s.len() + 1
                    && name.ends_with(s)
                    && name.as_bytes()[name.len() - s.len() - 1] == b'_')
        })
    }

    /// The unit suffix every same-name signature agrees on for parameter
    /// position `k`, or `None` when unknown/ambiguous/unsuffixed.
    pub fn agreed_param_suffix(&self, callee: &str, k: usize) -> Option<&'static str> {
        let sigs = self.fns.get(callee)?;
        let mut agreed: Option<&'static str> = None;
        for f in sigs {
            let name = f.params.get(k)?.as_deref()?;
            let s = Self::time_suffix(name)?;
            match agreed {
                None => agreed = Some(s),
                Some(a) if a != s => return None,
                Some(_) => {}
            }
        }
        agreed
    }
}

// ---------------------------------------------------------------------------
// metric-key workspace pass
// ---------------------------------------------------------------------------

/// Documentation text the metric rules cross-reference, as `(file name,
/// contents)` pairs (README.md and DESIGN.md in practice).
pub type DocSet<'a> = &'a [(&'a str, &'a str)];

/// A key counts as documented when it occurs delimited the way the docs
/// write metric names: preceded by a backtick or `/`, followed by a
/// backtick or `/`. This lets a dynamic family like `thread/<i>/ops`
/// document the bare `ops` key its sink exports.
fn key_documented(docs: DocSet, key: &str) -> bool {
    for (_, text) in docs {
        let mut from = 0;
        while let Some(at) = text[from..].find(key) {
            let start = from + at;
            let end = start + key.len();
            let pre = text[..start].chars().next_back();
            let post = text[end..].chars().next();
            if matches!(pre, Some('`') | Some('/')) && matches!(post, Some('`') | Some('/')) {
                return true;
            }
            from = end;
        }
    }
    false
}

/// Backticked literal keys in markdown *metric tables*: contiguous `|`
/// rows whose header cell mentions "metric". Tokens with placeholder
/// characters (`<`, `{`, `*`) are dynamic families and are skipped.
fn documented_table_keys<'a>(docs: DocSet<'a>) -> Vec<(&'a str, u32, String)> {
    let mut out = Vec::new();
    for (file, text) in docs {
        let mut in_table = false;
        for (lineno, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if !trimmed.starts_with('|') {
                in_table = false;
                continue;
            }
            if !in_table {
                // Candidate header row: starts a metric table only when a
                // whole cell IS the metric column label — prose that merely
                // mentions "metrics" mid-sentence doesn't qualify.
                in_table = trimmed.split('|').any(|cell| {
                    let c = cell.trim().trim_matches('`').trim_matches('*');
                    c.eq_ignore_ascii_case("metric") || c.eq_ignore_ascii_case("metrics")
                });
                continue;
            }
            if trimmed.starts_with("|-") || trimmed.starts_with("| -") {
                continue; // separator row
            }
            let mut rest = trimmed;
            while let Some(open) = rest.find('`') {
                let Some(close) = rest[open + 1..].find('`') else { break };
                let tok = &rest[open + 1..open + 1 + close];
                if !tok.is_empty()
                    && tok.chars().all(|c| {
                        c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '/'
                    })
                {
                    out.push((*file, lineno as u32 + 1, tok.to_string()));
                }
                rest = &rest[open + 1 + close + 1..];
            }
        }
    }
    out
}

/// The three `metric-key-*` rules: duplicates within one sink fn, keys
/// exported but absent from the docs, and metric-table rows documenting
/// keys no sink exports.
pub fn metric_key_findings(model: &ApiModel, docs: DocSet) -> Vec<Finding> {
    let mut out = Vec::new();
    // Duplicates within one (file, owner) sink.
    let mut seen: BTreeMap<(&str, usize, &str), (u32, u32)> = BTreeMap::new();
    for k in &model.metric_keys {
        let id = (k.file.as_str(), k.owner, k.key.as_str());
        if let Some(&(l, c)) = seen.get(&id) {
            out.push(Finding {
                file: k.file.clone(),
                line: k.line,
                col: k.col,
                rule: "metric-key-duplicate",
                message: format!(
                    "metric key \"{}\" already exported by this sink at {}:{}; \
                     later values silently shadow earlier ones in keyed readers",
                    k.key, l, c
                ),
            });
        } else {
            seen.insert(id, (k.line, k.col));
        }
    }
    // Exported but undocumented.
    let mut checked: Vec<&str> = Vec::new();
    for k in &model.metric_keys {
        if checked.contains(&k.key.as_str()) {
            continue;
        }
        checked.push(&k.key);
        if !key_documented(docs, &k.key) {
            out.push(Finding {
                file: k.file.clone(),
                line: k.line,
                col: k.col,
                rule: "metric-key-undocumented",
                message: format!(
                    "metric key \"{}\" is exported but appears in no README/DESIGN metric \
                     documentation (expected `{}` in a metric table or prose)",
                    k.key, k.key
                ),
            });
        }
    }
    // Documented in a metric table but never exported.
    let exported: Vec<&str> = model.metric_keys.iter().map(|k| k.key.as_str()).collect();
    for (file, line, key) in documented_table_keys(docs) {
        let hit = exported.iter().any(|e| {
            *e == key
                // A dynamic family's documented full name may embed a
                // static sink key as its last segment (`thread/<i>/ops`
                // is matched by the undocumented check, not this one),
                // and a documented suffix family like `{key}/stddev` is
                // filtered out by the placeholder rule above. Here only
                // exact matches and slash-suffix matches count.
                || (key.ends_with(*e)
                    && key.as_bytes().get(key.len() - e.len() - 1).copied() == Some(b'/'))
        });
        if !hit {
            out.push(Finding {
                file: file.to_string(),
                line,
                col: 1,
                rule: "metric-key-unexported",
                message: format!(
                    "metric table documents key `{key}` but no export_metrics sink exports it"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// spec-knob-consistency workspace pass
// ---------------------------------------------------------------------------

/// Per-file facts the spec-knob pass needs; see [`spec_knob_findings`].
struct KnobEvidence {
    /// `(field, line)` pairs of the `JobSpec` struct.
    fields: Vec<(String, u32)>,
    /// Path of the file defining `JobSpec`.
    spec_file: String,
    /// Identifiers inside `impl PartialEq for …` blocks of the spec file.
    eq_idents: Vec<String>,
    /// String literals inside the spec file's `to_json` fns.
    json_keys: Vec<String>,
    /// The spec file's comment blocks (consecutive comment lines joined),
    /// so an exemption must name the field and its reason *together*.
    spec_comment_blocks: Vec<String>,
    /// Identifiers and string literals across the `cli` crate.
    cli_text: Vec<String>,
    /// Identifiers inside test-only spans of the spec-defining crate.
    test_idents: Vec<String>,
}

fn collect_knob_evidence<'a>(
    files: impl IntoIterator<Item = (&'a FileContext, &'a str)>,
) -> Option<KnobEvidence> {
    let mut ev = KnobEvidence {
        fields: Vec::new(),
        spec_file: String::new(),
        eq_idents: Vec::new(),
        json_keys: Vec::new(),
        spec_comment_blocks: Vec::new(),
        cli_text: Vec::new(),
        test_idents: Vec::new(),
    };
    let mut spec_crate = String::new();
    let mut per_crate_test_idents: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (ctx, source) in files {
        let is_cli = ctx.crate_name == "cli";
        let might_define = source.contains("struct JobSpec");
        if !is_cli && !might_define && !source.contains("#[cfg(test)]") && !source.contains("#[test]")
        {
            continue;
        }
        let tokens = lex(source);
        let sig: Vec<&Token> = tokens.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let tree = ItemTree::parse(&sig);
        let mask = tree.test_token_mask(sig.len());
        if is_cli {
            for t in &sig {
                if t.kind == TokKind::Ident || t.kind == TokKind::Str {
                    ev.cli_text.push(t.text.clone());
                }
            }
        }
        let fields = expr::struct_fields(&sig, &tree, "JobSpec");
        if !fields.is_empty() {
            ev.fields = fields;
            ev.spec_file = ctx.path.clone();
            spec_crate = ctx.crate_name.clone();
            ev.eq_idents = expr::idents_in_trait_impl(&sig, &tree, "PartialEq");
            ev.json_keys = expr::strings_in_fn(&sig, &tree, "to_json");
            // Group consecutive comment lines into doc blocks.
            let mut last_line = 0u32;
            for t in tokens.iter().filter(|t| t.kind == TokKind::Comment) {
                match ev.spec_comment_blocks.last_mut() {
                    Some(blk) if t.line == last_line + 1 => {
                        blk.push('\n');
                        blk.push_str(&t.text);
                    }
                    _ => ev.spec_comment_blocks.push(t.text.clone()),
                }
                last_line = t.line;
            }
        }
        let crate_tests = per_crate_test_idents.entry(ctx.crate_name.clone()).or_default();
        for (k, t) in sig.iter().enumerate() {
            if t.kind == TokKind::Ident && mask.get(k).copied().unwrap_or(false) {
                crate_tests.push(t.text.clone());
            }
        }
    }
    if ev.fields.is_empty() {
        return None;
    }
    ev.test_idents = per_crate_test_idents.remove(&spec_crate).unwrap_or_default();
    Some(ev)
}

/// The `spec-knob-consistency` rule: every `JobSpec` field must carry the
/// full knob contract — an identity-participation decision (compared in
/// `impl PartialEq`, or explicitly exempted in a comment that names the
/// field and says what is ignored), an artifact-serialization decision
/// (a key in `to_json`, or a comment exemption mentioning the artifact),
/// a CLI exposure in `crates/cli`, a README mention, and coverage by a
/// test in the defining crate.
pub fn spec_knob_findings<'a>(
    files: impl IntoIterator<Item = (&'a FileContext, &'a str)>,
    readme: &str,
) -> Vec<Finding> {
    let Some(ev) = collect_knob_evidence(files) else { return Vec::new() };
    let mut out = Vec::new();
    let comment_exempts = |field: &str, marker: &str| {
        ev.spec_comment_blocks
            .iter()
            .any(|b| b.contains(field) && b.to_ascii_lowercase().contains(marker))
    };
    for (field, line) in &ev.fields {
        let mut missing: Vec<&str> = Vec::new();
        // A field participates in identity directly or through an
        // `effective_*` normalizer (`repeats` → `effective_repeats()`).
        let effective = format!("effective_{field}");
        if !ev.eq_idents.iter().any(|i| i == field || *i == effective)
            && !comment_exempts(field, "ignor")
        {
            missing.push("identity-participation decision (PartialEq or a doc-comment exemption)");
        }
        if !ev.json_keys.iter().any(|k| k == field) && !comment_exempts(field, "artifact") {
            missing.push("to_json artifact key (or a doc-comment exemption)");
        }
        let hyph = field.replace('_', "-");
        if !ev.cli_text.iter().any(|t| t == field || t.contains(&hyph)) {
            missing.push("CLI exposure in crates/cli");
        }
        if !readme.contains(field.as_str()) {
            missing.push("README mention");
        }
        if !ev.test_idents.iter().any(|i| i == field) {
            missing.push("test coverage in the defining crate");
        }
        for m in missing {
            out.push(Finding {
                file: ev.spec_file.clone(),
                line: *line,
                col: 1,
                rule: "spec-knob-consistency",
                message: format!("JobSpec knob `{field}` is missing its {m}"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_name: &str, path: &str) -> FileContext {
        FileContext { crate_name: crate_name.into(), path: path.into() }
    }

    #[test]
    fn model_collects_fns_and_keys() {
        let c = ctx("core", "crates/core/src/metrics.rs");
        let src = r#"
            fn record(t_ns: u64) -> Result<(), E> { Ok(()) }
            fn record(t_ns: u64) {}
            pub fn export_metrics(&self) -> Vec<(&'static str, f64)> {
                vec![("elapsed_ns", 1.0)]
            }
            #[cfg(test)]
            mod t { fn record(other: u32) {} }
        "#;
        let m = ApiModel::of_file(&c, src);
        assert_eq!(m.fns["record"].len(), 2, "test fns excluded");
        assert_eq!(m.agreed_param_suffix("record", 0), Some("ns"));
        assert_eq!(m.metric_keys.len(), 1);
        assert_eq!(m.metric_keys[0].key, "elapsed_ns");
    }

    #[test]
    fn time_suffix_is_strict() {
        assert_eq!(ApiModel::time_suffix("elapsed_ns"), Some("ns"));
        assert_eq!(ApiModel::time_suffix("warm_us"), Some("us"));
        assert_eq!(ApiModel::time_suffix("wall_ms"), Some("ms"));
        assert_eq!(ApiModel::time_suffix("ns"), Some("ns"));
        assert_eq!(ApiModel::time_suffix("kpted_scans"), None, "no underscore boundary");
        assert_eq!(ApiModel::time_suffix("params"), None);
        assert_eq!(ApiModel::time_suffix("terms"), None);
    }

    fn model_with_keys(keys: &[(&str, usize)]) -> ApiModel {
        let mut m = ApiModel::default();
        for (i, (k, owner)) in keys.iter().enumerate() {
            m.metric_keys.push(MetricKey {
                key: (*k).into(),
                file: "crates/core/src/metrics.rs".into(),
                owner: *owner,
                line: i as u32 + 1,
                col: 1,
            });
        }
        m
    }

    #[test]
    fn duplicate_keys_flagged_per_sink_only() {
        let m = model_with_keys(&[("ops", 0), ("ops", 1), ("ops", 0)]);
        let docs = [("README.md", "the `ops` metric")];
        let f = metric_key_findings(&m, &docs);
        let dups: Vec<&Finding> =
            f.iter().filter(|f| f.rule == "metric-key-duplicate").collect();
        assert_eq!(dups.len(), 1, "same key in two different sinks is fine: {f:?}");
        assert_eq!(dups[0].line, 3);
    }

    #[test]
    fn undocumented_and_dynamic_family_matching() {
        let m = model_with_keys(&[("hw_context", 0), ("mystery", 0)]);
        let docs = [("README.md", "thread metrics like `thread/<i>/hw_context` exist")];
        let f = metric_key_findings(&m, &docs);
        let undoc: Vec<&str> = f
            .iter()
            .filter(|f| f.rule == "metric-key-undocumented")
            .map(|f| f.message.as_str())
            .collect();
        assert_eq!(undoc.len(), 1, "{f:?}");
        assert!(undoc[0].contains("mystery"));
    }

    #[test]
    fn unexported_table_rows_flagged_placeholders_skipped() {
        let m = model_with_keys(&[("tier/promotions", 0)]);
        let docs = [(
            "README.md",
            "| metric | meaning |\n\
             |--------|---------|\n\
             | `tier/promotions` | slow→fast copies |\n\
             | `tier/ghost_key` | never exported |\n\
             | `thread/<i>/ops` | dynamic, skipped |\n\
             \n\
             Outside tables, `other_key` prose is not checked.",
        )];
        let f = metric_key_findings(&m, &docs);
        let unexp: Vec<&Finding> =
            f.iter().filter(|f| f.rule == "metric-key-unexported").collect();
        assert_eq!(unexp.len(), 1, "{f:?}");
        assert!(unexp[0].message.contains("tier/ghost_key"));
        assert_eq!(unexp[0].line, 4);
    }

    const SPEC_OK: &str = r#"
        /// Equality ignores [`JobSpec::sanitize`]: observation-only, and
        /// excluded from the JSON artifact.
        pub struct JobSpec {
            pub pin: Option<usize>,
            pub sanitize: SanitizeLevel,
        }
        impl PartialEq for JobSpec {
            fn eq(&self, o: &JobSpec) -> bool { self.pin == o.pin }
        }
        impl JobSpec {
            pub fn to_json(&self) -> Json { Json::obj([("pin", Json::Null)]) }
        }
        #[cfg(test)]
        mod tests { fn t() { let s = JobSpec { pin: None, sanitize: x }; } }
    "#;

    #[test]
    fn spec_knob_contract_satisfied() {
        let spec = ctx("harness", "crates/harness/src/spec.rs");
        let cli = ctx("cli", "crates/cli/src/main.rs");
        let cli_src = r#"fn run() { j.pin = None; let _ = "--sanitize"; }"#;
        let f = spec_knob_findings(
            [(&spec, SPEC_OK), (&cli, cli_src)],
            "README documents `pin` and the sanitize level",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn spec_knob_contract_violations_fire_per_facet() {
        let spec = ctx("harness", "crates/harness/src/spec.rs");
        let src = r#"
            pub struct JobSpec { pub ghost_knob: u64 }
            impl PartialEq for JobSpec { fn eq(&self, o: &JobSpec) -> bool { true } }
        "#;
        let cli = ctx("cli", "crates/cli/src/main.rs");
        let f = spec_knob_findings([(&spec, src), (&cli, "fn run() {}")], "README");
        let msgs: Vec<&str> = f.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(f.len(), 5, "{msgs:?}");
        assert!(f.iter().all(|f| f.rule == "spec-knob-consistency"));
        assert!(msgs.iter().all(|m| m.contains("ghost_knob")));
    }
}
