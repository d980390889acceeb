//! The rule table and the per-file scanner.
//!
//! Rules are scoped per crate (see [`applies`]). The per-file scanner
//! runs `unit-mix` over the sim-path crates and reports whether a file
//! registers an hwdp-audit checker; every other rule is a workspace pass
//! (metric keys, spec knobs, call-graph reachability). Determinism,
//! panic-policy and hygiene checks that need types (hash containers,
//! clocks, threads, `unwrap`/`expect`/`panic!`, `dbg!`, `println!`,
//! `{:p}`, dropped `Result`s) are clippy's: see `clippy.toml` and the
//! restriction step in `scripts/ci.sh`.
//!
//! The scanner never looks at raw text. It walks the lexed token stream
//! under the brace-matched [`crate::item_tree`]: test exemptions cover
//! exactly the spans of `#[cfg(test)]` items and `#[test]` functions, and
//! the `audit-coverage` rule checks for structural
//! `impl … Sanitizer for …` registrations.

use crate::expr;
use crate::item_tree::ItemTree;
use crate::lexer::{lex, TokKind, Token};
use crate::model::ApiModel;

/// Crates on the simulation path: their container iteration order, clock
/// sources, and threading discipline decide whether a campaign replays
/// byte-identically.
pub const SIM_PATH_CRATES: [&str; 9] =
    ["sim", "mem", "nvme", "smu", "os", "cpu", "core", "workloads", "tier"];

/// Crates that must register hwdp-audit sanitizer checkers (an
/// `impl … Sanitizer for …` somewhere in their `src/` tree). These are
/// the layers whose invariants the cross-layer audit covers; a crate
/// dropping its registration silently would hollow out `--sanitize=full`.
pub const AUDIT_REQUIRED_CRATES: [&str; 6] = ["core", "mem", "nvme", "os", "smu", "tier"];

/// Where a source file sits in the workspace, for rule scoping.
#[derive(Clone, Debug)]
pub struct FileContext {
    /// Short crate name (`core`, `harness`, …; the facade crate is `hwdp`).
    pub crate_name: String,
    /// Workspace-relative path, used verbatim in diagnostics.
    pub path: String,
}

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Renders as `file:line:col: warn[rule-id]: message`.
    pub fn render(&self) -> String {
        format!("{}:{}:{}: warn[{}]: {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// A rule's identity and scope, for the `hwdp lint` rule table.
pub struct RuleInfo {
    /// Stable identifier (used in the baseline file).
    pub id: &'static str,
    /// What the rule guards against.
    pub summary: &'static str,
    /// Where it applies.
    pub scope: &'static str,
}

/// Every rule this pass knows, for documentation and `--rules` output.
pub const RULES: [RuleInfo; 10] = [
    RuleInfo {
        id: "audit-coverage",
        summary: "audited sim-path crates must register an `impl ... Sanitizer for ...` checker",
        scope: "core, mem, nvme, os, smu, tier",
    },
    RuleInfo {
        id: "unit-mix",
        summary: "_ns/_us/_ms-suffixed values may not meet in arithmetic or cross a call boundary into a differently-suffixed parameter without a conversion",
        scope: "sim-path crates",
    },
    RuleInfo {
        id: "metric-key-duplicate",
        summary: "the same key exported twice by one export_metrics sink shadows itself in keyed readers",
        scope: "export_metrics sinks (workspace pass)",
    },
    RuleInfo {
        id: "metric-key-undocumented",
        summary: "every exported metric key must appear in README/DESIGN metric documentation",
        scope: "export_metrics sinks (workspace pass)",
    },
    RuleInfo {
        id: "metric-key-unexported",
        summary: "metric-table rows documenting keys no sink exports are doc drift",
        scope: "README/DESIGN metric tables (workspace pass)",
    },
    RuleInfo {
        id: "spec-knob-consistency",
        summary: "every JobSpec field needs an identity decision, a to_json key, a CLI exposure, a README mention, and a test",
        scope: "crates/harness JobSpec (workspace pass)",
    },
    RuleInfo {
        id: "det-reachability",
        summary: "nondeterministic sinks (wall clock, thread spawn, hash-order iteration, pointer formatting) in any fn the event loop transitively reaches, regardless of crate",
        scope: "event-loop call-graph closure (workspace pass)",
    },
    RuleInfo {
        id: "panic-reachability",
        summary: "unwrap/expect/panic!/unreachable! reachable from the completion-path roots; completion must degrade to typed errors, not abort a campaign",
        scope: "completion-path call-graph closure (workspace pass)",
    },
    RuleInfo {
        id: "hot-path-alloc",
        summary: "heap-allocation and .clone() sinks reachable from the event loop: the ratcheted census feeding the raw-speed work-list",
        scope: "event-loop call-graph closure (workspace pass)",
    },
    RuleInfo {
        id: "cast-truncation",
        summary: "narrowing `as` casts on _ns/_us/_ms/cycle/LBA-suffixed operands in event-loop-reachable code can silently truncate",
        scope: "event-loop call-graph closure (workspace pass)",
    },
];

fn is_sim_path(crate_name: &str) -> bool {
    SIM_PATH_CRATES.contains(&crate_name)
}

/// Whether `rule` applies to a file in `ctx`.
pub fn applies(rule: &str, ctx: &FileContext) -> bool {
    match rule {
        "audit-coverage" => AUDIT_REQUIRED_CRATES.contains(&ctx.crate_name.as_str()),
        "unit-mix" => is_sim_path(&ctx.crate_name),
        // Workspace passes: emitted by `lint_workspace`, not the per-file
        // scanner. Scoped here so the rule table test covers them and the
        // baseline machinery treats them like any other rule.
        "metric-key-duplicate" | "metric-key-undocumented" | "metric-key-unexported" => {
            ctx.crate_name == "core" || ctx.crate_name == "harness"
        }
        "spec-knob-consistency" => ctx.crate_name == "harness",
        // Call-graph reachability rules: scope is decided by graph
        // closure, not file location, so every crate is eligible.
        "det-reachability" | "panic-reachability" | "hot-path-alloc" | "cast-truncation" => true,
        _ => false,
    }
}

/// Scans one source file against a model built from that file alone —
/// call boundaries within the file still resolve. The workspace driver
/// uses [`scan_with`] so boundaries resolve across crates.
pub fn scan(ctx: &FileContext, source: &str) -> ScanOutcome {
    scan_with(ctx, source, &ApiModel::of_file(ctx, source))
}

/// Scans one source file and returns its findings, ordered by source
/// position.
pub fn scan_with(ctx: &FileContext, source: &str, model: &ApiModel) -> ScanOutcome {
    let tokens = lex(source);
    let sig: Vec<&Token> = tokens.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let tree = ItemTree::parse(&sig);
    // The mask covers exactly the brace-matched spans of `#[cfg(test)]`
    // items and `#[test]` fns, so a `;` inside a type or a test fn outside
    // a test module cannot confuse the exemption boundary.
    let test_mask = tree.test_token_mask(sig.len());
    let mut findings = Vec::new();
    check_unit_mix(ctx, &sig, &test_mask, model, &mut findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    let has_sanitizer_impl = tree.has_trait_impl(&sig, "Sanitizer");
    ScanOutcome { findings, has_sanitizer_impl }
}

/// What [`scan`] produced for one file.
pub struct ScanOutcome {
    /// Diagnostics, in source order.
    pub findings: Vec<Finding>,
    /// `true` when the file structurally registers an hwdp-audit checker
    /// (a non-test `impl … Sanitizer for …` item). Aggregated per crate by
    /// the workspace pass for the `audit-coverage` rule.
    pub has_sanitizer_impl: bool,
}

/// The `unit-mix` rule: `_ns`/`_us`/`_ms`-suffixed identifiers may not
/// meet in additive/comparison arithmetic, and a suffixed identifier
/// passed bare across a call boundary must land in a parameter of the
/// same unit. Composite arguments and `*`/`/`-scaled operands are exempt
/// by construction — scaling *is* the recognized conversion, as are the
/// `hwdp_sim::time` constructors (whose `ns`/`us`/`ms` parameter names
/// make them checkable call boundaries themselves).
fn check_unit_mix(
    ctx: &FileContext,
    sig: &[&Token],
    mask: &[bool],
    model: &ApiModel,
    out: &mut Vec<Finding>,
) {
    if !applies("unit-mix", ctx) {
        return;
    }
    for b in expr::bin_ops(sig) {
        if mask.get(b.at).copied().unwrap_or(false) {
            continue;
        }
        let (Some(l), Some(r)) =
            (ApiModel::time_suffix(&b.lhs), ApiModel::time_suffix(&b.rhs))
        else {
            continue;
        };
        if l != r {
            out.push(Finding {
                file: ctx.path.clone(),
                line: b.line,
                col: b.col,
                rule: "unit-mix",
                message: format!(
                    "`{}` ({l}) and `{}` ({r}) meet in `{}` without a unit conversion",
                    b.lhs, b.rhs, b.op
                ),
            });
        }
    }
    for c in expr::call_sites(sig) {
        if mask.get(c.at).copied().unwrap_or(false) {
            continue;
        }
        for (k, arg) in c.args.iter().enumerate() {
            let Some(name) = arg.sole_ident.as_deref() else { continue };
            let Some(s_arg) = ApiModel::time_suffix(name) else { continue };
            let Some(s_param) = model.agreed_param_suffix(&c.callee, k) else { continue };
            if s_arg != s_param {
                out.push(Finding {
                    file: ctx.path.clone(),
                    line: c.line,
                    col: c.col,
                    rule: "unit-mix",
                    message: format!(
                        "`{name}` ({s_arg}) is passed to `{}` whose parameter {} takes {s_param}",
                        c.callee,
                        k + 1
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_for(crate_name: &str) -> FileContext {
        FileContext { crate_name: crate_name.into(), path: format!("crates/{crate_name}/src/lib.rs") }
    }

    fn rules_found(crate_name: &str, src: &str) -> Vec<&'static str> {
        scan(&ctx_for(crate_name), src).findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn rules_do_not_fire_inside_strings_or_comments() {
        let src = r##"
            // Prose: a_ns + b_us.
            /* block: a_ns < b_ms */
            /// Doc: `wall_ms - warm_us`
            fn f() -> String { String::from(r#"a_ns + b_us"#) }
        "##;
        assert!(rules_found("core", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_skipped_entirely() {
        let src = r#"
            fn sink(t_us: u64) {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let (a_ns, b_us) = (1, 2); sink(a_ns); assert!(a_ns < b_us); }
            }
        "#;
        assert!(rules_found("core", src).is_empty());
    }

    #[test]
    fn cfg_test_single_item_is_skipped_but_rest_scans() {
        let src = r#"
            #[cfg(test)]
            fn helper(a_ns: u64, b_us: u64) -> u64 { a_ns + b_us }
            fn lib(a_ns: u64, b_us: u64) -> u64 { a_ns + b_us }
        "#;
        assert_eq!(rules_found("core", src), vec!["unit-mix"]);
    }

    #[test]
    fn cfg_all_test_also_skipped() {
        let src = r#"
            #[cfg(all(test, feature = "x"))]
            mod tests { fn t(a_ns: u64, b_us: u64) -> u64 { a_ns + b_us } }
        "#;
        assert!(rules_found("core", src).is_empty());
    }

    #[test]
    fn findings_carry_position() {
        let src = "\n\nfn f(a_ns: u64, b_us: u64) -> u64 { a_ns + b_us }";
        let out = scan(&ctx_for("os"), src);
        assert_eq!(out.findings[0].line, 3);
        assert!(out.findings[0].col > 30);
        assert!(out.findings[0].render().contains("unit-mix"));
    }

    #[test]
    fn every_rule_id_in_table_is_scoped() {
        // Each rule applies somewhere.
        for r in &RULES {
            assert!(
                applies(r.id, &ctx_for("core")) || applies(r.id, &ctx_for("harness")),
                "{} applies nowhere",
                r.id
            );
        }
    }

    // ----- unit-mix -----------------------------------------------------------

    #[test]
    fn unit_mix_arithmetic_positive() {
        let src = "fn f(a_ns: u64, b_us: u64) -> u64 { a_ns + b_us }";
        assert_eq!(rules_found("sim", src), vec!["unit-mix"]);
        let cmp = "fn g(wall_ms: u64, warm_us: u64) -> bool { wall_ms < warm_us }";
        assert_eq!(rules_found("tier", cmp), vec!["unit-mix"]);
    }

    #[test]
    fn unit_mix_call_boundary_positive() {
        let src = "fn sink(t_us: u64) {}\nfn f(t_ns: u64) { sink(t_ns); }";
        let out = scan(&ctx_for("smu"), src);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, "unit-mix");
        assert!(out.findings[0].message.contains("sink"));
    }

    #[test]
    fn unit_mix_negative_conversions_and_scoping() {
        // Same unit: fine. Scaled operand: the conversion. Composite
        // argument: opaque by design. Method-converted: opaque.
        let src = "fn sink(t_us: u64) {}\nfn f(a_ns: u64, b_ns: u64, c_us: u64) {\n\
                   let x = a_ns + b_ns;\n\
                   let y = a_ns + c_us * 1000;\n\
                   sink(a_ns / 1000);\n\
                   sink(c_us);\n\
                   }";
        assert!(rules_found("sim", src).is_empty());
        // Out of scope: harness/cli aggregate wall-clock and virtual
        // numbers deliberately.
        let bad = "fn f(a_ns: u64, b_us: u64) -> u64 { a_ns + b_us }";
        assert!(rules_found("harness", bad).is_empty());
    }

    #[test]
    fn unit_mix_ignores_strings_comments_and_tests() {
        let src = r#"
            // prose: elapsed_ns + wall_ms is fine in a comment
            fn doc() -> &'static str { "a_ns + b_us" }
            #[cfg(test)]
            mod t { fn x(a_ns: u64, b_us: u64) -> u64 { a_ns + b_us } }
        "#;
        assert!(rules_found("sim", src).is_empty());
    }

    #[test]
    fn unit_mix_ambiguous_callee_is_skipped() {
        // Two `sink` fns disagree on the parameter's unit: no finding.
        let src = "fn sink(t_us: u64) {}\nfn sink(t_ns: u64) {}\nfn f(t_ns: u64) { sink(t_ns); }";
        assert!(rules_found("sim", src).is_empty());
    }
}
