//! Layer 4: the workspace call graph and its reachability rules.
//!
//! The per-crate scoping in [`crate::rules`] answers "is this file on the
//! sim path?" by *location*. This module answers the sharper question the
//! determinism contract actually poses: "can the event loop *reach* this
//! function?" — by resolving every call site in the workspace to its
//! candidate definitions and walking the transitive closure.
//!
//! Resolution is deliberately over-approximate, in the gallium-arsenide
//! tradition of whole-program lints that must never miss:
//!
//! * a call resolves to every workspace `fn` with the **same name and a
//!   compatible arity** (method calls require a `self` receiver; path
//!   calls accept the UFCS `Type::method(self, …)` spelling);
//! * an explicit qualifier (`Foo::bar(…)`, `<T as Trait>::f(…)`,
//!   `Self::helper(…)`) or a bare-`self` receiver narrows candidates to
//!   the matching `impl` owner — but a qualifier matching *no* candidate
//!   owner narrows nothing, so trait-object dispatch and cross-crate
//!   same-name functions stay conservatively connected. Two exceptions:
//!   a qualifier naming a known standard-library container or primitive
//!   ([`is_std_qualifier`]) resolves to std by definition — Rust forbids
//!   inherent impls on foreign types — and a qualifier naming a type the
//!   workspace declares, but whose impl surface lacks the called fn,
//!   targets a `derive`d/blanket trait method. Both get *zero* workspace
//!   candidates instead of fanning `Vec::new(…)` out to every workspace
//!   `fn new` and poisoning reachability;
//! * closures are not items: their calls and sinks belong to the
//!   innermost enclosing `fn`, so reachability flows through them;
//! * `#[cfg(test)]`/`#[test]` functions are excluded as nodes and as
//!   call sources (test-mask aware).
//!
//! Recursion is handled by collapsing strongly connected components
//! (iterative Tarjan) and propagating reachability over the condensation,
//! so cycles can never hang the walk or double-count.
//!
//! Two named root sets drive the rule families built on top:
//!
//! * **event-loop roots** — `run`/`step` in `crates/core`, the
//!   `System::run` event loop that replays campaigns byte-identically;
//! * **completion-path roots** — every `finish_*` function plus the
//!   completion entry points in [`COMPLETION_ROOT_NAMES`], the paths that
//!   retire or recover an I/O and must never abort a campaign.

use std::collections::{BTreeMap, BTreeSet};

use crate::expr;
use crate::item_tree::{matching_close, Item, ItemKind, ItemTree};
use crate::lexer::{lex, TokKind, Token};
use crate::rules::{FileContext, Finding, SIM_PATH_CRATES};

/// Completion-path entry points that are not `finish_*`-named: the
/// dispatchers and recovery arms a device completion (or its timeout)
/// fires into. Kept in one place so DESIGN.md and the roster test quote
/// the same list.
pub const COMPLETION_ROOT_NAMES: [&str; 8] = [
    "handle_io_done",
    "handle_completion",
    "osdp_fault_complete",
    "osdp_fault_abort",
    "submit_or_defer",
    "drain_deferred",
    "expire_watchdog",
    "handle_controller_failure",
];

/// Event-loop root names, matched in the crate named by
/// [`EVENT_ROOT_CRATE`] only.
pub const EVENT_ROOT_NAMES: [&str; 2] = ["run", "step"];

/// The crate owning the event loop.
pub const EVENT_ROOT_CRATE: &str = "core";

/// What kind of nondeterministic / policy-relevant operation a sink is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    /// `Instant` / `SystemTime`: host wall clock.
    WallClock,
    /// `std::thread` / `thread::spawn|sleep|scope`.
    ThreadSpawn,
    /// `HashMap` / `HashSet`: randomized iteration order.
    HashOrder,
    /// `{:p}` pointer formatting: ASLR-dependent output.
    PtrFormat,
    /// `.unwrap()` / `.expect()` / `panic!` / `unreachable!` /
    /// `todo!` / `unimplemented!`.
    PanicPath,
    /// Heap allocation or copy: container constructors, `vec!`,
    /// `format!`, `.clone()`, `.to_string()`, `.to_vec()`,
    /// `.to_owned()`, `.collect()`.
    Alloc,
    /// A narrowing `as` cast on a unit-suffixed operand
    /// (`_ns`/`_us`/`_ms`/cycle/LBA).
    CastTruncation,
}

impl SinkKind {
    /// Stable label used in the exported JSON.
    pub fn label(self) -> &'static str {
        match self {
            SinkKind::WallClock => "wall-clock",
            SinkKind::ThreadSpawn => "thread-spawn",
            SinkKind::HashOrder => "hash-order",
            SinkKind::PtrFormat => "ptr-format",
            SinkKind::PanicPath => "panic-path",
            SinkKind::Alloc => "alloc",
            SinkKind::CastTruncation => "cast-truncation",
        }
    }
}

/// One sink occurrence inside a function body.
#[derive(Clone, Debug)]
pub struct Sink {
    /// Classification.
    pub kind: SinkKind,
    /// What was matched, for diagnostics (`HashMap`, `.unwrap()`, …).
    pub what: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// One call out of a function body, reduced to what resolution needs.
#[derive(Clone, Debug)]
pub struct Call {
    /// Callee name (final path segment).
    pub name: String,
    /// Number of arguments at the call site.
    pub argc: usize,
    /// `receiver.name(…)` form.
    pub is_method: bool,
    /// Exactly `self.name(…)`.
    pub receiver_self: bool,
    /// `Foo::name(…)` → `Foo`; `<T as Trait>::name(…)` → `T`.
    pub qualifier: Option<String>,
    /// 1-based source line of the call.
    pub line: u32,
}

/// One function definition: a node of the graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Short crate name (`core`, `harness`, …).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` self-type's final path segment, when the fn is a
    /// method or associated fn.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared `pub` (any restriction level counts).
    pub is_pub: bool,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Parameter count, `self` excluded.
    pub arity: usize,
    /// Outgoing call sites, in source order.
    pub calls: Vec<Call>,
    /// Sinks in the body, in source order.
    pub sinks: Vec<Sink>,
}

impl FnNode {
    /// `Owner::name` for methods, bare `name` otherwise.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The resolved workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Every non-test `fn` in the workspace, files in sorted-path order,
    /// fns in source order within a file.
    pub nodes: Vec<FnNode>,
    /// Adjacency: `edges[v]` is the sorted, deduplicated list of callee
    /// node ids the calls of `v` resolve to.
    pub edges: Vec<Vec<usize>>,
    /// Strongly connected component id per node (Tarjan).
    pub scc_of: Vec<usize>,
    /// Number of SCCs.
    pub scc_count: usize,
    /// Event-loop root node ids.
    pub event_roots: Vec<usize>,
    /// Completion-path root node ids.
    pub completion_roots: Vec<usize>,
    /// Per node: transitively reachable from an event-loop root.
    pub reach_event: Vec<bool>,
    /// Per node: transitively reachable from a completion-path root.
    pub reach_completion: Vec<bool>,
}

impl CallGraph {
    /// Node id of the unique function matching `qname` (`Owner::name` or
    /// bare `name`); `None` when absent or ambiguous-by-bare-name is
    /// acceptable (first match wins for bare names).
    pub fn find(&self, qname: &str) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.qualified() == qname || (!qname.contains(':') && n.name == qname))
    }
}

/// Builds the call graph from `(context, source)` pairs. Pass files in
/// sorted-path order for deterministic node ids (the workspace driver
/// does; see `collect_sources`).
pub fn build<'a>(files: impl Iterator<Item = (&'a FileContext, &'a str)>) -> CallGraph {
    let mut nodes: Vec<FnNode> = Vec::new();
    let mut types: BTreeSet<String> = BTreeSet::new();
    for (ctx, source) in files {
        collect_file(ctx, source, &mut nodes, &mut types);
    }

    // Name index for resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, n) in nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(id);
    }

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for v in 0..nodes.len() {
        let mut outgoing = BTreeSet::new();
        for call in &nodes[v].calls {
            let Some(cands) = by_name.get(call.name.as_str()) else { continue };
            let matched: Vec<usize> =
                cands.iter().copied().filter(|&w| arity_matches(&nodes[w], call)).collect();
            for w in narrow_candidates(&nodes, &types, v, call, matched) {
                outgoing.insert(w);
            }
        }
        edges[v] = outgoing.into_iter().collect();
    }

    let (scc_of, scc_count) = tarjan_sccs(nodes.len(), &edges);

    let event_roots: Vec<usize> = (0..nodes.len())
        .filter(|&i| {
            nodes[i].crate_name == EVENT_ROOT_CRATE
                && EVENT_ROOT_NAMES.contains(&nodes[i].name.as_str())
        })
        .collect();
    let completion_roots: Vec<usize> = (0..nodes.len())
        .filter(|&i| {
            SIM_PATH_CRATES.contains(&nodes[i].crate_name.as_str())
                && (nodes[i].name.starts_with("finish_")
                    || COMPLETION_ROOT_NAMES.contains(&nodes[i].name.as_str()))
        })
        .collect();

    // Condensation adjacency, shared by both reachability walks.
    let mut scc_adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); scc_count];
    for (v, outs) in edges.iter().enumerate() {
        for &w in outs {
            if scc_of[v] != scc_of[w] {
                scc_adj[scc_of[v]].insert(scc_of[w]);
            }
        }
    }
    let reach_event = reach_over_sccs(&event_roots, &scc_of, scc_count, &scc_adj, nodes.len());
    let reach_completion =
        reach_over_sccs(&completion_roots, &scc_of, scc_count, &scc_adj, nodes.len());

    CallGraph {
        nodes,
        edges,
        scc_of,
        scc_count,
        event_roots,
        completion_roots,
        reach_event,
        reach_completion,
    }
}

/// The four reachability rule families, as findings over `g`.
pub fn findings(g: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    for (id, node) in g.nodes.iter().enumerate() {
        for sink in &node.sinks {
            let (rule, message): (&'static str, String) = match sink.kind {
                SinkKind::WallClock | SinkKind::ThreadSpawn | SinkKind::HashOrder
                | SinkKind::PtrFormat => {
                    if !g.reach_event[id] {
                        continue;
                    }
                    (
                        "det-reachability",
                        format!(
                            "nondeterministic sink `{}` in `{}`, which the event loop reaches; \
                             campaigns replay byte-identically only without it",
                            sink.what,
                            node.qualified()
                        ),
                    )
                }
                SinkKind::PanicPath => {
                    if !g.reach_completion[id] {
                        continue;
                    }
                    (
                        "panic-reachability",
                        format!(
                            "panic path `{}` in `{}`, reachable from the completion roots; \
                             completion handling must degrade to typed errors, not abort",
                            sink.what,
                            node.qualified()
                        ),
                    )
                }
                SinkKind::Alloc => {
                    if !g.reach_event[id] {
                        continue;
                    }
                    (
                        "hot-path-alloc",
                        format!(
                            "allocation `{}` in `{}` on the event-loop hot path \
                             (ratcheted census for the raw-speed work-list)",
                            sink.what,
                            node.qualified()
                        ),
                    )
                }
                SinkKind::CastTruncation => {
                    if !g.reach_event[id] {
                        continue;
                    }
                    (
                        "cast-truncation",
                        format!(
                            "narrowing cast `{}` in `{}` on the reachable sim path \
                             can silently truncate a time/LBA value",
                            sink.what,
                            node.qualified()
                        ),
                    )
                }
            };
            out.push(Finding {
                file: node.file.clone(),
                line: sink.line,
                col: sink.col,
                rule,
                message,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Per-file collection
// ---------------------------------------------------------------------------

fn collect_file(
    ctx: &FileContext,
    source: &str,
    nodes: &mut Vec<FnNode>,
    types: &mut BTreeSet<String>,
) {
    let toks = lex(source);
    let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let tree = ItemTree::parse(&sig);
    let mask = tree.test_token_mask(sig.len());
    // Record every concrete type the workspace declares (production code
    // only — a test-local type must not narrow production resolution).
    // Trait names are deliberately excluded: a trait-qualified UFCS call
    // legitimately lands on impl fns owned by the implementing types.
    for (i, w) in sig.windows(2).enumerate() {
        if w[0].kind == TokKind::Ident
            && matches!(w[0].text.as_str(), "struct" | "enum" | "union")
            && w[1].kind == TokKind::Ident
            && !mask.get(i).copied().unwrap_or(false)
        {
            types.insert(w[1].text.clone());
        }
    }
    // owner_of[i]: node id whose body significant token i belongs to.
    // Children overwrite parents, so closures (not items) stay with the
    // innermost fn while nested fns claim their own tokens.
    let mut owner_of: Vec<Option<usize>> = vec![None; sig.len()];
    collect_items(ctx, &sig, &mask, &tree.items, None, nodes, &mut owner_of);

    for c in expr::call_sites(&sig) {
        let Some(&Some(id)) = owner_of.get(c.at) else { continue };
        nodes[id].calls.push(Call {
            name: c.callee,
            argc: c.args.len(),
            is_method: c.is_method,
            receiver_self: c.receiver_self,
            qualifier: c.qualifier,
            line: c.line,
        });
    }
    collect_sinks(&sig, &owner_of, nodes);
}

fn collect_items(
    ctx: &FileContext,
    sig: &[&Token],
    mask: &[bool],
    items: &[Item],
    impl_owner: Option<&str>,
    nodes: &mut Vec<FnNode>,
    owner_of: &mut [Option<usize>],
) {
    for item in items {
        let masked = item.test_only
            || mask.get(item.span.0).copied().unwrap_or(false);
        if masked {
            // A test-only item nested inside a library fn body must not
            // attribute its tokens to the enclosing node.
            for slot in owner_of
                .iter_mut()
                .take(item.span.1.min(sig.len()))
                .skip(item.span.0)
            {
                *slot = None;
            }
            continue;
        }
        match item.kind {
            ItemKind::Impl => {
                let owner = impl_self_type(sig, item);
                collect_items(ctx, sig, mask, &item.children, owner.as_deref(), nodes, owner_of);
            }
            ItemKind::Fn => {
                if let Some(name) = &item.name {
                    let id = nodes.len();
                    nodes.push(fn_node(ctx, sig, item, name, impl_owner));
                    if let Some((bs, be)) = item.body {
                        for slot in owner_of.iter_mut().take(be.min(sig.len())).skip(bs) {
                            *slot = Some(id);
                        }
                    }
                }
                collect_items(ctx, sig, mask, &item.children, None, nodes, owner_of);
            }
            _ => collect_items(ctx, sig, mask, &item.children, impl_owner, nodes, owner_of),
        }
    }
}

fn fn_node(
    ctx: &FileContext,
    sig: &[&Token],
    item: &Item,
    name: &str,
    impl_owner: Option<&str>,
) -> FnNode {
    let span_end = item.span.1.min(sig.len());
    let kw = (item.span.0..span_end).find(|&k| sig[k].is_ident("fn")).unwrap_or(item.span.0);
    let header_end = item.body.map_or(item.span.1, |(s, _)| s).min(sig.len());
    // Visibility precedes the `fn` keyword but may sit *outside* the item
    // span (the span starts at the first attribute, or at `fn` itself
    // when there is none): scan back over the qualifier run.
    let mut is_pub = false;
    let mut k = kw;
    while k > 0 && kw - k < 8 {
        let t = sig[k - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("pub") {
            is_pub = true;
            break;
        }
        k -= 1;
    }
    let (arity, has_self) = expr::paren_after_generics(sig, kw + 2, header_end)
        .and_then(|open| matching_close(sig, open, '(', ')').map(|close| (open, close)))
        .map_or((0, false), |(open, close)| {
            let (params, hs) = expr::split_params(sig, open + 1, close);
            (params.len(), hs)
        });
    FnNode {
        crate_name: ctx.crate_name.clone(),
        file: ctx.path.clone(),
        name: name.to_string(),
        owner: impl_owner.map(str::to_string),
        line: sig.get(kw).map_or(0, |t| t.line),
        is_pub,
        has_self,
        arity,
        calls: Vec::new(),
        sinks: Vec::new(),
    }
}

/// Final path segment of an `impl` block's self type: `impl Foo` → `Foo`,
/// `impl<T> Trait for Foo<T>` → `Foo`, `impl a::B` → `B`.
fn impl_self_type(sig: &[&Token], item: &Item) -> Option<String> {
    let header_end = item.body.map_or(item.span.1, |(s, _)| s).min(sig.len());
    let kw = (item.span.0..header_end).find(|&k| sig[k].is_ident("impl"))?;
    let mut start = kw + 1;
    // Skip the generic parameter list directly after `impl`.
    if sig.get(start).is_some_and(|t| t.is_punct('<')) {
        start = angle_close(sig, start, header_end)? + 1;
    }
    // A top-level `for` separates trait from self type.
    let mut angle = 0i64;
    let mut ty_start = start;
    for k in start..header_end {
        let t = sig[k];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(k > 0 && sig[k - 1].is_punct('-')) {
            angle -= 1;
        } else if angle == 0 && t.is_ident("for") {
            ty_start = k + 1;
            break;
        }
    }
    // Last depth-0 path-segment ident before `where` / body.
    let mut angle = 0i64;
    let mut owner = None;
    for k in ty_start..header_end {
        let t = sig[k];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(k > 0 && sig[k - 1].is_punct('-')) {
            angle -= 1;
        } else if angle == 0 {
            if t.is_ident("where") {
                break;
            }
            if t.kind == TokKind::Ident && !t.is_ident("dyn") && !t.is_ident("mut") {
                owner = Some(t.text.clone());
            }
        }
    }
    owner
}

/// Index of the `>` closing the `<` at `open`, scanning to `end`.
fn angle_close(sig: &[&Token], open: usize, end: usize) -> Option<usize> {
    let mut depth = 0i64;
    for k in open..end.min(sig.len()) {
        let t = sig[k];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(k > 0 && sig[k - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Container types whose associated constructors count as allocation
/// sites for the hot-path census.
const ALLOC_OWNERS: [&str; 8] =
    ["Box", "Vec", "String", "VecDeque", "BTreeMap", "BTreeSet", "Rc", "Arc"];
/// Their constructor names.
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];
/// Allocating (or copying) method names.
const ALLOC_METHODS: [&str; 5] = ["clone", "to_string", "to_vec", "to_owned", "collect"];
/// Narrow integer types a suffixed operand must not be `as`-cast into.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Whether `name` carries a unit the cast-truncation rule protects:
/// `_ns`/`_us`/`_ms` time suffixes, cycle counters, LBAs.
fn truncatable_operand(name: &str) -> bool {
    for suffix in ["ns", "us", "ms", "cycles", "cycle", "lba"] {
        if name == suffix {
            return true;
        }
        if name.len() > suffix.len() + 1 && name.ends_with(suffix) {
            let boundary = name.as_bytes()[name.len() - suffix.len() - 1];
            if boundary == b'_' {
                return true;
            }
        }
    }
    false
}

fn collect_sinks(sig: &[&Token], owner_of: &[Option<usize>], nodes: &mut [FnNode]) {
    for i in 0..sig.len() {
        let Some(&Some(id)) = owner_of.get(i) else { continue };
        let t = sig[i];
        let prev = i.checked_sub(1).map(|p| sig[p]);
        let next = sig.get(i + 1);
        let next2 = sig.get(i + 2);
        let push = |nodes: &mut [FnNode], kind: SinkKind, what: String| {
            nodes[id].sinks.push(Sink { kind, what, line: t.line, col: t.col });
        };
        if t.kind == TokKind::Str {
            if t.text.contains(":p}") {
                push(nodes, SinkKind::PtrFormat, "{:p}".into());
            }
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let after_dot = prev.is_some_and(|p| p.is_punct('.'));
        // `(` directly after, or after a `::<…>` turbofish.
        let opens_args = next.is_some_and(|n| n.is_punct('('))
            || (next.is_some_and(|n| n.is_punct(':')) && next2.is_some_and(|n| n.is_punct(':')));
        match t.text.as_str() {
            "HashMap" | "HashSet" => push(nodes, SinkKind::HashOrder, t.text.clone()),
            "Instant" | "SystemTime" => push(nodes, SinkKind::WallClock, t.text.clone()),
            "std"
                if next.is_some_and(|n| n.is_punct(':'))
                    && next2.is_some_and(|n| n.is_punct(':'))
                    && sig.get(i + 3).is_some_and(|n| n.is_ident("thread")) =>
            {
                push(nodes, SinkKind::ThreadSpawn, "std::thread".into());
            }
            "thread"
                if next.is_some_and(|n| n.is_punct(':'))
                    && next2.is_some_and(|n| n.is_punct(':'))
                    && sig.get(i + 3).is_some_and(|n| {
                        n.is_ident("spawn") || n.is_ident("sleep") || n.is_ident("scope")
                    })
                    && !prev.is_some_and(|p| p.is_punct(':') || p.is_punct('.')) =>
            {
                push(nodes, SinkKind::ThreadSpawn, "thread::spawn".into());
            }
            "unwrap" | "expect" if after_dot && next.is_some_and(|n| n.is_punct('(')) => {
                push(nodes, SinkKind::PanicPath, format!(".{}()", t.text));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next.is_some_and(|n| n.is_punct('!')) =>
            {
                push(nodes, SinkKind::PanicPath, format!("{}!", t.text));
            }
            "vec" | "format" if next.is_some_and(|n| n.is_punct('!')) && !after_dot => {
                push(nodes, SinkKind::Alloc, format!("{}!", t.text));
            }
            "as" => {
                let lhs = prev.filter(|p| p.kind == TokKind::Ident);
                let rhs = next.filter(|n| NARROW_INTS.contains(&n.text.as_str()));
                if let (Some(l), Some(r)) = (lhs, rhs) {
                    if truncatable_operand(&l.text) {
                        push(nodes, SinkKind::CastTruncation, format!("{} as {}", l.text, r.text));
                    }
                }
            }
            name if ALLOC_METHODS.contains(&name) && after_dot && opens_args => {
                push(nodes, SinkKind::Alloc, format!(".{name}()"));
            }
            name if ALLOC_CTORS.contains(&name)
                && next.is_some_and(|n| n.is_punct('('))
                && i >= 3
                && sig[i - 1].is_punct(':')
                && sig[i - 2].is_punct(':')
                && ALLOC_OWNERS.contains(&sig[i - 3].text.as_str()) =>
            {
                push(nodes, SinkKind::Alloc, format!("{}::{name}", sig[i - 3].text));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

/// Whether a candidate definition is callable with the site's shape.
fn arity_matches(cand: &FnNode, call: &Call) -> bool {
    if call.is_method {
        cand.has_self && cand.arity == call.argc
    } else {
        // Free/associated call, or the UFCS `Type::method(self, …)` form.
        (!cand.has_self && cand.arity == call.argc)
            || (cand.has_self && cand.arity + 1 == call.argc)
    }
}

/// Standard-library qualifiers that can never name a workspace `impl`
/// owner (inherent impls on foreign types are not legal Rust). A path
/// call qualified by one of these targets std, so keeping same-name
/// workspace fns as candidates would only inject phantom edges — e.g.
/// `BTreeMap::new()` inside the event loop fanning out to every
/// workspace constructor named `new` and dragging whole subsystems into
/// the event-reachable set.
fn is_std_qualifier(q: &str) -> bool {
    matches!(
        q,
        "Box" | "Vec" | "String" | "VecDeque" | "BTreeMap" | "BTreeSet" | "Rc" | "Arc"
            | "BinaryHeap" | "HashMap" | "HashSet" | "Reverse" | "PathBuf" | "Instant"
            | "Option" | "Result" | "Ordering"
            | "u8" | "u16" | "u32" | "u64" | "u128" | "usize"
            | "i8" | "i16" | "i32" | "i64" | "i128" | "isize"
            | "f32" | "f64" | "bool" | "char" | "str"
    )
}

/// Applies qualifier / `self`-receiver narrowing. Narrowing that would
/// eliminate every candidate is discarded — over-approximation beats a
/// silently dropped edge — with two exceptions where an empty result is
/// the *correct* resolution, not a failed narrowing:
///
/// * the qualifier is a std container/primitive ([`is_std_qualifier`]),
///   so the callee lives outside the workspace by construction;
/// * the qualifier names a `struct`/`enum`/`union` the workspace itself
///   declares, but no workspace fn of that owner matches this call —
///   then the callee is a `derive`d or blanket trait method
///   (`X::default()`, `X::clone()` on a derive), which is
///   compiler-generated and calls back into nothing the census should
///   attribute.
fn narrow_candidates(
    nodes: &[FnNode],
    types: &BTreeSet<String>,
    caller: usize,
    call: &Call,
    matched: Vec<usize>,
) -> Vec<usize> {
    let same_owner = |w: &usize, owner: &str, same_crate: bool| {
        nodes[*w].owner.as_deref() == Some(owner)
            && (!same_crate || nodes[*w].crate_name == nodes[caller].crate_name)
    };
    if let Some(q) = &call.qualifier {
        let target = if q == "Self" { nodes[caller].owner.clone() } else { Some(q.clone()) };
        if let Some(tname) = target {
            let own: Vec<usize> =
                matched.iter().copied().filter(|w| same_owner(w, &tname, q == "Self")).collect();
            if !own.is_empty() {
                return own;
            }
            // The workspace's impl surface for its own declared types is
            // fully known: a qualified call that matches none of it
            // targets a derived/blanket impl (`X::default()`,
            // `X::clone()` on a derive), not workspace code.
            if types.contains(tname.as_str()) {
                return Vec::new();
            }
        }
        if is_std_qualifier(q) {
            return Vec::new();
        }
        return matched;
    }
    if call.receiver_self {
        if let Some(owner) = nodes[caller].owner.clone() {
            let own: Vec<usize> =
                matched.iter().copied().filter(|w| same_owner(w, &owner, true)).collect();
            if !own.is_empty() {
                return own;
            }
        }
    }
    matched
}

// ---------------------------------------------------------------------------
// SCCs and reachability
// ---------------------------------------------------------------------------

/// Iterative Tarjan: SCC id per node plus the SCC count. Ids are assigned
/// in completion order, deterministic for a fixed graph.
fn tarjan_sccs(n: usize, adj: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut next_index = 0usize;
    let mut scc_count = 0usize;
    for s in 0..n {
        if index[s] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(s, 0)];
        while let Some(&(v, ei)) = work.last() {
            if ei == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ei < adj[v].len() {
                if let Some(top) = work.last_mut() {
                    top.1 += 1;
                }
                let w = adj[v][ei];
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(p, _)) = work.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc_of[w] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
            }
        }
    }
    (scc_of, scc_count)
}

/// Per-node reachability from `roots`, propagated over the SCC
/// condensation so recursion collapses to a single visit.
fn reach_over_sccs(
    roots: &[usize],
    scc_of: &[usize],
    scc_count: usize,
    scc_adj: &[BTreeSet<usize>],
    n: usize,
) -> Vec<bool> {
    let mut seen = vec![false; scc_count];
    let mut queue: Vec<usize> = roots.iter().map(|&r| scc_of[r]).collect();
    while let Some(c) = queue.pop() {
        if seen[c] {
            continue;
        }
        seen[c] = true;
        for &d in &scc_adj[c] {
            if !seen[d] {
                queue.push(d);
            }
        }
    }
    (0..n).map(|v| seen[scc_of[v]]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_name: &str, file: &str) -> FileContext {
        FileContext { crate_name: crate_name.into(), path: format!("crates/{crate_name}/src/{file}") }
    }

    fn graph(files: &[(FileContext, &str)]) -> CallGraph {
        build(files.iter().map(|(c, s)| (c, *s)))
    }

    #[test]
    fn direct_recursion_and_mutual_scc_collapse() {
        let files = [(
            ctx("core", "system.rs"),
            "impl System {\n\
             pub fn run(&mut self) { self.even(4); self.rec(1); }\n\
             fn rec(&self, n: u64) { self.rec(n) }\n\
             fn even(&self, n: u64) { self.odd(n) }\n\
             fn odd(&self, n: u64) { self.even(n) }\n\
             }",
        )];
        let g = graph(&files);
        let rec = g.find("System::rec").expect("rec node");
        assert_eq!(g.edges[rec], vec![rec], "self-loop resolved");
        let even = g.find("System::even").expect("even");
        let odd = g.find("System::odd").expect("odd");
        assert_eq!(g.scc_of[even], g.scc_of[odd], "mutual recursion shares an SCC");
        assert_ne!(g.scc_of[even], g.scc_of[rec]);
        assert!(g.reach_event[rec] && g.reach_event[even] && g.reach_event[odd]);
    }

    #[test]
    fn cross_crate_same_name_over_approximates() {
        let files = [
            (ctx("core", "system.rs"), "pub fn run() { tick(3); }"),
            (ctx("smu", "smu.rs"), "pub fn tick(n: u64) {}"),
            (ctx("nvme", "device.rs"), "pub fn tick(n: u64) {}"),
            (ctx("os", "kernel.rs"), "pub fn tick(a: u64, b: u64) {}"),
        ];
        let g = graph(&files);
        let run = g.find("run").expect("run");
        assert_eq!(g.edges[run].len(), 2, "both arity-1 ticks, not the arity-2 one");
        let smu_tick = g.nodes.iter().position(|n| n.crate_name == "smu").expect("smu tick");
        let nvme_tick = g.nodes.iter().position(|n| n.crate_name == "nvme").expect("nvme tick");
        assert!(g.reach_event[smu_tick] && g.reach_event[nvme_tick]);
    }

    #[test]
    fn qualifier_narrows_to_the_impl_owner() {
        let files = [(
            ctx("core", "system.rs"),
            "impl Foo { pub fn make(x: u64) {} }\n\
             impl Bar { pub fn make(x: u64) {} }\n\
             pub fn run() { Foo::make(1); }",
        )];
        let g = graph(&files);
        let run = g.find("run").expect("run");
        let foo = g.find("Foo::make").expect("Foo::make");
        assert_eq!(g.edges[run], vec![foo], "Bar::make excluded by the qualifier");
    }

    #[test]
    fn trait_object_dispatch_connects_all_impls() {
        let files = [
            (
                ctx("core", "system.rs"),
                "pub fn run(s: &mut dyn Sweeper) { s.sweep(7); }",
            ),
            (ctx("smu", "smu.rs"), "impl Sweeper for Smu { fn sweep(&mut self, n: u64) {} }"),
            (ctx("os", "kernel.rs"), "impl Sweeper for Os { fn sweep(&mut self, n: u64) {} }"),
        ];
        let g = graph(&files);
        let run = g.find("run").expect("run");
        assert_eq!(g.edges[run].len(), 2, "dynamic dispatch keeps every impl reachable");
    }

    #[test]
    fn closure_bodies_attribute_to_the_enclosing_fn() {
        let files = [(
            ctx("core", "system.rs"),
            "impl System { pub fn run(&mut self) {\n\
             let f = |x: u64| helper(x);\n\
             self.items.retain(|e| { e.check(); true });\n\
             } }\n\
             pub fn helper(x: u64) { let v: Vec<u64> = Vec::new(); }",
        )];
        let g = graph(&files);
        let run = g.find("System::run").expect("run");
        let helper = g.find("helper").expect("helper");
        assert!(g.edges[run].contains(&helper), "call inside a closure still edges out");
        assert!(g.reach_event[helper]);
        let alloc_in_helper =
            g.nodes[helper].sinks.iter().any(|s| s.kind == SinkKind::Alloc);
        assert!(alloc_in_helper, "Vec::new census'd in the reachable helper");
    }

    #[test]
    fn cfg_test_fns_are_neither_nodes_nor_sources() {
        let files = [(
            ctx("core", "system.rs"),
            "pub fn run() {}\n\
             pub fn scary() { let m: HashMap<u32, u32> = HashMap::new(); }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { run(); scary(); panic!(\"x\") } }",
        )];
        let g = graph(&files);
        assert!(g.find("t").is_none(), "test fn excluded");
        let scary = g.find("scary").expect("scary");
        assert!(!g.reach_event[scary], "call from a test fn creates no reachability");
        assert!(findings(&g).is_empty(), "unreachable sinks produce no findings");
    }

    #[test]
    fn nested_test_item_tokens_do_not_leak_to_the_parent() {
        let files = [(
            ctx("core", "system.rs"),
            "pub fn run() {\n\
             #[cfg(test)]\n\
             fn inner() { panic!(\"x\"); }\n\
             }",
        )];
        let g = graph(&files);
        let run = g.find("run").expect("run");
        assert!(g.nodes[run].sinks.is_empty(), "masked nested item stays unattributed");
    }

    #[test]
    fn det_and_panic_reachability_findings() {
        let files = [
            (
                ctx("core", "system.rs"),
                "impl System {\n\
                 pub fn run(&mut self) { self.advance(); }\n\
                 fn advance(&mut self) { wobble(); }\n\
                 pub fn finish_io(&mut self) { self.close_out(); }\n\
                 fn close_out(&mut self) { self.slot.take().unwrap(); }\n\
                 }",
            ),
            (
                ctx("harness", "pool.rs"),
                "pub fn wobble() { let t = Instant::now(); }",
            ),
        ];
        let g = graph(&files);
        let fs = findings(&g);
        let rules: Vec<&str> = fs.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"det-reachability"), "{fs:?}");
        assert!(rules.contains(&"panic-reachability"), "{fs:?}");
        let det = fs.iter().find(|f| f.rule == "det-reachability").expect("det");
        assert!(det.file.contains("harness"), "reachability crosses crate boundaries");
    }

    #[test]
    fn cast_truncation_on_suffixed_operands_only() {
        let files = [(
            ctx("core", "system.rs"),
            "pub fn run(t_ns: u64, idx: u64, lba: u64) {\n\
             let a = t_ns as u32;\n\
             let b = idx as u32;\n\
             let c = lba as u16;\n\
             let d = t_ns as u64;\n\
             }",
        )];
        let g = graph(&files);
        let fs = findings(&g);
        let casts: Vec<&str> = fs
            .iter()
            .filter(|f| f.rule == "cast-truncation")
            .map(|f| f.message.split('`').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(casts, vec!["t_ns as u32", "lba as u16"]);
    }

    #[test]
    fn completion_roots_cover_finish_prefix_and_named_list() {
        let files = [(
            ctx("smu", "smu.rs"),
            "impl Smu {\n\
             pub fn finish_zero_fill(&mut self) {}\n\
             pub fn handle_completion(&mut self) {}\n\
             pub fn unrelated(&mut self) {}\n\
             }",
        )];
        let g = graph(&files);
        assert_eq!(g.completion_roots.len(), 2);
        let unrelated = g.find("Smu::unrelated").expect("node");
        assert!(!g.reach_completion[unrelated]);
    }

    #[test]
    fn ufcs_and_self_qualifier_resolution() {
        let files = [(
            ctx("core", "system.rs"),
            "impl System {\n\
             pub fn run(&mut self) { Self::helper(self); System::tick(self, 1); }\n\
             fn helper(&mut self) {}\n\
             fn tick(&mut self, n: u64) {}\n\
             }",
        )];
        let g = graph(&files);
        let run = g.find("System::run").expect("run");
        let helper = g.find("System::helper").expect("helper");
        let tick = g.find("System::tick").expect("tick");
        assert_eq!(g.edges[run], vec![helper, tick]);
    }
}
