//! Expression-level views over the significant token stream.
//!
//! The item tree ([`crate::item_tree`]) gives the rules structural
//! scoping; the semantic rules need one layer more: *expressions* —
//! which identifiers meet in a binary operation, what a call site passes
//! into which parameter, which string literal sits in key position at a
//! metrics sink. This module extracts exactly those shapes, nothing else:
//!
//! * [`fn_sigs`] — every `fn` signature's parameter names,
//!   brace/paren/angle-matched so default values, array types, and
//!   generic bounds cannot derail it.
//! * [`call_sites`] — `callee(arg, …)` occurrences with each argument
//!   reduced to its sole identifier when it is a bare name or dotted
//!   path (anything more complex is deliberately opaque: a composite
//!   expression is where unit conversions live).
//! * [`bin_ops`] — `lhs ⊕ rhs` where both operands are identifiers and
//!   `⊕` is additive/comparison (multiplicative operators are exempt by
//!   construction: scaling by a constant *is* the unit conversion).
//! * [`sink_strings`] — string literals in tuple-key position
//!   (`("key", …)`) inside a named function, the `export_metrics` shape.
//! * [`struct_fields`] — field names of a named struct, for contract
//!   rules that cross-reference a struct against the rest of the tree.
//!
//! Like the lexer and the item tree, extraction is forgiving: malformed
//! input produces fewer facts, never a panic.

use crate::item_tree::{matching_close, ItemKind, ItemTree};
use crate::lexer::{TokKind, Token};

/// One function parameter: binding name (when the pattern is a plain,
/// possibly `mut`, identifier) and the flattened type text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// Binding identifier, `None` for destructuring patterns.
    pub name: Option<String>,
    /// Type tokens joined with single spaces (`Option < u64 >`).
    pub ty: String,
}

/// One harvested `fn` signature.
#[derive(Clone, Debug)]
pub struct FnSig {
    /// Function name.
    pub name: String,
    /// Parameters in order, the `self` receiver (if any) excluded.
    pub params: Vec<Param>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn lives inside a test-only span.
    pub test_only: bool,
}

/// One call argument, reduced to what the rules can reason about.
#[derive(Clone, Debug)]
pub struct Arg {
    /// `Some(last_segment)` when the argument is nothing but an
    /// identifier path (`x`, `self.t_ns`, `&cfg.period_us`); `None` for
    /// any composite expression.
    pub sole_ident: Option<String>,
}

/// One `callee(args…)` occurrence.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The identifier directly before the argument list (for method and
    /// path calls this is the final segment). Turbofish call sites
    /// (`f::<T>(…)`) report the identifier before the `::<…>`.
    pub callee: String,
    /// `true` when invoked as `receiver.callee(…)`.
    pub is_method: bool,
    /// `true` when invoked as exactly `self.callee(…)` (the receiver is
    /// the bare `self`, not a field or a chained expression).
    pub receiver_self: bool,
    /// The path segment qualifying the call, when there is one:
    /// `Foo::bar(…)` → `Foo`, `<T as Trait>::f(…)` → `T`,
    /// `Self::helper(…)` → `Self`. `None` for unqualified and method
    /// calls. Call-graph resolution uses this to narrow candidates to an
    /// impl owner; a qualifier matching nothing narrows nothing.
    pub qualifier: Option<String>,
    /// Arguments in order.
    pub args: Vec<Arg>,
    /// Significant-token index of the callee identifier.
    pub at: usize,
    /// 1-based source position of the callee.
    pub line: u32,
    /// 1-based column of the callee.
    pub col: u32,
}

/// A binary operation between two bare identifier operands.
#[derive(Clone, Debug)]
pub struct BinOp {
    /// The operator's first punctuation byte (`+`, `-`, `<`, `>`, `%`).
    pub op: char,
    /// Last path segment of the left operand.
    pub lhs: String,
    /// Last path segment of the right operand.
    pub rhs: String,
    /// Significant-token index of the operator.
    pub at: usize,
    /// 1-based source line of the operator.
    pub line: u32,
    /// 1-based column of the operator.
    pub col: u32,
}

/// A string literal in tuple-key position inside a named fn.
#[derive(Clone, Debug)]
pub struct SinkStr {
    /// Literal contents (escapes as written).
    pub value: String,
    /// Index of the enclosing fn among same-named fns in the file
    /// (distinguishes `RunResult::export_metrics` from
    /// `ThreadReport::export_metrics` within one file).
    pub owner: usize,
    /// 1-based source line of the literal.
    pub line: u32,
    /// 1-based column of the literal.
    pub col: u32,
}

/// Rust keywords that can directly precede a parenthesis without being a
/// call (`match (a, b)`, `if (…)`, `return (…)`, …).
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "match", "for", "return", "loop", "in", "as", "move", "fn", "impl", "let",
];

/// Harvests every `fn` signature in the tree. `mask` is the test-token
/// mask from [`ItemTree::test_token_mask`]; a fn inside a masked span
/// (its own `#[test]`/`#[cfg(test)]` attribute *or* an enclosing test
/// module) is reported with `test_only = true`.
pub fn fn_sigs(sig: &[&Token], tree: &ItemTree, mask: &[bool]) -> Vec<FnSig> {
    let mut out = Vec::new();
    tree.for_each(&mut |item| {
        if item.kind != ItemKind::Fn {
            return;
        }
        let Some(name) = item.name.clone() else { return };
        // The `fn` keyword: first `fn` token in the span (attributes may
        // precede it).
        let Some(kw) = (item.span.0..item.span.1.min(sig.len()))
            .find(|&k| sig[k].is_ident("fn"))
        else {
            return;
        };
        let header_end = item.body.map_or(item.span.1, |(s, _)| s).min(sig.len());
        let Some(open) = paren_after_generics(sig, kw + 2, header_end) else { return };
        let Some(close) = matching_close(sig, open, '(', ')') else { return };
        let (params, _has_self) = split_params(sig, open + 1, close);
        out.push(FnSig {
            name,
            params,
            line: sig[kw].line,
            test_only: item.test_only || mask.get(kw).copied().unwrap_or(false),
        });
    });
    out
}

/// First `(` at angle-depth 0 in `sig[from..end]` — skips a generic
/// parameter list (which may itself contain `Fn(…) -> T` bounds).
pub(crate) fn paren_after_generics(sig: &[&Token], from: usize, end: usize) -> Option<usize> {
    let mut angle = 0i64;
    let mut k = from;
    while k < end {
        let t = sig[k];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // `->` inside a bound is an arrow, not a closing angle.
            let arrow = k > 0 && sig[k - 1].is_punct('-');
            if !arrow && angle > 0 {
                angle -= 1;
            }
        } else if t.is_punct('(') && angle == 0 {
            return Some(k);
        }
        k += 1;
    }
    None
}

/// Splits `sig[start..end]` (the inside of a parameter list) at top-level
/// commas and extracts each parameter. The `self` receiver is dropped
/// from the list; whether one was present is returned alongside.
pub(crate) fn split_params(sig: &[&Token], start: usize, end: usize) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    for (lo, hi) in split_top_level(sig, start, end) {
        let group = &sig[lo..hi];
        if !group.is_empty()
            && group.iter().all(|t| {
                t.is_ident("self") || t.is_ident("mut") || t.is_punct('&') || t.kind == TokKind::Lifetime
            })
        {
            has_self = true;
            continue; // receiver (`self`, `&mut self`, `&'a self`)
        }
        // Binding name: the identifier immediately before the first
        // top-level `:` (not `::`).
        let mut name = None;
        let mut ty = String::new();
        let mut depth = 0i64;
        let mut k = 0;
        while k < group.len() {
            let t = group[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')')
                || t.is_punct(']')
                || (t.is_punct('>') && !(k > 0 && group[k - 1].is_punct('-')))
            {
                depth -= 1;
            } else if depth == 0
                && t.is_punct(':')
                && group.get(k + 1).map_or(true, |n| !n.is_punct(':'))
                && (k == 0 || !group[k - 1].is_punct(':'))
            {
                if k > 0 && group[k - 1].kind == TokKind::Ident {
                    name = Some(group[k - 1].text.clone());
                }
                ty = group[k + 1..].iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ");
                break;
            }
            k += 1;
        }
        params.push(Param { name, ty });
    }
    (params, has_self)
}

/// Comma-separated top-level groups of `sig[start..end]` as half-open
/// index ranges; empty groups are dropped.
pub(crate) fn split_top_level(sig: &[&Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut groups = Vec::new();
    let mut depth = 0i64;
    let mut lo = start;
    let mut k = start;
    while k < end.min(sig.len()) {
        let t = sig[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            if k > lo {
                groups.push((lo, k));
            }
            lo = k + 1;
        }
        k += 1;
    }
    if end.min(sig.len()) > lo {
        groups.push((lo, end.min(sig.len())));
    }
    groups
}

/// Index of the `>` closing the angle group opened at `open_idx`. `->`
/// arrows inside the group (e.g. `::<fn(u64) -> bool>`) do not close it.
fn matching_angle(sig: &[&Token], open_idx: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in sig.iter().enumerate().skip(open_idx) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(k > 0 && sig[k - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        } else if t.is_punct(';') || t.is_punct('{') {
            return None; // ran off the expression: not a turbofish
        }
    }
    None
}

/// The path segment qualifying the call at `callee_idx`, when the two
/// tokens before it are `::`. `Foo::bar` → `Foo`; `<T as Trait>::f` and
/// `<T>::f` → `T`; `Foo<A>::f` → `Foo`.
fn call_qualifier(sig: &[&Token], callee_idx: usize) -> Option<String> {
    if callee_idx < 3 || !sig[callee_idx - 1].is_punct(':') || !sig[callee_idx - 2].is_punct(':') {
        return None;
    }
    let q = sig[callee_idx - 3];
    if q.kind == TokKind::Ident {
        return Some(q.text.clone());
    }
    if q.is_punct('>') {
        // Scan back to the matching `<`, then name the qualified type:
        // the ident before the `<` when the angles are generic arguments
        // (`Foo<A>::f`), else the first ident inside (`<T as Trait>::f`).
        let mut depth = 0i64;
        let mut m = callee_idx - 3;
        loop {
            if sig[m].is_punct('>') && !(m > 0 && sig[m - 1].is_punct('-')) {
                depth += 1;
            } else if sig[m].is_punct('<') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if m == 0 {
                return None;
            }
            m -= 1;
        }
        if m > 0 && sig[m - 1].kind == TokKind::Ident {
            return Some(sig[m - 1].text.clone());
        }
        // `Type::<args>::method`: the `<` is preceded by `::` preceded by
        // the owning type.
        if m >= 3
            && sig[m - 1].is_punct(':')
            && sig[m - 2].is_punct(':')
            && sig[m - 3].kind == TokKind::Ident
        {
            return Some(sig[m - 3].text.clone());
        }
        return sig[m + 1..callee_idx - 3]
            .iter()
            .find(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
    }
    None
}

/// Harvests every call site in the stream. Macro invocations
/// (`name!(…)`), definitions (`fn name(…)`), and keyword-parenthesis
/// pairs are excluded. Turbofish call sites (`f::<T>(…)`, method or
/// free) are recognized: the generic-argument list is skipped and the
/// arguments are read from the parenthesis that follows it.
pub fn call_sites(sig: &[&Token]) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in 0..sig.len() {
        let t = sig[i];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // The argument list opens either directly after the callee or
        // after a turbofish `::<…>`.
        let open = if sig.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            i + 1
        } else if sig.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && sig.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && sig.get(i + 3).is_some_and(|n| n.is_punct('<'))
        {
            match matching_angle(sig, i + 3) {
                Some(close_angle) if sig.get(close_angle + 1).is_some_and(|n| n.is_punct('(')) => {
                    close_angle + 1
                }
                _ => continue,
            }
        } else {
            continue;
        };
        let prev = i.checked_sub(1).map(|p| sig[p]);
        if prev.is_some_and(|p| p.is_punct('!') || p.is_ident("fn")) {
            continue; // macro or definition
        }
        let Some(close) = matching_close(sig, open, '(', ')') else { continue };
        let args = split_top_level(sig, open + 1, close)
            .into_iter()
            .map(|(lo, hi)| Arg { sole_ident: sole_ident_of(&sig[lo..hi]) })
            .collect();
        let is_method = prev.is_some_and(|p| p.is_punct('.'));
        let receiver_self = is_method
            && i >= 2
            && sig[i - 2].is_ident("self")
            && (i < 3 || !sig[i - 3].is_punct('.'));
        out.push(CallSite {
            callee: t.text.clone(),
            is_method,
            receiver_self,
            qualifier: if is_method { None } else { call_qualifier(sig, i) },
            args,
            at: i,
            line: t.line,
            col: t.col,
        });
    }
    out
}

/// The argument's sole identifier: last segment when every token is part
/// of one identifier path (`x`, `self.t_ns`, `&mut cfg.period_us`,
/// `a::B`). Composite expressions return `None`.
fn sole_ident_of(group: &[&Token]) -> Option<String> {
    if group.is_empty() {
        return None;
    }
    let mut last = None;
    for t in group {
        match t.kind {
            TokKind::Ident => last = Some(t.text.clone()),
            TokKind::Punct if t.is_punct('.') || t.is_punct(':') || t.is_punct('&') => {}
            _ => return None,
        }
    }
    last.filter(|_| group.last().is_some_and(|t| t.kind == TokKind::Ident))
}

/// Additive/comparison operators between two identifier operands.
/// Multiplicative operators (`*`, `/`) never appear — and an operand
/// that is itself scaled by one (`a_us * 1000 + b_ns`) is dropped,
/// because the scaling is the unit conversion the caller looks for.
pub fn bin_ops(sig: &[&Token]) -> Vec<BinOp> {
    let mut out = Vec::new();
    for i in 1..sig.len() {
        let t = sig[i];
        if t.kind != TokKind::Punct {
            continue;
        }
        let op = match t.text.chars().next() {
            Some(c @ ('+' | '-' | '<' | '>' | '%')) => c,
            _ => continue,
        };
        let next = sig.get(i + 1);
        // `->`, `<<`, `>>`, `<-`-style digraphs are not binary ops here.
        if op == '-' && next.is_some_and(|n| n.is_punct('>')) {
            continue;
        }
        if (op == '<' || op == '>')
            && (next.is_some_and(|n| n.is_punct(op)) || sig[i - 1].is_punct(op))
        {
            continue;
        }
        if sig[i - 1].is_punct('-') {
            continue; // second half of `->`
        }
        // Left operand: identifier directly before the operator, not a
        // call result, not scaled by `*`/`/`.
        let lhs_tok = sig[i - 1];
        if lhs_tok.kind != TokKind::Ident {
            continue;
        }
        if i >= 2 && (sig[i - 2].is_punct('*') || sig[i - 2].is_punct('/')) {
            continue;
        }
        // Right operand: skip the `=` of `+=`/`<=`/…, then take an
        // identifier path run.
        let mut j = i + 1;
        if sig.get(j).is_some_and(|n| n.is_punct('=')) {
            j += 1;
        }
        let run_start = j;
        let mut last_ident: Option<&Token> = None;
        while let Some(n) = sig.get(j) {
            if n.kind == TokKind::Ident {
                last_ident = Some(n);
            } else if !n.is_punct('.') {
                break;
            }
            j += 1;
        }
        let Some(rhs_tok) = last_ident else { continue };
        if j == run_start {
            continue;
        }
        // A call, an index, or a scaling after the run makes the right
        // side composite: `b_us.max(x)`, `b_us * 1000`.
        if sig.get(j).is_some_and(|n| {
            n.is_punct('(') || n.is_punct('[') || n.is_punct('*') || n.is_punct('/')
        }) {
            continue;
        }
        // `Vec<PageData>`: a `<` whose identifier run closes with `>` is a
        // generic argument list, not a comparison.
        if op == '<' && sig.get(j).is_some_and(|n| n.is_punct('>')) {
            continue;
        }
        out.push(BinOp {
            op,
            lhs: lhs_tok.text.clone(),
            rhs: rhs_tok.text.clone(),
            at: i,
            line: t.line,
            col: t.col,
        });
    }
    out
}

/// String literals in tuple-key position (`(` Str `,`) inside non-test
/// fns named `fn_name`. `owner` counts same-named fns in file order.
pub fn sink_strings(sig: &[&Token], tree: &ItemTree, mask: &[bool], fn_name: &str) -> Vec<SinkStr> {
    let mut out = Vec::new();
    let mut owner = 0usize;
    tree.for_each(&mut |item| {
        if item.kind != ItemKind::Fn || item.name.as_deref() != Some(fn_name) {
            return;
        }
        let Some((body_start, body_end)) = item.body else { return };
        if item.test_only || mask.get(body_start).copied().unwrap_or(false) {
            return;
        }
        for k in body_start..body_end.min(sig.len()) {
            let t = sig[k];
            if t.kind == TokKind::Str
                && k > 0
                && sig[k - 1].is_punct('(')
                && sig.get(k + 1).is_some_and(|n| n.is_punct(','))
            {
                out.push(SinkStr { value: t.text.clone(), owner, line: t.line, col: t.col });
            }
        }
        owner += 1;
    });
    out
}

/// Field names (with their source lines) of the struct named
/// `struct_name`, in declaration order.
pub fn struct_fields(sig: &[&Token], tree: &ItemTree, struct_name: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    tree.for_each(&mut |item| {
        if item.kind != ItemKind::Other || item.name.as_deref() != Some(struct_name) {
            return;
        }
        // Only struct items (the keyword right before the name).
        let kw = (item.span.0..item.span.1.min(sig.len()))
            .find(|&k| sig[k].is_ident("struct"));
        if kw.is_none() {
            return;
        }
        let Some((body_start, body_end)) = item.body else { return };
        let mut depth = 0i64;
        for k in body_start..body_end.min(sig.len()) {
            let t = sig[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')')
                || t.is_punct(']')
                || t.is_punct('}')
                || (t.is_punct('>') && !(k > 0 && sig[k - 1].is_punct('-')))
            {
                depth -= 1;
            } else if depth == 0
                && t.is_punct(':')
                && sig.get(k + 1).map_or(true, |n| !n.is_punct(':'))
                // An identifier before it: not the second half of a `::`.
                && k > 0
                && sig[k - 1].kind == TokKind::Ident
            {
                out.push((sig[k - 1].text.clone(), sig[k - 1].line));
            }
        }
    });
    out
}

/// Identifier texts inside the span of every (non-test) `impl … Trait
/// for …` block naming `trait_name`.
pub fn idents_in_trait_impl(sig: &[&Token], tree: &ItemTree, trait_name: &str) -> Vec<String> {
    let mut out = Vec::new();
    tree.for_each(&mut |item| {
        if item.kind != ItemKind::Impl || item.test_only {
            return;
        }
        let header_end = item.body.map_or(item.span.1, |(s, _)| s).min(sig.len());
        let header = &sig[item.span.0..header_end];
        if !(header.iter().any(|t| t.is_ident(trait_name)) && header.iter().any(|t| t.is_ident("for")))
        {
            return;
        }
        for t in sig.iter().take(item.span.1).skip(item.span.0) {
            if t.kind == TokKind::Ident {
                out.push(t.text.clone());
            }
        }
    });
    out
}

/// Str-literal contents inside the body of every non-test fn named
/// `fn_name` (any position, not just tuple keys).
pub fn strings_in_fn(sig: &[&Token], tree: &ItemTree, fn_name: &str) -> Vec<String> {
    let mut out = Vec::new();
    tree.for_each(&mut |item| {
        if item.kind != ItemKind::Fn || item.name.as_deref() != Some(fn_name) || item.test_only {
            return;
        }
        let Some((body_start, body_end)) = item.body else { return };
        for t in sig.iter().take(body_end).skip(body_start) {
            if t.kind == TokKind::Str {
                out.push(t.text.clone());
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn prep(src: &str) -> (Vec<Token>, ItemTree) {
        let toks = lex(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let tree = ItemTree::parse(&sig);
        (toks, tree)
    }

    fn sigs_of(src: &str) -> Vec<FnSig> {
        let (toks, tree) = prep(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let mask = tree.test_token_mask(sig.len());
        fn_sigs(&sig, &tree, &mask)
    }

    #[test]
    fn fn_signature_extraction() {
        let fns = sigs_of("fn record(&mut self, t_ns: u64, warm_us: Option<u64>) -> Result<(), E> {}");
        assert_eq!(fns.len(), 1);
        let f = &fns[0];
        assert_eq!(f.name, "record");
        assert_eq!(
            f.params.iter().map(|p| p.name.as_deref()).collect::<Vec<_>>(),
            vec![Some("t_ns"), Some("warm_us")]
        );
        assert!(f.params[1].ty.contains("Option"));
    }

    #[test]
    fn generic_bounds_do_not_derail_the_param_list() {
        let fns = sigs_of("fn plan<F: Fn(u64) -> bool>(cold: F, period_us: u64) {}");
        assert_eq!(fns[0].params.len(), 2);
        assert_eq!(fns[0].params[1].name.as_deref(), Some("period_us"));
    }

    #[test]
    fn array_defaults_and_patterns() {
        let fns = sigs_of("fn f(buf: [u8; 4], (a, b): (u32, u32)) {}");
        assert_eq!(fns[0].params.len(), 2);
        assert_eq!(fns[0].params[0].name.as_deref(), Some("buf"));
        assert_eq!(fns[0].params[1].name, None, "destructuring has no sole binding");
    }

    #[test]
    fn test_fns_are_marked() {
        let fns = sigs_of("#[cfg(test)]\nmod t { fn helper(x_ns: u64) {} }\nfn lib(y_us: u64) {}");
        let h = fns.iter().find(|f| f.name == "helper").expect("nested fn harvested");
        assert!(h.test_only);
        assert!(!fns.iter().find(|f| f.name == "lib").expect("lib").test_only);
    }

    #[test]
    fn call_site_extraction() {
        let (toks, _) = prep("fn f() { record(t_ns); self.push(a.b_us, x + 1); assert!(g(h)); }");
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let calls = call_sites(&sig);
        let names: Vec<&str> = calls.iter().map(|c| c.callee.as_str()).collect();
        // `assert!` is a macro (excluded); `g(h)` inside it is a call.
        assert_eq!(names, vec!["record", "push", "g"]);
        assert_eq!(calls[0].args[0].sole_ident.as_deref(), Some("t_ns"));
        assert!(calls[1].is_method);
        assert_eq!(calls[1].args[0].sole_ident.as_deref(), Some("b_us"));
        assert_eq!(calls[1].args[1].sole_ident, None, "composite args are opaque");
    }

    #[test]
    fn turbofish_call_sites() {
        let src = "fn f() { parse::<u64>(s); let v = iter.collect::<Vec<_>>(); g::<fn(u64) -> bool>(p); }";
        let (toks, _) = prep(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let calls = call_sites(&sig);
        let names: Vec<&str> = calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(names, vec!["parse", "collect", "g"]);
        assert_eq!(calls[0].args[0].sole_ident.as_deref(), Some("s"));
        assert!(calls[1].is_method);
        assert!(calls[1].args.is_empty());
        assert_eq!(calls[2].args[0].sole_ident.as_deref(), Some("p"), "fn-ptr arrow inside turbofish");
    }

    #[test]
    fn qualified_call_sites() {
        let src = "fn f() { Foo::bar(x); <T as Trait>::go(a); Self::helper(); self.submit(io); q.r.send(m); }";
        let (toks, _) = prep(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let calls = call_sites(&sig);
        assert_eq!(calls.len(), 5, "{calls:?}");
        assert_eq!(calls[0].qualifier.as_deref(), Some("Foo"));
        assert_eq!((calls[1].callee.as_str(), calls[1].qualifier.as_deref()), ("go", Some("T")));
        assert_eq!(calls[2].qualifier.as_deref(), Some("Self"));
        assert!(calls[3].receiver_self, "bare self receiver");
        assert!(calls[3].qualifier.is_none());
        assert!(calls[4].is_method && !calls[4].receiver_self, "chained receiver is not self");
    }

    #[test]
    fn generic_owner_qualifier() {
        let src = "fn f() { Vec::<u8>::with_capacity(n); Wrapper<T>::make(y); }";
        let (toks, _) = prep(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let calls = call_sites(&sig);
        let qv: Vec<(&str, Option<&str>)> =
            calls.iter().map(|c| (c.callee.as_str(), c.qualifier.as_deref())).collect();
        assert_eq!(qv, vec![("with_capacity", Some("Vec")), ("make", Some("Wrapper"))]);
    }

    #[test]
    fn bin_op_extraction_and_scaling_exemption() {
        let (toks, _) = prep("fn f() { let x = a_ns + b_us; let y = a_ns + b_us * 1000; }");
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let ops = bin_ops(&sig);
        // Only the unscaled mix survives.
        let pairs: Vec<(&str, &str)> =
            ops.iter().map(|b| (b.lhs.as_str(), b.rhs.as_str())).collect();
        assert_eq!(pairs, vec![("a_ns", "b_us")]);
    }

    #[test]
    fn bin_op_skips_arrows_generics_and_calls() {
        let src = "fn f(v: Vec<PageData>) -> u64 { g(a_ns - b.c_ms); h_us.max(x); a < b }";
        let (toks, _) = prep(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let ops = bin_ops(&sig);
        assert_eq!(ops.len(), 2, "{ops:?}");
        assert_eq!((ops[0].lhs.as_str(), ops[0].rhs.as_str()), ("a_ns", "c_ms"));
        assert_eq!((ops[1].lhs.as_str(), ops[1].rhs.as_str()), ("a", "b"));
    }

    #[test]
    fn sink_string_harvest_per_owner() {
        let src = r#"
            fn export_metrics(&self) -> Vec<(&'static str, f64)> {
                vec![("elapsed_ns", 1.0), ("ops", 2.0)]
            }
            fn export_metrics(&self) -> Vec<(&'static str, f64)> {
                vec![("ops", 3.0)]
            }
            fn other() { let _ = ("not_a_key", 1.0); }
            #[cfg(test)]
            fn export_metrics() { let _ = ("test_key", 0.0); }
        "#;
        let (toks, tree) = prep(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let mask = tree.test_token_mask(sig.len());
        let keys = sink_strings(&sig, &tree, &mask, "export_metrics");
        let kv: Vec<(&str, usize)> = keys.iter().map(|k| (k.value.as_str(), k.owner)).collect();
        assert_eq!(kv, vec![("elapsed_ns", 0), ("ops", 0), ("ops", 1)]);
    }

    #[test]
    fn struct_field_extraction() {
        let src = "pub struct JobSpec { pub scenario: Scenario, pub pin: Option<usize>, pub ratio: f64 }\nstruct Other { x: u32 }";
        let (toks, tree) = prep(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let fields: Vec<String> =
            struct_fields(&sig, &tree, "JobSpec").into_iter().map(|(n, _)| n).collect();
        assert_eq!(fields, vec!["scenario", "pin", "ratio"]);
    }

    #[test]
    fn trait_impl_ident_harvest() {
        let src = "impl PartialEq for JobSpec { fn eq(&self, o: &JobSpec) -> bool { self.pin == o.pin } }";
        let (toks, tree) = prep(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let ids = idents_in_trait_impl(&sig, &tree, "PartialEq");
        assert!(ids.iter().any(|i| i == "pin"));
        assert!(idents_in_trait_impl(&sig, &tree, "Display").is_empty());
    }
}
