//! A brace-matched item tree over the lexed token stream.
//!
//! The rules need structural context the flat token stream cannot give
//! them:
//!
//! * **Function-precise test scoping** — `#[cfg(test)]` items and
//!   `#[test]` functions are exempt from every rule (and are no call-graph
//!   nodes), and the exemption must cover exactly their brace-matched
//!   bodies. A linear
//!   "skip to the next `;` or `{`" heuristic terminates early on items
//!   like `fn f(x: [u8; 4])` (the `;` inside the array type) and cannot
//!   see a `#[test]` function that sits outside a `#[cfg(test)]` module.
//! * **`audit-coverage`** — deciding whether a crate registers hwdp-audit
//!   checkers means finding `impl … Sanitizer for …` *items*, not loose
//!   `Sanitizer` identifiers in doc text or bounds.
//!
//! The expression layer ([`crate::expr`]) builds on the same idea one
//! level down: within each `Fn` item found here it brace/paren-matches
//! call arguments and operands, feeding the workspace API model
//! ([`crate::model`]) behind the semantic rule families.
//!
//! The parser is forgiving in the same spirit as the lexer: any token
//! sequence produces *a* tree; unterminated bodies extend to end-of-file.
//! Indices throughout refer to positions in the **significant** token
//! slice (comments already filtered out), matching what the rule scanner
//! iterates.

use crate::lexer::Token;

/// What kind of item a node is. Only the kinds the rules care about are
/// distinguished; everything else is `Other`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn name(…) { … }`
    Fn,
    /// `mod name { … }` or `mod name;`
    Mod,
    /// `impl … { … }` (inherent or trait).
    Impl,
    /// Any other keyword-introduced item (`struct`, `enum`, `trait`, …).
    Other,
}

/// One parsed item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Classification.
    pub kind: ItemKind,
    /// The identifier following the keyword, when there is one (`fn f` →
    /// `f`; `impl` blocks have none).
    pub name: Option<String>,
    /// `true` when the item is gated test-only: a `#[cfg(test)]`-family
    /// attribute or a bare `#[test]` marker.
    pub test_only: bool,
    /// Half-open significant-token index range covering the whole item,
    /// attributes included.
    pub span: (usize, usize),
    /// Half-open token range of the braced body's *contents* (`None` for
    /// `;`-terminated items).
    pub body: Option<(usize, usize)>,
    /// Items nested inside the body.
    pub children: Vec<Item>,
}

/// The item forest of one source file.
#[derive(Clone, Debug, Default)]
pub struct ItemTree {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl ItemTree {
    /// Parses the significant (comment-free) token slice of a file.
    pub fn parse(sig: &[&Token]) -> ItemTree {
        let mut items = Vec::new();
        parse_items(sig, 0, sig.len(), &mut items);
        ItemTree { items }
    }

    /// A per-token mask: `mask[i]` is `true` when significant token `i`
    /// lies inside a test-only item (its attributes included).
    pub fn test_token_mask(&self, len: usize) -> Vec<bool> {
        let mut mask = vec![false; len];
        fn walk(items: &[Item], mask: &mut [bool]) {
            for item in items {
                if item.test_only {
                    let end = item.span.1.min(mask.len());
                    for m in mask.iter_mut().take(end).skip(item.span.0) {
                        *m = true;
                    }
                } else {
                    walk(&item.children, mask);
                }
            }
        }
        walk(&self.items, &mut mask);
        mask
    }

    /// Visits every item in the forest, depth-first.
    pub fn for_each(&self, f: &mut impl FnMut(&Item)) {
        fn walk(items: &[Item], f: &mut impl FnMut(&Item)) {
            for item in items {
                f(item);
                walk(&item.children, f);
            }
        }
        walk(&self.items, f);
    }

    /// `true` when the file contains a (non-test) trait implementation of
    /// `trait_name` — an `impl` item whose header (the tokens between
    /// `impl` and the body) names the trait followed by `for`.
    pub fn has_trait_impl(&self, sig: &[&Token], trait_name: &str) -> bool {
        let mut found = false;
        self.for_each(&mut |item| {
            if found || item.kind != ItemKind::Impl || item.test_only {
                return;
            }
            let header_end = item.body.map_or(item.span.1, |(start, _)| start);
            let header = &sig[item.span.0..header_end.min(sig.len())];
            let names_trait = header.iter().any(|t| t.is_ident(trait_name));
            let is_trait_impl = header.iter().any(|t| t.is_ident("for"));
            if names_trait && is_trait_impl {
                found = true;
            }
        });
        found
    }
}

/// Index of the delimiter closing the group opened at `open_idx`, or
/// `None` when the group runs off the end of the file.
pub fn matching_close(sig: &[&Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in sig.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Keywords that introduce an item the parser tracks as a node.
fn item_kind(t: &Token) -> Option<ItemKind> {
    if t.is_ident("fn") {
        Some(ItemKind::Fn)
    } else if t.is_ident("mod") {
        Some(ItemKind::Mod)
    } else if t.is_ident("impl") {
        Some(ItemKind::Impl)
    } else if ["struct", "enum", "union", "trait"].iter().any(|k| t.is_ident(k)) {
        Some(ItemKind::Other)
    } else {
        None
    }
}

/// Whether an attribute group (tokens strictly between `#[` and `]`)
/// marks its item test-only: `#[test]`, or a `cfg(…)` that mentions
/// `test` without negating it (`#[cfg(not(test))]` compiles *in*
/// non-test builds and must keep being linted).
fn attr_is_test(group: &[&Token]) -> bool {
    if group.len() == 1 && group[0].is_ident("test") {
        return true;
    }
    let has = |name: &str| group.iter().any(|t| t.is_ident(name));
    group.first().is_some_and(|t| t.is_ident("cfg")) && has("test") && !has("not")
}

/// Parses items in `sig[start..end]` into `out`. Non-item tokens
/// (expressions, statements, `use` declarations) are stepped over;
/// statement-level brace groups that do not belong to a tracked item are
/// skipped wholesale so their contents cannot be misread as items.
fn parse_items(sig: &[&Token], start: usize, end: usize, out: &mut Vec<Item>) {
    let mut i = start;
    // Attribute spans seen since the last item/statement boundary, with a
    // running "any of them is test-gating" flag.
    let mut attr_start: Option<usize> = None;
    let mut attrs_test = false;
    while i < end {
        let t = sig[i];
        if t.is_punct('#') && sig.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            let Some(close) = matching_close(sig, i + 1, '[', ']') else {
                return; // unterminated attribute: nothing more to parse
            };
            let group: Vec<&Token> = sig[i + 2..close.min(end)].to_vec();
            attrs_test |= attr_is_test(&group);
            attr_start.get_or_insert(i);
            i = close + 1;
            continue;
        }
        if let Some(kind) = item_kind(t) {
            let span_start = attr_start.take().unwrap_or(i);
            let item = parse_one(sig, span_start, i, end, kind, attrs_test);
            i = item.span.1;
            attrs_test = false;
            out.push(item);
            continue;
        }
        // Not an item: drop any attributes that turned out to decorate a
        // statement (`#[allow(…)] let x = …;`), skip opaque brace groups.
        attr_start = None;
        attrs_test = false;
        if t.is_punct('{') {
            i = matching_close(sig, i, '{', '}').map_or(end, |c| c + 1);
        } else {
            i += 1;
        }
    }
}

/// Parses the single item whose keyword sits at `kw`; `span_start` points
/// at its first attribute (or the keyword itself).
fn parse_one(
    sig: &[&Token],
    span_start: usize,
    kw: usize,
    end: usize,
    kind: ItemKind,
    test_only: bool,
) -> Item {
    // `impl` blocks have no item name (the following ident is a type or
    // trait path, possibly behind generics).
    let name = if kind == ItemKind::Impl {
        None
    } else {
        sig.get(kw + 1)
            .filter(|t| t.kind == crate::lexer::TokKind::Ident)
            .map(|t| t.text.clone())
    };
    // Find the body `{` or the terminating `;`, tracking paren/bracket
    // depth so a `;` inside `[u8; 4]` or a default argument cannot end
    // the item early.
    let mut j = kw + 1;
    let mut paren = 0i64;
    let mut bracket = 0i64;
    while j < end {
        let t = sig[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is_punct(';') {
                return Item { kind, name, test_only, span: (span_start, j + 1), body: None, children: Vec::new() };
            }
            if t.is_punct('{') {
                let close = matching_close(sig, j, '{', '}').unwrap_or(end.saturating_sub(1));
                let mut children = Vec::new();
                parse_items(sig, j + 1, close.min(end), &mut children);
                return Item {
                    kind,
                    name,
                    test_only,
                    span: (span_start, (close + 1).min(end)),
                    body: Some((j + 1, close.min(end))),
                    children,
                };
            }
        }
        j += 1;
    }
    Item { kind, name, test_only, span: (span_start, end), body: None, children: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokKind};

    fn tree_of(src: &str) -> (Vec<crate::lexer::Token>, ItemTree) {
        let toks = lex(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let tree = ItemTree::parse(&sig);
        (toks, tree)
    }

    fn names(items: &[Item]) -> Vec<&str> {
        items.iter().filter_map(|i| i.name.as_deref()).collect()
    }

    #[test]
    fn top_level_items_and_nesting() {
        let (_, tree) = tree_of(
            "fn a() { fn inner() {} }\nmod m { struct S; fn b() {} }\nimpl T for U { fn c() {} }",
        );
        assert_eq!(tree.items.len(), 3);
        assert_eq!(names(&tree.items), vec!["a", "m"]); // impl has no name
        assert_eq!(names(&tree.items[0].children), vec!["inner"]);
        assert_eq!(names(&tree.items[1].children), vec!["S", "b"]);
        assert_eq!(tree.items[2].kind, ItemKind::Impl);
        assert_eq!(names(&tree.items[2].children), vec!["c"]);
    }

    #[test]
    fn semicolon_inside_array_type_does_not_end_the_item() {
        // The regression that motivated the tree: the old linear skip saw
        // the `;` in `[u8; 4]` as the item terminator.
        let (toks, tree) = tree_of("#[cfg(test)]\nfn f(x: [u8; 4]) { x.len(); }\nfn g() {}");
        assert_eq!(tree.items.len(), 2);
        assert!(tree.items[0].test_only);
        assert!(!tree.items[1].test_only);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let mask = tree.test_token_mask(sig.len());
        // Every token of `f` (attr included) is masked; `g` is not.
        let g_kw = sig.iter().position(|t| t.is_ident("g")).expect("g exists");
        assert!(!mask[g_kw]);
        let len_call = sig.iter().position(|t| t.is_ident("len")).expect("len exists");
        assert!(mask[len_call]);
    }

    #[test]
    fn test_attribute_marks_function_outside_cfg_test_module() {
        let (toks, tree) = tree_of("#[test]\nfn t() { assert!(true); }\nfn lib() {}");
        assert!(tree.items[0].test_only);
        assert!(!tree.items[1].test_only);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let mask = tree.test_token_mask(sig.len());
        let assert_tok = sig.iter().position(|t| t.is_ident("assert")).expect("assert");
        assert!(mask[assert_tok]);
    }

    #[test]
    fn cfg_not_test_is_not_test_only() {
        let (_, tree) = tree_of("#[cfg(not(test))]\nfn f() {}\n#[cfg(all(test, unix))]\nfn g() {}");
        assert!(!tree.items[0].test_only, "cfg(not(test)) code ships in non-test builds");
        assert!(tree.items[1].test_only);
    }

    #[test]
    fn statement_attributes_do_not_leak_onto_the_next_item() {
        let (_, tree) = tree_of("fn f() { }\n#[cfg(test)] use x::y;\nfn g() {}");
        // The attribute belongs to the `use` statement, which is stepped
        // over; `g` must not inherit test-only status.
        let g = tree.items.iter().find(|i| i.name.as_deref() == Some("g")).expect("g parsed");
        assert!(!g.test_only);
    }

    #[test]
    fn trait_impl_detection() {
        let (toks, tree) = tree_of(
            "impl hwdp_sim::Sanitizer for Smu { fn layer(&self) -> &'static str { \"smu\" } }\n\
             impl Smu { fn other(&self) {} }",
        );
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        assert!(tree.has_trait_impl(&sig, "Sanitizer"));
        assert!(!tree.has_trait_impl(&sig, "Display"));
    }

    #[test]
    fn inherent_impl_mentioning_trait_in_body_does_not_count() {
        // `Sanitizer` appearing only inside a body (e.g. a method calling
        // another layer's sanitizer) is not a registration.
        let (toks, tree) =
            tree_of("impl Smu { fn run(&self) { takes::<dyn Sanitizer>(self); } }");
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        assert!(!tree.has_trait_impl(&sig, "Sanitizer"));
    }

    #[test]
    fn cfg_test_trait_impl_does_not_count_as_registration() {
        let (toks, tree) =
            tree_of("#[cfg(test)]\nimpl hwdp_sim::Sanitizer for Fake { }");
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        assert!(!tree.has_trait_impl(&sig, "Sanitizer"));
    }

    #[test]
    fn mod_declaration_without_body() {
        let (_, tree) = tree_of("mod a;\nmod b { fn f() {} }");
        assert_eq!(tree.items.len(), 2);
        assert!(tree.items[0].body.is_none());
        assert!(tree.items[1].body.is_some());
    }

    #[test]
    fn unterminated_body_extends_to_eof() {
        let (_, tree) = tree_of("fn f() { let x = 1;");
        assert_eq!(tree.items.len(), 1);
    }

    #[test]
    fn test_mod_masks_nested_everything() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        let (toks, tree) = tree_of(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let mask = tree.test_token_mask(sig.len());
        let unwrap_tok = sig.iter().position(|t| t.is_ident("unwrap")).expect("unwrap");
        assert!(mask[unwrap_tok]);
        let lib_tok = sig.iter().position(|t| t.is_ident("lib")).expect("lib");
        assert!(!mask[lib_tok]);
    }
}
