//! Item-level parsing on top of the token scanner.
//!
//! The effect-inference pass ([`crate::graph`]) needs more structure than
//! the token-pattern lints: which functions exist, what their qualified
//! names are (`module::Type::name`), where their bodies start and end,
//! and what `use` declarations are in scope for best-effort call
//! resolution. This module recovers exactly that — and nothing more —
//! from the [`crate::lexer`] token stream: no expressions, no types, no
//! precedence. Function bodies stay opaque token slices that the effect
//! seeder and call extractor scan linearly.
//!
//! The parser never fails: unparseable constructs degrade to missing
//! items, which the analysis treats as unresolved (and therefore
//! effect-free) calls. That is the deliberate trade-off of an offline,
//! dependency-free linter; DESIGN.md §11 spells out the resulting
//! over/under-approximation contract.

use crate::lexer::{tokenize, Token, TokenKind};
use crate::lints::test_exempt_lines;
use std::collections::BTreeSet;

/// One parsed function (or method) item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (`run_from_state`).
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`ResilienceRunner`).
    pub owner: Option<String>,
    /// In-file module nesting (`["telemetry"]` for `mod telemetry { .. }`).
    pub modules: Vec<String>,
    /// Code-token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Code-token index range of the body `{ .. }`, inclusive of both
    /// braces; `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the first parameter is some form of `self`.
    pub has_self: bool,
    /// Whether the item sits inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
}

impl FnItem {
    /// `Type::name` or bare `name` — the in-crate suffix of the id.
    pub fn qualified(&self) -> String {
        let mut q = String::new();
        for m in &self.modules {
            q.push_str(m);
            q.push_str("::");
        }
        if let Some(owner) = &self.owner {
            q.push_str(owner);
            q.push_str("::");
        }
        q.push_str(&self.name);
        q
    }
}

/// One `use` alias: `use a::b::c as d` binds `d` to `["a","b","c"]`.
/// Glob imports (`use a::b::*`) bind the empty alias to the prefix.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// Local name the import binds (empty for globs).
    pub alias: String,
    /// Full path segments as written (minus `as` clauses).
    pub path: Vec<String>,
}

/// A fully scanned source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Code tokens (comments stripped) — all `FnItem` indices point here.
    pub code: Vec<Token>,
    /// Comment tokens (for `xtask:effect` allow collection).
    pub comments: Vec<Token>,
    /// All function items, in source order.
    pub fns: Vec<FnItem>,
    /// All `use` aliases (file-wide; function-local uses are folded in,
    /// a harmless over-approximation).
    pub uses: Vec<UseDecl>,
    /// Lines belonging to `#[cfg(test)]` / `#[test]` code.
    pub test_lines: BTreeSet<u32>,
}

/// Scope frames the parser tracks while walking the brace structure.
#[derive(Debug)]
enum Frame {
    /// `mod name { .. }`
    Mod(String),
    /// `impl Type { .. }`, `impl Trait for Type { .. }`, `trait Name { .. }`
    Type(String),
    /// Any other `{ .. }` (fn bodies, expression blocks, match arms).
    Block,
}

/// Parses one file. Never fails; see the module docs for the contract.
pub fn parse_file(src: &str) -> ParsedFile {
    let tokens = tokenize(src);
    let (code, comments): (Vec<Token>, Vec<Token>) = tokens
        .into_iter()
        .partition(|t| t.kind != TokenKind::Comment);
    let refs: Vec<&Token> = code.iter().collect();
    let test_lines: BTreeSet<u32> = test_exempt_lines(&refs).into_iter().collect();

    let mut fns = Vec::new();
    let mut uses = Vec::new();
    // Stack of (depth-after-open, frame); a frame opened by the `{` that
    // took depth from d to d+1 pops when depth returns to d.
    let mut frames: Vec<(i32, Frame)> = Vec::new();
    let mut depth: i32 = 0;
    // Brace indices that open a named scope, pre-computed when the
    // introducing keyword is seen.
    let mut named_braces: Vec<(usize, Frame)> = Vec::new();

    let mut i = 0usize;
    while i < refs.len() {
        let t = refs[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "mod") => {
                if let Some(name) = refs.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    if refs.get(i + 2).is_some_and(|b| b.text == "{") {
                        named_braces.push((i + 2, Frame::Mod(name.text.clone())));
                    }
                }
            }
            (TokenKind::Ident, "impl") => {
                if let Some((brace, ty)) = impl_target(&refs, i) {
                    named_braces.push((brace, Frame::Type(ty)));
                }
            }
            (TokenKind::Ident, "trait") => {
                if let Some(name) = refs.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    if let Some(brace) = find_scope_open(&refs, i + 2) {
                        named_braces.push((brace, Frame::Type(name.text.clone())));
                    }
                }
            }
            (TokenKind::Ident, "use") => {
                let end = parse_use(&refs, i + 1, &mut uses);
                i = end;
                continue;
            }
            (TokenKind::Ident, "fn") => {
                if let Some(item) = parse_fn(&refs, i, &frames, &test_lines) {
                    fns.push(item);
                }
                // Do not skip the body: nested fns/mods inside it must
                // still be discovered, and plain depth tracking keeps the
                // frame stack consistent through it.
            }
            (TokenKind::Punct, "{") => {
                depth += 1;
                let frame = match named_braces.iter().position(|(at, _)| *at == i) {
                    Some(pos) => named_braces.remove(pos).1,
                    None => Frame::Block,
                };
                frames.push((depth, frame));
            }
            (TokenKind::Punct, "}") => {
                while frames.last().is_some_and(|(d, _)| *d >= depth) {
                    frames.pop();
                }
                depth -= 1;
            }
            _ => {}
        }
        i += 1;
    }

    ParsedFile {
        code,
        comments,
        fns,
        uses,
        test_lines,
    }
}

/// For `impl<G> Trait<X> for Type<G> where ..` at `impl_idx`, returns the
/// opening-brace index and the implemented-on type's last path segment.
fn impl_target(code: &[&Token], impl_idx: usize) -> Option<(usize, String)> {
    let brace = find_scope_open(code, impl_idx + 1)?;
    let span = &code[impl_idx + 1..brace];
    // The target path: everything after a top-level `for`, else the whole
    // span. Its name is the last ident at angle-depth 0 before generics.
    let mut angle = 0i32;
    let mut after_for = None;
    for (k, t) in span.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") if !is_arrow(span, k) => angle -= 1,
            (TokenKind::Ident, "for") if angle == 0 => after_for = Some(k + 1),
            (TokenKind::Ident, "where") if angle == 0 => break,
            _ => {}
        }
    }
    let target = &span[after_for.unwrap_or(0)..];
    let mut angle = 0i32;
    let mut name = None;
    for (k, t) in target.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") if !is_arrow(target, k) => angle -= 1,
            (TokenKind::Ident, "where") if angle == 0 => break,
            (TokenKind::Ident, _) if angle == 0 => name = Some(t.text.clone()),
            _ => {}
        }
    }
    name.map(|n| (brace, n))
}

/// `>` tokens that are really the tail of a `->` arrow.
fn is_arrow(span: &[&Token], k: usize) -> bool {
    k > 0 && span[k - 1].text == "-" && span[k].offset == span[k - 1].offset + 1
}

/// Finds the `{` that opens a scope introduced at `from`, skipping
/// generics, parens and `->` arrows; `None` if a `;` ends it first.
fn find_scope_open(code: &[&Token], from: usize) -> Option<usize> {
    let mut angle = 0i32;
    let mut paren = 0i32;
    for k in from..code.len() {
        let t = code[k];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "<" => angle += 1,
            ">" if !is_arrow(code, k) && angle > 0 => angle -= 1,
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" if angle == 0 && paren == 0 => return Some(k),
            ";" if angle == 0 && paren == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Parses the `fn` item starting at `fn_idx` (the `fn` keyword).
fn parse_fn(
    code: &[&Token],
    fn_idx: usize,
    frames: &[(i32, Frame)],
    test_lines: &BTreeSet<u32>,
) -> Option<FnItem> {
    let name_tok = code.get(fn_idx + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None; // `fn` inside e.g. a closure type `Fn(..)` is Ident "Fn", not "fn"
    }
    let name = name_tok.text.clone();
    let body = find_scope_open(code, fn_idx + 2).map(|open| {
        let close = matching_brace(code, open);
        (open, close)
    });
    // `self` receiver: first token run inside the first paren group.
    let has_self = {
        let mut k = fn_idx + 2;
        let mut angle = 0i32;
        // Skip generics between the name and the parameter list.
        loop {
            match code.get(k) {
                Some(t) if t.text == "<" => angle += 1,
                Some(t) if t.text == ">" && !is_arrow(code, k) => angle -= 1,
                Some(t) if t.text == "(" && angle == 0 => break,
                Some(t) if (t.text == "{" || t.text == ";") && angle == 0 => break,
                Some(_) => {}
                None => break,
            }
            k += 1;
        }
        // Inside `( .. )`: any `self` ident before the first `,` at depth 1.
        let mut found = false;
        if code.get(k).is_some_and(|t| t.text == "(") {
            let mut d = 0i32;
            for t in code.iter().skip(k) {
                match (t.kind, t.text.as_str()) {
                    (TokenKind::Punct, "(") => d += 1,
                    (TokenKind::Punct, ")") => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    (TokenKind::Punct, ",") if d == 1 => break,
                    (TokenKind::Ident, "self") => {
                        found = true;
                        break;
                    }
                    _ => {}
                }
            }
        }
        found
    };
    let modules: Vec<String> = frames
        .iter()
        .filter_map(|(_, f)| match f {
            Frame::Mod(m) => Some(m.clone()),
            _ => None,
        })
        .collect();
    let owner = frames.iter().rev().find_map(|(_, f)| match f {
        Frame::Type(t) => Some(t.clone()),
        _ => None,
    });
    Some(FnItem {
        name,
        owner,
        modules,
        fn_idx,
        body,
        line: name_tok.line,
        has_self,
        is_test: test_lines.contains(&name_tok.line),
    })
}

/// Index of the `}` matching the `{` at `open` (last token if unclosed).
pub fn matching_brace(code: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            if t.text == "{" {
                depth += 1;
            } else if t.text == "}" {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Parses one `use` declaration starting just after the `use` keyword;
/// returns the index just past its terminating `;`.
fn parse_use(code: &[&Token], from: usize, out: &mut Vec<UseDecl>) -> usize {
    // Collect the token span up to the `;` (tracking brace groups).
    let mut end = from;
    let mut depth = 0i32;
    while end < code.len() {
        match code[end].text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            ";" if depth <= 0 => break,
            _ => {}
        }
        end += 1;
    }
    expand_use(&code[from..end], &[], out);
    end + 1
}

/// Recursively expands `a::b::{c as d, e::f, *}` into flat aliases.
fn expand_use(span: &[&Token], prefix: &[String], out: &mut Vec<UseDecl>) {
    let mut path: Vec<String> = prefix.to_vec();
    let mut k = 0usize;
    while k < span.len() {
        let t = span[k];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "as") => {
                // `path as alias` — the alias is the binding name.
                if let Some(alias) = span.get(k + 1) {
                    out.push(UseDecl {
                        alias: alias.text.clone(),
                        path: path.clone(),
                    });
                }
                return;
            }
            (TokenKind::Ident, _) => path.push(t.text.clone()),
            (TokenKind::Punct, "*") => {
                out.push(UseDecl {
                    alias: String::new(),
                    path: path.clone(),
                });
                return;
            }
            (TokenKind::Punct, "{") => {
                // Split the group body at top-level commas and recurse.
                let close = matching_group(span, k);
                let inner = &span[k + 1..close];
                let mut start = 0usize;
                let mut depth = 0i32;
                for (j, u) in inner.iter().enumerate() {
                    match u.text.as_str() {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        "," if depth == 0 => {
                            expand_use(&inner[start..j], &path, out);
                            start = j + 1;
                        }
                        _ => {}
                    }
                }
                if start < inner.len() {
                    expand_use(&inner[start..], &path, out);
                }
                return;
            }
            _ => {}
        }
        k += 1;
    }
    if let Some(last) = path.last().cloned() {
        out.push(UseDecl { alias: last, path });
    }
}

fn matching_group(span: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in span.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    span.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(src)
    }

    #[test]
    fn free_and_method_fns_are_qualified() {
        let p = parse(
            "pub fn top() {}\n\
             mod inner { pub fn nested() {} }\n\
             impl Widget { fn method(&self) {} fn assoc() -> u32 { 1 } }\n\
             impl Display for Widget { fn fmt(&self, f: &mut F) -> R { todo() } }\n\
             trait Act { fn go(&self) { self.go() } fn sig(&self); }",
        );
        let quals: Vec<String> = p.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(
            quals,
            vec![
                "top",
                "inner::nested",
                "Widget::method",
                "Widget::assoc",
                "Widget::fmt",
                "Act::go",
                "Act::sig"
            ]
        );
        assert!(p.fns[2].has_self && !p.fns[3].has_self);
        assert!(p.fns[6].body.is_none(), "bodyless trait method");
    }

    #[test]
    fn generic_signatures_find_their_bodies() {
        let p = parse(
            "fn fan<T: Sync, F>(items: &[T], job: F) -> Result<Vec<u32>>\n\
             where F: Fn(usize, &T) -> Result<u32> + Sync { job(0, &items[0]) }",
        );
        assert_eq!(p.fns.len(), 1);
        let (open, close) = p.fns[0].body.expect("body found");
        assert_eq!(p.code[open].text, "{");
        assert_eq!(p.code[close].text, "}");
        assert!(close > open + 5);
    }

    #[test]
    fn nested_fns_and_test_mods_are_seen() {
        let p = parse(
            "fn outer() { fn helper() {} helper() }\n\
             #[cfg(test)] mod tests { #[test] fn probe() {} }",
        );
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "helper", "probe"]);
        assert!(p.fns[2].is_test && !p.fns[0].is_test);
        assert_eq!(p.fns[2].modules, vec!["tests".to_string()]);
    }

    #[test]
    fn use_declarations_expand() {
        let p = parse(
            "use std::collections::{BTreeMap, HashMap as Map};\n\
             use crate::exec::parallel_map;\n\
             use super::helpers::*;",
        );
        let find = |alias: &str| p.uses.iter().find(|u| u.alias == alias);
        assert_eq!(
            find("BTreeMap").expect("group import").path,
            vec!["std", "collections", "BTreeMap"]
        );
        assert_eq!(
            find("Map").expect("renamed import").path,
            vec!["std", "collections", "HashMap"]
        );
        assert_eq!(
            find("parallel_map").expect("plain import").path,
            vec!["crate", "exec", "parallel_map"]
        );
        let glob = p.uses.iter().find(|u| u.alias.is_empty()).expect("glob");
        assert_eq!(glob.path, vec!["super", "helpers"]);
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let p = parse(
            "impl<T> From<Wrapper<T>> for Inner<T> { fn from(w: Wrapper<T>) -> Self { w.0 } }",
        );
        assert_eq!(p.fns[0].qualified(), "Inner::from");
    }
}
