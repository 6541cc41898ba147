//! Item extraction: functions, `impl`/`trait` attribution, module
//! paths, and the per-file token model the rules run on.
//!
//! The extractor is a single forward walk over the token stream with a
//! scope stack — an *approximation* of Rust's item grammar, not a
//! parser. It is tuned to be **sound in the over-approximating
//! direction** for this workspace's code: when attribution is
//! ambiguous (a nested item inside a method body, a type it cannot
//! name), the function is still extracted and the call-graph treats its
//! calls conservatively. A function the extractor *misses* would be a
//! soundness hole, so the shapes it must handle (free fns, inherent and
//! trait `impl` methods, trait default methods, nested modules,
//! generics, `where` clauses) are all covered by fixture tests.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;

/// One extracted function (or method) definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The bare function name (`score_window`, `check`).
    pub name: String,
    /// The `impl`/`trait` self type for methods (`FnAssertion`,
    /// `Scenario`), `None` for free functions.
    pub self_type: Option<String>,
    /// Index into the workspace's file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Code-token index range of the body, **inclusive** of both braces.
    /// `None` for body-less trait requirements.
    pub body: Option<(usize, usize)>,
    /// The names its parameters bind as plain `name: T` or `mut name:
    /// T`; a destructuring parameter binds none here.
    pub(crate) params: Vec<String>,
}

/// One analyzed source file: its code tokens (comments split out), its
/// comments (for `// PANIC:` / `// FLOAT:` / `// SAFETY:` justification
/// lookup), and where the trailing `#[cfg(test)]` module starts.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Raw source text.
    pub text: String,
    /// Code tokens (everything but comments).
    pub toks: Vec<Tok>,
    /// Comment tokens, in order.
    pub comments: Vec<Tok>,
    /// Code-token index of the first `#[cfg(test)]` attribute; tokens
    /// from here on are the file's test module (repo convention keeps
    /// it last) and are exempt from every rule.
    pub cut: usize,
    /// True for integration-test sources (`tests/` directories): their
    /// code is scanned by the lexical rules but never enters the
    /// call graph (test helpers may unwrap freely).
    pub is_test: bool,
}

impl FileModel {
    /// Lexes and models one source file.
    pub fn new(path: String, text: String) -> Self {
        let all = lex(&text);
        let mut toks = Vec::with_capacity(all.len());
        let mut comments = Vec::new();
        for t in all {
            if t.kind == TokKind::Comment {
                comments.push(t);
            } else {
                toks.push(t);
            }
        }
        let cut = find_cfg_test(&toks, &text);
        let is_test = path.contains("/tests/") || path.starts_with("tests/");
        FileModel {
            path,
            text,
            toks,
            comments,
            cut,
            is_test,
        }
    }

    /// The text of code token `i`, or `""` out of range.
    pub fn t(&self, i: usize) -> &str {
        self.toks.get(i).map(|t| t.text(&self.text)).unwrap_or("")
    }

    /// The kind of code token `i`, or `Punct` out of range.
    pub fn kind(&self, i: usize) -> TokKind {
        self.toks.get(i).map(|t| t.kind).unwrap_or(TokKind::Punct)
    }

    /// True if a comment containing `marker` starts on a line in
    /// `lo..=hi`.
    pub fn comment_in(&self, lo: u32, hi: u32, marker: &str) -> bool {
        self.comments
            .iter()
            .any(|c| c.line >= lo && c.line <= hi && c.text(&self.text).contains(marker))
    }

    /// True if a comment containing `marker` starts within `lookback`
    /// lines above `line` (inclusive of `line` itself, so trailing
    /// same-line comments count).
    pub fn justified(&self, line: u32, marker: &str, lookback: u32) -> bool {
        self.comment_in(line.saturating_sub(lookback), line, marker)
    }
}

/// Code-token index of the first `#[cfg(test)]` attribute.
fn find_cfg_test(toks: &[Tok], src: &str) -> usize {
    let txt = |i: usize| toks.get(i).map(|t: &Tok| t.text(src)).unwrap_or("");
    for i in 0..toks.len() {
        if txt(i) == "#"
            && txt(i + 1) == "["
            && txt(i + 2) == "cfg"
            && txt(i + 3) == "("
            && txt(i + 4) == "test"
            && txt(i + 5) == ")"
        {
            return i;
        }
    }
    toks.len()
}

/// Rust keywords that can never be call names or expression tails.
/// Used both to reject `if (…)` as a "call to `if`" and to keep `&mut
/// [f64]` from looking like an index expression.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "type", "union", "unsafe", "use", "where",
    "while", "yield",
];

pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

enum Scope {
    /// `impl Type { … }` / `trait Name { … }` — fns inside get this
    /// self type.
    Typed(String),
    /// Any other brace (body, block, match arm, `mod`).
    Block,
}

/// Extracts every function defined in `file` before the test cutoff.
pub fn extract_fns(file: &FileModel, file_idx: usize) -> Vec<FnDef> {
    let toks = &file.toks[..file.cut];
    let mut out = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    // An `impl`/`trait` header that has been parsed but whose `{` has
    // not been reached yet: (token index of the `{`, self type).
    let mut pending_typed: Option<(usize, String)> = None;
    let mut i = 0usize;
    while i < toks.len() {
        match (file.kind(i), file.t(i)) {
            (TokKind::Ident, "impl") | (TokKind::Ident, "trait") => {
                // The scope is pushed when the opening brace is reached
                // (see the `{` arm below), so remember it.
                pending_typed =
                    parse_typed_header(file, i, toks.len()).map(|(ty, open)| (open, ty));
                i += 1;
            }
            (TokKind::Ident, "fn") if file.kind(i + 1) == TokKind::Ident => {
                let name = file.t(i + 1).trim_start_matches("r#").to_string();
                let line = file.toks[i].line;
                let self_type = scopes.iter().rev().find_map(|s| match s {
                    Scope::Typed(t) => Some(t.clone()),
                    Scope::Block => None,
                });
                let body = find_body(file, i + 2, toks.len());
                out.push(FnDef {
                    name,
                    self_type,
                    file: file_idx,
                    line,
                    body,
                    params: param_names(file, i + 2, toks.len()),
                });
                i += 2;
            }
            (TokKind::Punct, "{") => {
                match pending_typed.take() {
                    Some((open, ty)) if open == i => scopes.push(Scope::Typed(ty)),
                    other => {
                        pending_typed = other;
                        scopes.push(Scope::Block);
                    }
                }
                i += 1;
            }
            (TokKind::Punct, "}") => {
                scopes.pop();
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// One `pub` item definition: a `fn`, `struct`, `enum`, `trait`,
/// `type`, `const`, `static` or `mod` declared plain `pub` (restricted
/// `pub(crate)`/`pub(super)`/`pub(in …)` items are not public surface).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// The item's name.
    pub name: String,
    /// Its keyword (`fn`, `struct`, …).
    pub kind: &'static str,
    /// 1-based line of the `pub` keyword.
    pub line: u32,
}

/// The item keywords whose `pub` definitions count as public surface.
const PUB_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// Extracts every plain-`pub` item defined in `file` before the test
/// cutoff, methods and associated consts included (fields are not
/// items).
pub fn extract_pub_items(file: &FileModel) -> Vec<PubItem> {
    let mut out = Vec::new();
    for i in 0..file.cut {
        if file.kind(i) != TokKind::Ident || file.t(i) != "pub" {
            continue;
        }
        // Skip qualifiers: `pub const fn`, `pub unsafe extern "C" fn`.
        let mut j = i + 1;
        let mut saw_const = false;
        loop {
            match file.t(j) {
                "const" => saw_const = true,
                "async" | "unsafe" | "extern" => {}
                _ if file.kind(j) == TokKind::Str => {}
                _ => break,
            }
            j += 1;
        }
        let (kind, mut name_at) = match PUB_KINDS.iter().find(|k| **k == file.t(j)) {
            Some(&kw) => (kw, j + 1),
            // `pub const NAME: T` — the qualifier loop consumed `const`.
            None if saw_const => ("const", j),
            None => continue,
        };
        if kind == "static" && file.t(name_at) == "mut" {
            name_at += 1;
        }
        if file.kind(name_at) == TokKind::Ident {
            out.push(PubItem {
                name: file.t(name_at).trim_start_matches("r#").to_string(),
                kind,
                line: file.toks[i].line,
            });
        }
    }
    out
}

/// Every identifier the code of `file` names, test module included,
/// minus the tokens of `pub use` re-exports (a re-export alone does not
/// use an item).
pub fn named_idents(file: &FileModel) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut i = 0;
    while i < file.toks.len() {
        if file.t(i) == "pub" {
            // `pub use …;` and `pub(crate) use …;`: skip to the `;`.
            let mut j = i + 1;
            if file.t(j) == "(" {
                while j < file.toks.len() && file.t(j) != ")" {
                    j += 1;
                }
                j += 1;
            }
            if file.t(j) == "use" {
                while j < file.toks.len() && file.t(j) != ";" {
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        if file.kind(i) == TokKind::Ident {
            names.insert(file.t(i).trim_start_matches("r#").to_string());
        }
        i += 1;
    }
    names
}

/// Parses an `impl`/`trait` header starting at token `i`; returns the
/// self-type name and the token index of the opening `{`.
fn parse_typed_header(file: &FileModel, i: usize, end: usize) -> Option<(String, usize)> {
    let is_trait = file.t(i) == "trait";
    let mut j = i + 1;
    let mut ty: Option<String> = None;
    let mut angle = 0i32;
    let mut in_where = false;
    while j < end {
        match (file.kind(j), file.t(j)) {
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle -= 1,
            (TokKind::Punct, "{") if angle <= 0 => {
                return ty.map(|t| (t, j));
            }
            (TokKind::Punct, ";") if angle <= 0 => return None,
            (TokKind::Ident, "for") if angle <= 0 && !is_trait && !in_where => ty = None,
            (TokKind::Ident, "where") if angle <= 0 => in_where = true,
            // For `impl A for B` the last path segment before `{`
            // wins (`for` resets); a trait's name is its first
            // ident — supertrait names must not overwrite it.
            (TokKind::Ident, w)
                if angle <= 0 && !in_where && !is_keyword(w) && (ty.is_none() || !is_trait) =>
            {
                ty = Some(w.trim_start_matches("r#").to_string());
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// From just past `fn name`, the names the parameter list binds
/// directly: an identifier right after `(`, `,` or `mut` and followed
/// by `:`, at the top level of the first parenthesized list outside
/// the generics.
fn param_names(file: &FileModel, mut j: usize, end: usize) -> Vec<String> {
    let (mut paren, mut angle, mut names) = (0i32, 0i32, Vec::new());
    while j < end {
        match file.t(j) {
            "<" if paren == 0 => angle += 1,
            ">" if paren == 0 => angle -= 1,
            "(" => paren += 1,
            ")" if paren == 1 && angle <= 0 => break,
            ")" => paren -= 1,
            "{" | ";" if paren == 0 => break,
            nm if paren == 1
                && angle <= 0
                && file.kind(j) == TokKind::Ident
                && file.t(j + 1) == ":"
                && matches!(file.t(j - 1), "(" | "," | "mut") =>
            {
                names.push(nm.trim_start_matches("r#").to_string());
            }
            _ => {}
        }
        j += 1;
    }
    names
}

/// From just past `fn name`, finds the body's opening `{` (skipping
/// generics, parameters, return type, and `where` clause) and returns
/// the inclusive token range of the body. `None` for `;`-terminated
/// trait requirements.
fn find_body(file: &FileModel, mut j: usize, end: usize) -> Option<(usize, usize)> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut angle = 0i32;
    while j < end {
        match (file.kind(j), file.t(j)) {
            (TokKind::Punct, "(") => paren += 1,
            (TokKind::Punct, ")") => paren -= 1,
            (TokKind::Punct, "[") => bracket += 1,
            (TokKind::Punct, "]") => bracket -= 1,
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle -= 1,
            (TokKind::Punct, ";") if paren == 0 && bracket == 0 => return None,
            (TokKind::Punct, "{") if paren == 0 && bracket == 0 && angle <= 0 => {
                // Found the body; match braces to its close.
                let open = j;
                let mut depth = 0i32;
                while j < end {
                    match file.t(j) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return Some((open, j));
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return Some((open, end.saturating_sub(1)));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::new("crates/x/src/lib.rs".into(), src.into())
    }

    fn names(src: &str) -> Vec<(String, Option<String>)> {
        let m = model(src);
        extract_fns(&m, 0)
            .into_iter()
            .map(|f| (f.name, f.self_type))
            .collect()
    }

    #[test]
    fn free_fns_and_methods_are_attributed() {
        let src = "fn free() {}\nimpl Foo { fn method(&self) {} }\nimpl Bar for Foo { fn trait_m(&self) {} }\ntrait Baz { fn req(&self); fn dflt(&self) -> u8 { 0 } }";
        assert_eq!(
            names(src),
            vec![
                ("free".into(), None),
                ("method".into(), Some("Foo".into())),
                ("trait_m".into(), Some("Foo".into())),
                ("req".into(), Some("Baz".into())),
                ("dflt".into(), Some("Baz".into())),
            ]
        );
    }

    #[test]
    fn generics_where_clauses_and_return_types_do_not_confuse_bodies() {
        let src = "impl<S: Fn() -> u8> Wrap<S> {\n    fn go<T>(&self, x: [u8; 4]) -> Vec<Box<dyn Fn(&T) -> u8>>\n    where T: Clone {\n        body_call();\n    }\n}";
        let m = model(src);
        let fns = extract_fns(&m, 0);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].self_type.as_deref(), Some("Wrap"));
        let (b0, b1) = fns[0].body.unwrap();
        let body: Vec<&str> = (b0..=b1).map(|i| m.t(i)).collect();
        assert!(body.contains(&"body_call"), "{body:?}");
    }

    #[test]
    fn pub_items_are_found_with_their_qualifiers() {
        let src = concat!(
            "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\npub const C: u8 = 0;\n",
            "pub static mut D: u8 = 0;\npub struct E { pub field: u8 }\npub(crate) fn f() {}\n",
            "pub(super) struct G;\npub use x::H;\npub mod i;\npub type J = u8;\n",
            "pub trait K {}\npub enum L {}\n#[cfg(test)]\nmod tests { pub fn m() {} }\n",
        );
        let got: Vec<(String, &str)> = extract_pub_items(&model(src))
            .into_iter()
            .map(|p| (p.name, p.kind))
            .collect();
        let want = [
            ("a", "fn"),
            ("b", "fn"),
            ("C", "const"),
            ("D", "static"),
            ("E", "struct"),
            ("i", "mod"),
            ("J", "type"),
            ("K", "trait"),
            ("L", "enum"),
        ];
        let want: Vec<(String, &str)> = want.iter().map(|(n, k)| (n.to_string(), *k)).collect();
        assert_eq!(got, want);
        // A re-export's names are no use; the test module's are.
        let names = named_idents(&model(src));
        assert!(!names.contains("H") && names.contains("m"), "{names:?}");
    }

    #[test]
    fn test_modules_are_cut() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn dead() {} }";
        assert_eq!(names(src), vec![("live".into(), None)]);
    }

    #[test]
    fn fn_pointer_types_are_not_defs() {
        let src = "fn real(cb: fn(usize) -> usize) -> usize { cb(1) }";
        assert_eq!(names(src).len(), 1);
    }

    #[test]
    fn justification_lookback_covers_trailing_and_preceding_comments() {
        let src = "// PANIC: bounded by caller.\nfn a() {}\n\n\nfn b() {} // PANIC: same line\n";
        let m = model(src);
        assert!(m.justified(2, "PANIC:", 3));
        assert!(m.justified(5, "PANIC:", 3));
        assert!(!m.justified(5, "FLOAT:", 3));
    }
}
